"""End-to-end tests of the parallel sweep runner: caching, determinism, faults.

The two headline guarantees pinned down here:

* **resumable caching** — re-running an unchanged spec with ``resume=True``
  executes zero cells (every key is already in the store);
* **cross-process determinism** — the same spec produces identical store
  rows (everything except the recorded wall-clock timing) whether the
  matrix runs sequentially or on four workers, and a single cell's row is
  bit-identical to an equivalent standalone :func:`run_chiaroscuro`.
"""

from __future__ import annotations

import pytest

from repro.config import ChiaroscuroConfig
from repro.core.runner import run_chiaroscuro
from repro.datasets import load_dataset_for_population
from repro.exceptions import ExperimentError
from repro.experiments import ExperimentSpec, ResultStore, run_experiment
from repro.experiments.store import profiles_digest


def _spec(**overrides) -> ExperimentSpec:
    payload = dict(
        name="runner-unit",
        dataset="gaussian",
        dataset_params={"n_clusters": 2, "noise_std": 0.05},
        participants=14,
        base={
            "kmeans": {"n_clusters": 2, "max_iterations": 2},
            "privacy": {"epsilon": 4.0, "noise_shares": 6},
            "gossip": {"cycles_per_aggregation": 3},
            "crypto": {"threshold": 2, "n_key_shares": 3},
        },
        sweep={"privacy.epsilon": [2.0, 4.0]},
        repeats=2,
        base_seed=1,
        metrics={"reference": False},
    )
    payload.update(overrides)
    return ExperimentSpec(**payload)


def _deterministic(rows: list[dict]) -> list[dict]:
    """Store rows with the (intentionally nondeterministic) timing removed."""
    stripped = []
    for row in rows:
        row = dict(row)
        row.pop("timing", None)
        stripped.append(row)
    return stripped


class TestRunAndResume:
    def test_full_run_writes_one_ok_row_per_cell(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path / "results.jsonl")
        progress = run_experiment(spec, store, jobs=2)
        assert progress.executed == 4
        assert progress.failed == 0
        assert progress.skipped == 0
        rows = store.rows()
        assert [row["key"] for row in rows] == [cell.key for cell in spec.expand()]
        assert all(row["status"] == "ok" for row in rows)
        assert all(row["experiment"] == "runner-unit" for row in rows)

    def test_resume_executes_zero_cells(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path / "results.jsonl")
        run_experiment(spec, store, jobs=2)
        before = store.path.read_text(encoding="utf-8")
        progress = run_experiment(spec, store, jobs=2, resume=True)
        assert progress.executed == 0
        assert progress.skipped == 4
        # The cache hit leaves the store byte-identical: nothing re-ran.
        assert store.path.read_text(encoding="utf-8") == before

    def test_resume_runs_only_new_cells_after_a_spec_edit(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        run_experiment(_spec(), store, jobs=2)
        widened = _spec(sweep={"privacy.epsilon": [2.0, 4.0, 8.0]})
        progress = run_experiment(widened, store, jobs=2, resume=True)
        assert progress.skipped == 4
        assert progress.executed == 2
        assert store.completed_keys() >= {cell.key for cell in widened.expand()}

    def test_without_resume_everything_reruns(self, tmp_path):
        spec = _spec(repeats=1)
        store = ResultStore(tmp_path / "results.jsonl")
        run_experiment(spec, store)
        progress = run_experiment(spec, store)
        assert progress.executed == 2
        assert progress.skipped == 0

    def test_invalid_arguments_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        with pytest.raises(ExperimentError):
            run_experiment(_spec(), store, jobs=0)
        with pytest.raises(ExperimentError):
            run_experiment(_spec(), store, timeout=0.0)


class TestDeterminism:
    def test_jobs_1_and_jobs_4_produce_identical_rows(self, tmp_path):
        spec = _spec()
        sequential = ResultStore(tmp_path / "jobs1.jsonl")
        parallel = ResultStore(tmp_path / "jobs4.jsonl")
        run_experiment(spec, sequential, jobs=1)
        run_experiment(spec, parallel, jobs=4)
        assert _deterministic(sequential.rows()) == _deterministic(parallel.rows())

    def test_single_cell_row_matches_a_standalone_run(self, tmp_path):
        """The acceptance contract: a cell's stored row is bit-identical to
        what an equivalent standalone run produces."""
        spec = _spec(sweep={}, repeats=1, base_seed=3)
        store = ResultStore(tmp_path / "one.jsonl")
        progress = run_experiment(spec, store, jobs=1)
        assert progress.executed == 1 and progress.failed == 0
        (row,) = store.rows()

        cell = spec.expand()[0]
        collection = load_dataset_for_population(
            "gaussian", 14, seed=3, n_clusters=2, noise_std=0.05,
        )
        config = ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 2, "max_iterations": 2},
            privacy={"epsilon": 4.0, "noise_shares": 6},
            gossip={"cycles_per_aggregation": 3},
            crypto={"threshold": 2, "n_key_shares": 3},
            simulation={"n_participants": 14, "seed": 3},
        )
        assert cell.config() == config
        result = run_chiaroscuro(collection, config)
        assert row["result"]["profiles_digest"] == profiles_digest(result.profiles)
        assert row["result"]["summary"] == _jsonable(result.summary())
        # The stored costs are the summary totals; the per-iteration series
        # is stored once, under iteration_costs.
        expected_costs = {
            key: value for key, value in result.costs.as_dict().items()
            if not key.startswith("iteration_")
        }
        assert row["result"]["costs"] == _jsonable(expected_costs)
        assert row["result"]["iteration_costs"] == _jsonable(
            [record.costs for record in result.log]
        )
        assert row["result"]["guarantee"] == _jsonable(result.guarantee.as_dict())


def _jsonable(payload):
    """Round-trip through JSON the way the store does (exact for floats)."""
    import json

    return json.loads(json.dumps(payload))


class TestFailures:
    def test_invalid_cell_becomes_an_error_row(self, tmp_path):
        # threshold > participants fails configuration validation inside the
        # worker; the sweep must record the failure and keep going.
        spec = _spec(
            sweep={},
            repeats=1,
            cells=[{"crypto.threshold": 50}, {"privacy.epsilon": 2.0}],
        )
        store = ResultStore(tmp_path / "results.jsonl")
        progress = run_experiment(spec, store, jobs=2)
        assert progress.executed == 2
        assert progress.failed == 1
        rows = store.rows()
        assert [row["status"] for row in rows] == ["error", "ok"]
        assert "ConfigurationError" in rows[0]["error"]

    def test_resume_retries_failed_cells(self, tmp_path):
        spec = _spec(sweep={}, repeats=1, cells=[{"crypto.threshold": 50}])
        store = ResultStore(tmp_path / "results.jsonl")
        run_experiment(spec, store)
        progress = run_experiment(spec, store, resume=True)
        # The error row is not a cache hit: the cell runs (and fails) again.
        assert progress.executed == 1
        assert progress.failed == 1

    def test_per_cell_timeout_is_enforced(self, tmp_path):
        spec = _spec(
            participants=80,
            sweep={},
            repeats=1,
            base={
                "kmeans": {"n_clusters": 3, "max_iterations": 6},
                "privacy": {"epsilon": 2.0, "noise_shares": 16},
                "gossip": {"cycles_per_aggregation": 10},
            },
        )
        store = ResultStore(tmp_path / "results.jsonl")
        progress = run_experiment(spec, store, timeout=0.05)
        assert progress.executed == 1
        assert progress.failed == 1
        (row,) = store.rows()
        assert row["status"] == "timeout"
        assert "timeout" in row["error"]


class TestLivePortSlots:
    """Concurrent live cells with fixed ports must not collide on the bind.

    Each scheduler slot shifts the cell's port block by
    ``slot * (processes + 1)``; slot 0 and every non-live or ephemeral-port
    cell pass through untouched, so single-job sweeps are unchanged.
    """

    def _live_config(self, base_port: int, processes: int = 2):
        return ChiaroscuroConfig().with_overrides(
            crypto={"backend": "plain", "threshold": 2, "n_key_shares": 3},
            runtime={"mode": "live", "processes": processes,
                     "base_port": base_port},
        )

    def test_cycle_and_slot_zero_pass_through(self):
        from repro.experiments.runner import _cell_runtime_ports

        cycle = ChiaroscuroConfig()
        assert _cell_runtime_ports(cycle, 3) is cycle
        live = self._live_config(base_port=43210)
        assert _cell_runtime_ports(live, 0) is live
        ephemeral = self._live_config(base_port=0)
        assert _cell_runtime_ports(ephemeral, 3) is ephemeral

    def test_slots_get_disjoint_port_blocks(self):
        from repro.experiments.runner import _cell_runtime_ports

        live = self._live_config(base_port=43210, processes=2)
        shifted_1 = _cell_runtime_ports(live, 1)
        shifted_2 = _cell_runtime_ports(live, 2)
        # A cell binds base_port .. base_port + processes: blocks of
        # (processes + 1) ports, disjoint across slots.
        assert shifted_1.runtime.base_port == 43210 + 3
        assert shifted_2.runtime.base_port == 43210 + 6

    def test_port_range_overflow_falls_back_to_ephemeral(self):
        from repro.experiments.runner import _cell_runtime_ports

        live = self._live_config(base_port=65530, processes=2)
        # Slot 1 still fits (top of the block is exactly 65535)...
        assert _cell_runtime_ports(live, 1).runtime.base_port == 65533
        # ...slot 2 would run past the range, so it goes ephemeral instead.
        assert _cell_runtime_ports(live, 2).runtime.base_port == 0

    def test_parallel_live_cells_share_a_fixed_base_port(self, tmp_path):
        """The collision regression: two live cells in flight at once with
        the same nonzero ``base_port`` used to race for the same sockets."""
        spec = _spec(
            participants=8,
            base={
                "kmeans": {"n_clusters": 2, "max_iterations": 2},
                "privacy": {"epsilon": 2.0, "noise_shares": 4},
                "gossip": {"cycles_per_aggregation": 3},
                "crypto": {"backend": "plain", "threshold": 2,
                           "n_key_shares": 3},
                # Below the kernel's ephemeral range (32768-60999 here): an
                # outbound connection that happens to be given one of these
                # six ports makes a worker's bind() fail, which surfaces as
                # a 120 s coordinator timeout (seen once in 14 full runs
                # with 44100).
                "runtime": {"mode": "live", "processes": 2,
                            "base_port": 24100, "run_timeout": 120.0},
            },
            sweep={"privacy.epsilon": [2.0, 4.0]},
            repeats=1,
        )
        store = ResultStore(tmp_path / "live.jsonl")
        progress = run_experiment(spec, store, jobs=2)
        assert progress.executed == 2
        assert progress.failed == 0
        rows = store.rows()
        assert all(row["status"] == "ok" for row in rows)
        # The slot shift is applied inside the worker, after keying: the
        # stored cell keys are exactly the spec's (resume-compatible).
        assert [row["key"] for row in rows] == [cell.key for cell in spec.expand()]


class TestQualityMetrics:
    def test_label_metrics_survive_without_the_reference(self, tmp_path):
        """metrics.reference and metrics.label_key are independent: disabling
        the centralised reference keeps the label-based metrics (ARI)."""
        spec = _spec(
            sweep={}, repeats=1,
            metrics={"reference": False, "label_key": "cluster"},
        )
        store = ResultStore(tmp_path / "results.jsonl")
        progress = run_experiment(spec, store)
        assert progress.failed == 0
        (row,) = store.rows()
        quality = row["result"]["quality"]
        assert "adjusted_rand_index" in quality
        assert "relative_inertia" not in quality  # needs the reference

    def test_no_labels_no_reference_stores_empty_quality(self, tmp_path):
        spec = _spec(
            sweep={}, repeats=1,
            metrics={"reference": False, "label_key": None},
        )
        store = ResultStore(tmp_path / "results.jsonl")
        run_experiment(spec, store)
        (row,) = store.rows()
        assert row["result"]["quality"] == {}


class TestProgressReporting:
    def test_progress_callback_sees_every_cell(self, tmp_path):
        spec = _spec(repeats=1)
        store = ResultStore(tmp_path / "results.jsonl")
        lines: list[str] = []
        run_experiment(spec, store, progress=lines.append)
        assert sum(1 for line in lines if line.startswith("running")) == 2
        assert sum(1 for line in lines if line.startswith("done")) == 2
        run_experiment(spec, store, resume=True, progress=lines.append)
        assert sum(1 for line in lines if line.startswith("cached")) == 2
