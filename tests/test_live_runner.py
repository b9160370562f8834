"""End-to-end tests of the multi-process live runner.

The headline guarantee: a live run over real TCP sockets produces the same
clustering results — profiles, assignments, iterations, message and byte
totals — as the cycle simulation with the same seed, because every worker
replays the cycle engine's scheduler stream, only the holder of the one
stepping token steps, and homomorphic averaging commutes in the plaintexts
(see the determinism notes in :mod:`repro.net.live`).  The coordinator is
out of the stepping loop: it sends each worker O(1) records, and a worker
that dies — before it connects, or in the middle of a step — fails the run
at once instead of at ``run_timeout``.

These tests fork worker processes and open loopback sockets; they are kept
tiny (at most 8 participants, 2 to 4 workers) so the whole file stays in
CI-smoke territory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import ChiaroscuroConfig
from repro.core.runner import run_chiaroscuro
from repro.datasets import load_dataset
from repro.exceptions import ConfigurationError, ProtocolError, ReproError
from repro.gossip import messages as messages_module
from repro.net import live as live_module
from repro.simulation.engine import CycleEngine


def _config(mode: str, processes: int = 2, packing: str = "auto",
            n_participants: int = 8, run_timeout: float = 120.0) -> ChiaroscuroConfig:
    return ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 2, "max_iterations": 3},
        privacy={"epsilon": 2.0, "noise_shares": 4},
        gossip={"cycles_per_aggregation": 4},
        crypto={"backend": "plain", "threshold": 3, "n_key_shares": 4,
                "packing": packing},
        simulation={"n_participants": n_participants, "seed": 0},
        runtime={"mode": mode, "processes": processes, "run_timeout": run_timeout},
    )


def _collection(n_series: int = 8):
    return load_dataset("gaussian", n_series=n_series, series_length=6,
                        n_clusters=2, seed=3)


#: Homomorphic additions (cycle, live) per ``crypto.packing``.  The one
#: place the two engines legitimately differ: a cycle-mode exchange averages
#: once and both ends adopt the same objects, a live one averages on each
#: side.  Both layouts take the same protocol step through both drivers
#: (one committee round of k estimates); ``"off"`` has one ciphertext per
#: coordinate to add.
ADDITIONS = {"auto": (636, 1224), "off": (4452, 8568)}


class TestLiveVsCycleEquivalence:
    @pytest.fixture(scope="class", params=sorted(ADDITIONS))
    def packing(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def results(self, packing):
        cycle = run_chiaroscuro(_collection(), _config("cycle", packing=packing))
        live = run_chiaroscuro(_collection(), _config("live", packing=packing))
        return cycle, live

    def test_profiles_are_identical(self, results):
        cycle, live = results
        assert np.array_equal(cycle.profiles, live.profiles)
        for node_id, profile in cycle.per_participant_profiles.items():
            assert np.array_equal(profile, live.per_participant_profiles[node_id])

    def test_assignments_and_quality_are_identical(self, results):
        cycle, live = results
        assert np.array_equal(cycle.assignments, live.assignments)
        assert cycle.inertia == live.inertia
        assert cycle.n_iterations == live.n_iterations
        assert cycle.stop_reasons == live.stop_reasons
        assert cycle.epsilon_spent == live.epsilon_spent

    def test_measured_socket_bytes_match_cycle_accounting(self, results, packing):
        """Same frames, same exchanges ⇒ same protocol traffic, measured on
        the sockets this time."""
        cycle, live = results
        assert live.costs.messages_sent == cycle.costs.messages_sent
        assert live.costs.bytes_sent == cycle.costs.bytes_sent
        assert live.costs.bytes_sent_modelled == cycle.costs.bytes_sent_modelled
        assert live.costs.encryptions == cycle.costs.encryptions
        assert live.costs.partial_decryptions == cycle.costs.partial_decryptions
        assert (cycle.costs.homomorphic_additions,
                live.costs.homomorphic_additions) == ADDITIONS[packing]

    def test_live_metadata_reports_the_runner(self, results):
        _, live = results
        meta = live.metadata["live"]
        assert meta["processes"] == 2
        assert meta["cycles_run"] >= live.n_iterations
        # Control-plane + envelope overhead is reported separately from the
        # protocol byte accounting and is non-trivial.
        assert meta["socket"]["bytes_sent"] > 0
        # The coordinator is out of the stepping loop: it sends each worker
        # a bootstrap, a run-sequential and a shutdown record, however many
        # steps the run takes.
        assert 0 < meta["coordinator_socket"]["records_sent"] \
            < live.costs.n_participants
        # A committee round's request is one socket record per destination
        # worker, and one of the two workers hosts two of the three helpers.
        assert meta["socket"]["batched_frames"] > meta["socket"]["batched_records"] > 0

    def test_execution_log_mirrors_the_iterations(self, results):
        cycle, live = results
        assert len(live.log) == len(cycle.log)
        for cycle_record, live_record in zip(cycle.log, live.log):
            assert cycle_record.iteration == live_record.iteration
            assert cycle_record.epsilon_spent == live_record.epsilon_spent
            assert np.array_equal(cycle_record.perturbed_means,
                                  live_record.perturbed_means)
            assert cycle_record.displacement == live_record.displacement
            assert cycle_record.tracked_assignments == live_record.tracked_assignments

    def test_live_log_records_per_iteration_cost_deltas(self, results):
        """Live mode now fills the per-iteration message/byte deltas (charged
        to the sending node's current iteration); every send is attributed to
        some iteration, so the deltas sum exactly to the run totals."""
        _, live = results
        for record in live.log:
            assert record.costs["messages_sent"] > 0
            assert record.costs["bytes_sent"] > 0
        assert sum(r.costs["messages_sent"] for r in live.log) \
            == live.costs.messages_sent
        assert sum(r.costs["bytes_sent"] for r in live.log) == live.costs.bytes_sent

    def test_live_log_records_per_iteration_crypto_deltas(self, results):
        """Each worker meters its process-global crypto counter around every
        unit of protocol work, so live records carry crypto-op deltas like
        cycle records; everything metered lands in some iteration, so the
        deltas sum exactly to the run totals."""
        cycle, live = results
        for counter in ("encryptions", "partial_decryptions", "combinations"):
            assert sum(r.costs.get(counter, 0.0) for r in live.log) \
                == getattr(live.costs, counter)
        for cycle_record, live_record in zip(cycle.log, live.log):
            # Encryptions are one-per-contribution in both modes; additions
            # and re-randomizations legitimately differ (live averages the
            # two sides of an exchange independently).
            assert live_record.costs["encryptions"] \
                == cycle_record.costs["encryptions"]

    def test_cost_summary_surfaces_iteration_deltas_in_both_modes(self, results):
        cycle, live = results
        assert len(live.costs.iteration_costs) == len(live.log)
        assert len(cycle.costs.iteration_costs) == len(cycle.log)
        assert sum(live.costs.bytes_per_iteration()) == live.costs.bytes_sent
        # The cycle observer attributes deltas to disclosure windows, so its
        # series can undercount the post-disclosure tail but never exceed.
        assert 0 < sum(cycle.costs.bytes_per_iteration()) <= cycle.costs.bytes_sent
        assert live.costs.as_dict()["iteration_bytes_sent"] == \
            live.costs.bytes_per_iteration()


class TestSequentialTokenAcrossWorkers:
    """The stepping token visits more than two workers, and every worker
    holds a single node when there are as many workers as nodes."""

    @pytest.mark.parametrize("processes, n_participants",
                             [(3, 8), (4, 8), (4, 4)])
    def test_live_equals_cycle(self, processes, n_participants, monkeypatch):
        cycles = []
        original_run = CycleEngine.run

        def counting_run(engine, *args, **kwargs):
            cycles.append(original_run(engine, *args, **kwargs))
            return cycles[-1]

        monkeypatch.setattr(CycleEngine, "run", counting_run)
        collection = _collection(n_participants)
        cycle = run_chiaroscuro(
            collection, _config("cycle", n_participants=n_participants))
        live = run_chiaroscuro(
            collection, _config("live", processes=processes,
                                n_participants=n_participants))
        assert live.metadata["live"]["processes"] == processes
        assert np.array_equal(cycle.profiles, live.profiles)
        assert np.array_equal(cycle.assignments, live.assignments)
        assert live.costs.messages_sent == cycle.costs.messages_sent
        assert live.costs.bytes_sent == cycle.costs.bytes_sent
        assert [live.metadata["live"]["cycles_run"]] == cycles


#: What a small sequential live run must reproduce at 2 and 3 processes:
#: the workers' summed socket record counts, and every per-iteration cost
#: record of the execution log (the same at any process count).  Socket
#: bytes are not pinned: the hello headers carry ephemeral ports.
PINNED_SOCKET = {
    2: {"records_sent": 350, "records_received": 342,
        "batched_records": 24, "batched_frames": 36},
    3: {"records_sent": 505, "records_received": 497,
        "batched_records": 48, "batched_frames": 48},
}
PINNED_ITERATION_COSTS = [
    {"additions": 424.0, "bytes_sent": 169248.0, "combinations": 16.0,
     "encryptions": 32.0, "messages_sent": 104.0, "partial_decryptions": 48.0,
     "rerandomizations": 224.0},
    {"additions": 408.0, "bytes_sent": 169248.0, "combinations": 16.0,
     "encryptions": 32.0, "messages_sent": 104.0, "partial_decryptions": 48.0,
     "rerandomizations": 224.0},
    {"additions": 384.0, "bytes_sent": 169348.0, "combinations": 16.0,
     "encryptions": 32.0, "messages_sent": 104.0, "partial_decryptions": 48.0,
     "rerandomizations": 224.0},
]


class TestPinnedSequentialRun:
    """Socket records and per-iteration costs of one small sequential run,
    pinned so that a change to how workers serve frames or pass the token
    cannot move them unnoticed."""

    @pytest.mark.parametrize("processes", sorted(PINNED_SOCKET))
    def test_socket_records_and_iteration_costs(self, processes):
        config = ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 2, "max_iterations": 3},
            privacy={"noise_shares": 4},
            gossip={"cycles_per_aggregation": 4},
            crypto={"backend": "plain", "threshold": 3, "n_key_shares": 6},
            simulation={"n_participants": 8, "seed": 3},
            runtime={"mode": "live", "processes": processes, "run_timeout": 120.0},
        )
        collection = load_dataset("gaussian", n_series=8, series_length=12,
                                  n_clusters=2, seed=3)
        live = run_chiaroscuro(collection, config)
        socket = live.metadata["live"]["socket"]
        assert {key: socket[key] for key in PINNED_SOCKET[processes]} \
            == PINNED_SOCKET[processes]
        assert [record.costs for record in live.log] == PINNED_ITERATION_COSTS


class TestWorkerFailuresFailFast:
    """A dead worker fails the run well before ``run_timeout`` (60 s here)."""

    def test_worker_dying_before_it_connects(self, monkeypatch):
        original = live_module.LiveWorker.run

        async def dying(worker, coordinator_address):
            if worker.index == 1:
                raise RuntimeError("worker 1 fails before its hello")
            return await original(worker, coordinator_address)

        # Patched before the fork, so the workers inherit it.
        monkeypatch.setattr(live_module.LiveWorker, "run", dying)
        started = time.monotonic()
        with pytest.raises(ProtocolError, match="worker 1"):
            run_chiaroscuro(_collection(), _config("live", run_timeout=60.0))
        assert time.monotonic() - started < 5.0

    def test_worker_raising_inside_a_step_mid_run(self, monkeypatch):
        original = live_module.LiveParticipantDriver.step

        async def failing(driver, node_id):
            if node_id == 5 and driver.participants[node_id].iteration >= 2:
                raise RuntimeError("step failure in iteration 2")
            return await original(driver, node_id)

        monkeypatch.setattr(live_module.LiveParticipantDriver, "step", failing)
        started = time.monotonic()
        with pytest.raises(ProtocolError):
            run_chiaroscuro(_collection(), _config("live", run_timeout=60.0))
        assert time.monotonic() - started < 10.0


class TestLiveRunnerShapes:
    def test_single_process_live_run_works(self):
        live = run_chiaroscuro(_collection(), _config("live", processes=1))
        cycle = run_chiaroscuro(_collection(), _config("cycle"))
        assert np.array_equal(cycle.profiles, live.profiles)
        assert live.metadata["live"]["processes"] == 1

    def test_announcement_log_longer_than_one_batch(self, monkeypatch):
        """Bootstrap splits the announcement log over as many batched
        records as the batch frame limit needs: 8 announcements and the key
        frame at 3 frames a batch is 3 bootstrap records per worker."""
        cycle = run_chiaroscuro(_collection(), _config("cycle"))
        # Patched before the fork, so the workers inherit the limit too.
        monkeypatch.setattr(messages_module, "MAX_BATCH_FRAMES", 3)
        monkeypatch.setattr(live_module, "MAX_BATCH_FRAMES", 3)
        live = run_chiaroscuro(_collection(), _config("live"))
        assert np.array_equal(cycle.profiles, live.profiles)
        assert live.costs.bytes_sent == cycle.costs.bytes_sent
        # Per worker: 3 bootstrap records, run-sequential and shutdown.
        assert live.metadata["live"]["coordinator_socket"]["records_sent"] == 2 * 5

    def test_more_processes_than_participants_are_clamped(self):
        collection = load_dataset("gaussian", n_series=4, series_length=4,
                                  n_clusters=2, seed=1)
        config = ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 2, "max_iterations": 2},
            privacy={"noise_shares": 2},
            gossip={"cycles_per_aggregation": 3},
            crypto={"backend": "plain", "threshold": 2, "n_key_shares": 2},
            simulation={"n_participants": 4, "seed": 1},
            runtime={"mode": "live", "processes": 9, "run_timeout": 120.0},
        )
        result = run_chiaroscuro(collection, config)
        assert result.metadata["live"]["processes"] == 4


class TestWorkerBlinderSupply:
    def test_worker_calls_after_fork_before_its_first_encryption(self, tmp_path, monkeypatch):
        """Each worker inherits the coordinator's prefilled blinder pool; it
        must discard it (``after_fork``) before anything draws a blinder."""
        import os

        from repro.crypto.backends import DamgardJurikBackend

        events = tmp_path / "events.log"

        def recording(name):
            original = getattr(DamgardJurikBackend, name)

            def wrapper(self, *args):
                with events.open("a") as handle:  # one short line: appended whole
                    handle.write(f"{os.getpid()} {name}\n")
                return original(self, *args)

            return wrapper

        # Patched before the fork, so the workers inherit the recorders.
        for name in ("after_fork", "_encrypt_plaintexts", "_rerandomize_payload"):
            monkeypatch.setattr(DamgardJurikBackend, name, recording(name))
        collection = load_dataset("gaussian", n_series=6, series_length=4,
                                  n_clusters=2, seed=3)
        config = ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 2, "max_iterations": 1},
            privacy={"noise_shares": 4},
            gossip={"cycles_per_aggregation": 2},
            crypto={"backend": "paillier", "key_bits": 128, "threshold": 2,
                    "n_key_shares": 3},
            simulation={"n_participants": 6, "seed": 0},
            runtime={"mode": "live", "processes": 2, "run_timeout": 60.0},
        )
        run_chiaroscuro(collection, config)
        per_process: dict[int, list[str]] = {}
        for line in events.read_text().splitlines():
            pid, name = line.split()
            per_process.setdefault(int(pid), []).append(name)
        workers = {pid: names for pid, names in per_process.items() if pid != os.getpid()}
        assert len(workers) == 2
        for names in workers.values():
            assert names[0] == "after_fork"
            assert names.count("after_fork") == 1
            assert "_encrypt_plaintexts" in names and "_rerandomize_payload" in names


class TestLiveEqualsCycleOnRealCiphertexts:
    def test_two_workers_match_cycle_mode_under_damgard_jurik(self):
        """Forked workers blind with their own exponents on the inherited
        fixed base; decryption never sees the blinders, so a live run equals
        cycle mode on profiles, traffic (each run draws its own key, so the
        modelled bytes are equal only because both charge the wire width)
        and crypto counts."""
        collection = load_dataset("gaussian", n_series=6, series_length=4,
                                  n_clusters=2, seed=3)

        def config(mode):
            return ChiaroscuroConfig().with_overrides(
                kmeans={"n_clusters": 2, "max_iterations": 2},
                privacy={"noise_shares": 4},
                gossip={"cycles_per_aggregation": 2},
                crypto={"backend": "paillier", "key_bits": 128, "threshold": 2,
                        "n_key_shares": 3},
                simulation={"n_participants": 6, "seed": 0},
                runtime={"mode": mode, "processes": 2, "run_timeout": 60.0},
            )

        cycle = run_chiaroscuro(collection, config("cycle"))
        live = run_chiaroscuro(collection, config("live"))
        assert live.metadata["live"]["processes"] == 2
        assert np.array_equal(live.profiles, cycle.profiles)
        for key in ("messages_sent", "bytes_sent", "bytes_sent_modelled",
                    "encryptions", "partial_decryptions", "combinations"):
            assert getattr(live.costs, key) == getattr(cycle.costs, key), key
        assert cycle.costs.encryptions > 0 and cycle.costs.combinations > 0


class TestLiveConfigValidation:
    def test_live_rejects_fault_models_for_now(self):
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig().with_overrides(
                runtime={"mode": "live"}, simulation={"churn_rate": 0.1},
            )
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig().with_overrides(
                runtime={"mode": "live"}, gossip={"drop_probability": 0.1},
            )
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig().with_overrides(
                runtime={"mode": "live"}, network={"corruption_rate": 0.1},
            )

    def test_runtime_section_validates(self):
        with pytest.raises(ReproError):
            ChiaroscuroConfig().with_overrides(runtime={"mode": "warp"})
        with pytest.raises(ReproError):
            ChiaroscuroConfig().with_overrides(runtime={"processes": 0})
        with pytest.raises(ReproError):
            ChiaroscuroConfig().with_overrides(runtime={"base_port": 1 << 17})
        # Worker i binds base_port + 1 + i: the whole range must fit.
        with pytest.raises(ReproError):
            ChiaroscuroConfig().with_overrides(
                runtime={"base_port": 65535, "processes": 2}
            )
        ChiaroscuroConfig().with_overrides(
            runtime={"base_port": 65530, "processes": 2}
        )
