"""End-to-end guarantees of the wire format inside the full protocol.

* a complete run over byte frames reproduces, bit for bit, what the
  retired object-reference transport (``network.wire="off"``) computed:
  profiles, assignments, execution log, operation counts and the modelled
  byte total — while ``bytes_sent`` holds measured frame lengths, within 5%
  of the model on the default scenario;
* the cleartext gossip protocols reproduce that transport's outputs too;
* the corruption fault model degrades but never crashes a run, and every
  undecodable frame is contained as a :class:`WireFormatError`-mediated
  loss;
* forwarded gossip ciphertexts are re-randomized per hop: what travels
  differs from what is stored, yet decrypts identically (unlinkability);
* the fastmath-aware cost sweep measures both modes.

The object-reference transport survives as data only.
``tests/vectors/cycle_reference_v1.json`` holds its answers (floats as
``float.hex()``), written at commit ``c65450d`` — the last one carrying the
``"off"`` path — by this module against that commit's sources::

    git archive c65450d src | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/test_wire_e2e.py off

The file is immutable.  Without the argument the same entry point rewrites
it from the byte-frame path, which must leave it unchanged::

    PYTHONPATH=src python tests/test_wire_e2e.py && git diff --exit-code tests/vectors
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sweep_crypto_costs
from repro.core import run_chiaroscuro
from repro.gossip import (
    build_overlay,
    deserialize,
    encrypted_gossip_average,
    gossip_average,
)
from repro.gossip.encrypted_sum import (
    EncryptedAveragingNode,
    decode_estimate,
    fresh_estimate,
    rerandomize_estimate,
)
from repro.simulation import CycleEngine

REFERENCE_FILE = Path(__file__).parent / "vectors" / "cycle_reference_v1.json"


def _hexed(value):
    """JSON-native copy of *value* with every float as ``float.hex()``."""
    if isinstance(value, np.ndarray):
        return _hexed(value.tolist())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, Mapping):
        return {str(key): _hexed(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(entry) for entry in value]
    return value


def _run_snapshot(result):
    """Everything of a run that must not depend on how messages travel."""
    return _hexed({
        "profiles": result.profiles,
        "assignments": result.assignments,
        "per_participant_profiles": result.per_participant_profiles,
        "n_iterations": result.n_iterations,
        "stop_reasons": result.stop_reasons,
        "epsilon_spent": result.epsilon_spent,
        "messages_sent": result.costs.messages_sent,
        "bytes_sent_modelled": result.costs.bytes_sent_modelled,
        "iterations": [
            {
                "iteration": record.iteration,
                "epsilon_spent": record.epsilon_spent,
                "displacement": record.displacement,
                "centroids_before": record.centroids_before,
                "perturbed_means": record.perturbed_means,
                "noise_free_means": record.noise_free_means,
                "tracked_assignments": record.tracked_assignments,
                "costs": {key: value for key, value in record.costs.items()
                          if key != "bytes_sent"},
            }
            for record in result.log
        ],
    })


def _gossip_snapshots(plain_backend, **transport):
    """Outputs of the three cleartext/encrypted gossip reference cases."""
    return _hexed({
        "push_pull": gossip_average(
            np.random.default_rng(5).normal(size=(16, 6)), cycles=8, seed=2,
            **transport),
        "push_sum": gossip_average(
            np.random.default_rng(6).normal(size=(12, 4)), cycles=8, seed=3,
            protocol="push_sum", **transport),
        "encrypted": encrypted_gossip_average(
            plain_backend, np.random.default_rng(7).uniform(0, 1, size=(10, 5)),
            cycles=4, seed=4, **transport),
    })


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE_FILE.read_text())


@pytest.fixture(scope="module")
def wire_run(small_collection, fast_config):
    """One protocol run on the default (fault-free) scenario."""
    return run_chiaroscuro(small_collection, fast_config)


@pytest.fixture(scope="module")
def wire_snapshot(wire_run):
    return _run_snapshot(wire_run)


class TestWireEquivalence:
    def test_results_bit_identical(self, wire_snapshot, reference):
        for key in ("profiles", "assignments", "per_participant_profiles",
                    "n_iterations", "stop_reasons", "epsilon_spent"):
            assert wire_snapshot[key] == reference["run"][key], key

    def test_execution_logs_identical_apart_from_measured_bytes(
            self, wire_snapshot, reference):
        assert len(wire_snapshot["iterations"]) == len(reference["run"]["iterations"])
        for ours, theirs in zip(wire_snapshot["iterations"],
                                reference["run"]["iterations"]):
            assert ours == theirs, ours["iteration"]

    def test_bytes_switch_from_modelled_to_measured(self, wire_run, reference):
        # The modelled column is what the object-reference transport charged;
        # the measured one adds the framing overhead on the same messages.
        assert wire_run.costs.bytes_sent_modelled == \
            reference["run"]["bytes_sent_modelled"]
        assert wire_run.costs.bytes_sent > wire_run.costs.bytes_sent_modelled
        assert wire_run.costs.messages_sent == reference["run"]["messages_sent"]

    def test_measured_within_five_percent_of_modelled(self, wire_run):
        assert 0.0 < wire_run.costs.wire_overhead_fraction < 0.05
        accounting = wire_run.costs.byte_accounting
        assert accounting.bytes_measured == wire_run.costs.bytes_sent
        assert accounting.bytes_modelled == wire_run.costs.bytes_sent_modelled
        assert accounting.overhead_fraction == wire_run.costs.wire_overhead_fraction


class TestCleartextGossipEquivalence:
    @pytest.fixture(scope="class")
    def gossip_snapshots(self, plain_backend):
        return _gossip_snapshots(plain_backend)

    @pytest.mark.parametrize("case", ["push_pull", "push_sum", "encrypted"])
    def test_bit_identical_to_reference(self, gossip_snapshots, reference, case):
        assert gossip_snapshots[case] == reference["gossip"][case]


class TestCorruptionScenarios:
    def test_protocol_survives_heavy_corruption(self, small_collection, fast_config):
        config = fast_config.with_overrides(network={"corruption_rate": 0.25})
        result = run_chiaroscuro(small_collection, config)
        # The run completes and still clusters; corruption degraded delivery.
        assert result.profiles.shape[0] == config.kmeans.n_clusters
        assert result.n_iterations >= 1

    def test_corrupted_frames_are_counted_and_contained(self):
        from repro.gossip.protocol import PushPullAveragingNode

        values = np.random.default_rng(8).normal(size=(6, 4))
        overlay = build_overlay(6, topology="complete", seed=5)
        nodes = [PushPullAveragingNode(i, values[i], overlay) for i in range(6)]
        engine = CycleEngine(nodes, seed=5, corruption_rate=1.0)
        engine.run(3)
        # Every frame was corrupted: counted, rejected by the decoder, and
        # no exchange ever completed — estimates stay exactly the initial
        # values instead of silently averaging damaged payloads.
        assert engine.network.total.messages_corrupted > 0
        assert engine.network.total.messages_corrupted <= \
            engine.network.total.messages_sent
        for node in nodes:
            assert node.exchanges_done == 0
            assert np.array_equal(node.estimate, values[node.node_id])

    def test_push_sum_conserves_mass_under_corruption(self):
        values = np.random.default_rng(9).normal(size=(12, 3))
        estimates = gossip_average(values, cycles=12, seed=6, protocol="push_sum",
                                   corruption_rate=0.3)
        # Mass conservation: estimates still converge towards the average.
        assert np.all(np.isfinite(estimates))


class TestPerHopRerandomization:
    def test_rerandomized_estimate_differs_but_decrypts_identically(self, dj_backend):
        values = np.array([0.25, -0.75, 0.5])
        estimate = fresh_estimate(dj_backend, values)
        forwarded = rerandomize_estimate(dj_backend, estimate)
        assert forwarded.vector.payload != estimate.vector.payload
        assert forwarded.halvings == estimate.halvings
        shares = [1, 2]
        assert np.array_equal(
            decode_estimate(dj_backend, estimate, shares),
            decode_estimate(dj_backend, forwarded, shares),
        )

    def test_forwarded_frames_are_unlinkable(self, dj_backend):
        """What crosses the wire differs from what either node stores."""
        values = np.array([[0.5, 0.1], [0.3, 0.7]])
        overlay = build_overlay(2, topology="complete", seed=0)
        nodes = [
            EncryptedAveragingNode(i, dj_backend, values[i], overlay)
            for i in range(2)
        ]
        engine = CycleEngine(nodes, seed=0)
        before = {node.node_id: node.estimate for node in nodes}
        captured = []
        original_transmit = engine.transport.transmit

        def spy(sender, recipient, kind, frame, modelled_bytes=None):
            captured.append((sender, kind, frame))
            return original_transmit(sender, recipient, kind, frame,
                                     modelled_bytes=modelled_bytes)

        engine.transport.transmit = spy
        nodes[0].next_cycle(engine, 0)  # one full request/reply exchange
        assert [kind for _, kind, _ in captured] == [
            "encrypted-avg-request", "encrypted-avg-reply",
        ]
        shares = [1, 2]
        for sender, _, frame in captured:
            travelled = deserialize(frame).estimate
            stored = before[sender]
            assert travelled.vector.payload != stored.vector.payload
            assert np.array_equal(
                decode_estimate(dj_backend, travelled, shares),
                decode_estimate(dj_backend, stored, shares),
            )

    def test_protocol_run_rerandomizes_forwards(self, small_collection, fast_config):
        result = run_chiaroscuro(small_collection, fast_config)
        totals = result.log.total_costs()
        assert totals.get("rerandomizations", 0) > 0


class TestFastmathSweep:
    @pytest.mark.parametrize("mode", ["auto", "off"])
    def test_measure_smoke_per_mode(self, mode):
        from repro.analysis import measure_crypto_costs

        profile = measure_crypto_costs(key_bits=128, repetitions=1, fastmath=mode)
        assert profile.fastmath == mode
        assert profile.encryption_seconds > 0

    def test_sweep_measures_both_modes(self):
        profiles = sweep_crypto_costs(key_bits=128, repetitions=1)
        assert set(profiles) == {"auto", "off"}
        assert profiles["off"].pooled_encryption_seconds == 0.0
        assert profiles["auto"].pooled_encryption_seconds > 0.0

    def test_cli_sweep_screen(self, capsys):
        from repro.cli import main

        exit_code = main([
            "crypto-bench", "--key-bits", "128", "--repetitions", "1",
            "--fastmath", "sweep", "--populations", "1000", "--json",
        ])
        assert exit_code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert set(payload["profiles"]) == {"auto", "off"}
        assert set(payload["rows"]) == {"auto", "off"}


def _regenerate(target: Path, wire: str | None) -> None:
    from repro.config import ChiaroscuroConfig
    from repro.crypto.backends import PlainBackend
    from repro.datasets import generate_gaussian_clusters

    # The conftest fixtures, spelled out (fixtures are not importable).
    collection = generate_gaussian_clusters(
        n_series=30, series_length=12, n_clusters=3, noise_std=0.05, seed=7)
    config = ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 3, "max_iterations": 4, "convergence_threshold": 1e-3},
        privacy={"epsilon": 4.0, "noise_shares": 10},
        gossip={"cycles_per_aggregation": 6},
        crypto={"threshold": 2, "n_key_shares": 4},
        simulation={"n_participants": 40, "seed": 3},
    )
    transport = {}
    if wire is not None:
        config = config.with_overrides(network={"wire": wire})
        transport = {"wire": wire}
    backend = PlainBackend(threshold=2, n_shares=4, encoding_scale=10**6)
    payload = {
        "run": _run_snapshot(run_chiaroscuro(collection, config)),
        "gossip": _gossip_snapshots(backend, **transport),
    }
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    _regenerate(REFERENCE_FILE, sys.argv[1] if len(sys.argv) > 1 else None)
