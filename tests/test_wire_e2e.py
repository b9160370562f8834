"""End-to-end guarantees of the wire format inside the full protocol.

* a complete run over byte frames reproduces, bit for bit, what the
  retired object-reference transport (``network.wire="off"``) computed:
  profiles, assignments, execution log, operation counts and the modelled
  byte total — while ``bytes_sent`` holds measured frame lengths, within 5%
  of the model on the default scenario;
* the corruption fault model degrades but never crashes a run, and a
  diptych exchange whose frame arrives undecodable is contained: no
  estimate of either participant changes;
* the diptych frames a participant puts on the wire are re-randomized per
  hop: every ciphertext differs from the stored one, yet decrypts
  identically (unlinkability);
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
from repro.clustering import public_initial_centroids
from repro.config import ChiaroscuroConfig
from repro.core import run_chiaroscuro
from repro.core.participant import ChiaroscuroParticipant, Phase
from repro.gossip import deserialize
from repro.gossip.encrypted_sum import (
    fresh_estimate,
    rerandomize_estimate,
)
from repro.gossip.messages import DiptychExchange, DiptychReply
from repro.simulation import CycleEngine
import oracles

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


def _gossiping_pair(backend):
    """Two participants past their first assignment, in the gossip phase of
    the same iteration; participant 0 draws noise-shares."""
    config = ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 2, "max_iterations": 3},
        privacy={"epsilon": 5.0, "noise_shares": 2},
        gossip={"cycles_per_aggregation": 3},
        crypto={"threshold": 2, "n_key_shares": 4},
        simulation={"n_participants": 2, "seed": 0},
    )
    centroids = public_initial_centroids(2, 4, 0.0, 1.0, seed=0)
    series = np.array([[0.5, 0.1, 0.9, 0.3], [0.3, 0.7, 0.2, 0.6]])
    participants = [
        ChiaroscuroParticipant(
            node_id=i, series_values=series[i], initial_centroids=centroids,
            config=config, backend=backend,
            noise_contributor=i == 0, n_noise_contributors=1, seed=i,
        )
        for i in range(2)
    ]
    for participant in participants:
        participant._assignment_step()
        assert participant.phase is Phase.GOSSIP
    return participants


def _diptych_values(participant):
    """Exponents and ciphertexts of a participant's diptych, for equality."""
    diptych = participant.diptych
    return [(estimate.halvings, estimate.vector.payload)
            for estimate in diptych.data_estimates + diptych.noise_estimates]


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


class TestCorruptionScenarios:
    def test_protocol_survives_heavy_corruption(self, small_collection, fast_config):
        config = fast_config.with_overrides(network={"corruption_rate": 0.25})
        result = run_chiaroscuro(small_collection, config)
        # The run completes and still clusters; corruption degraded delivery.
        assert result.profiles.shape[0] == config.kmeans.n_clusters
        assert result.n_iterations >= 1

    def test_corrupted_diptych_exchange_is_contained(self, plain_backend):
        """Every frame corrupted: the exchange answers nothing, and neither
        participant's diptych changes instead of averaging damaged bytes."""
        participants = _gossiping_pair(plain_backend)
        engine = CycleEngine(participants, seed=5, corruption_rate=1.0)
        before = [_diptych_values(p) for p in participants]
        answers = []
        exchange = engine.transport.exchange

        def spy(*args, **kwargs):
            answers.append(exchange(*args, **kwargs))
            return answers[-1]

        engine.transport.exchange = spy
        participants[0].next_cycle(engine, 0)
        assert answers == [None]
        assert engine.network.total.messages_corrupted >= 1
        for participant, values in zip(participants, before):
            assert _diptych_values(participant) == values


class TestPerHopRerandomization:
    def test_rerandomized_estimate_differs_but_decrypts_identically(self, dj_backend):
        values = np.array([0.25, -0.75, 0.5])
        estimate = fresh_estimate(dj_backend, values)
        forwarded = rerandomize_estimate(dj_backend, estimate)
        assert forwarded.vector.payload != estimate.vector.payload
        assert forwarded.halvings == estimate.halvings
        shares = [1, 2]
        assert np.array_equal(
            oracles.decode_estimate(dj_backend, estimate, shares),
            oracles.decode_estimate(dj_backend, forwarded, shares),
        )

    @pytest.mark.parametrize("message_type", [DiptychExchange, DiptychReply])
    def test_exchanged_frames_are_unlinkable(self, dj_backend, message_type):
        """Every ciphertext a participant puts on the wire differs from the
        stored diptych's, and decrypts identically."""
        participant = _gossiping_pair(dj_backend)[0]
        message = deserialize(participant.exchange_frame(message_type))
        assert isinstance(message, message_type)
        stored = participant.diptych.data_estimates + participant.diptych.noise_estimates
        travelled = message.data_estimates + message.noise_estimates
        assert len(travelled) == len(stored) == 2 * participant.n_clusters
        shares = [1, 2]
        for sent, kept in zip(travelled, stored):
            assert sent.halvings == kept.halvings
            assert set(sent.vector.payload).isdisjoint(kept.vector.payload)
            assert np.array_equal(
                oracles.decode_estimate(dj_backend, sent, shares),
                oracles.decode_estimate(dj_backend, kept, shares),
            )

    def test_protocol_run_rerandomizes_forwards(self, small_collection, fast_config):
        result = run_chiaroscuro(small_collection, fast_config)
        assert sum(record.costs.get("rerandomizations", 0) for record in result.log) > 0


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
    if wire is not None:
        config = config.with_overrides(network={"wire": wire})
    payload = {"run": _run_snapshot(run_chiaroscuro(collection, config))}
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    _regenerate(REFERENCE_FILE, sys.argv[1] if len(sys.argv) > 1 else None)
