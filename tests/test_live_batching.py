"""Batched & compressed socket records in the live runner.

The batching contract has two halves:

* **Protocol accounting is untouched.**  Every per-recipient frame is
  charged to the traffic ledger exactly as the unbatched path charges it,
  so a batched run reports the same ``bytes_sent``/``messages_sent`` — and
  the same clustering results — as an unbatched run with the same seed.
* **On-socket bytes shrink.**  Helpers hosted on the same worker share one
  :class:`~repro.gossip.messages.BatchEnvelope` record instead of one
  record each, which the runner-level socket statistics make visible.

These tests fork worker processes; like the other live tests they stay
tiny (8 participants, 2 workers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ChiaroscuroConfig
from repro.core.runner import run_chiaroscuro
from repro.datasets import load_dataset
from repro.exceptions import ConfigurationError


def _config(batching: bool = False, compression: bool = False) -> ChiaroscuroConfig:
    return ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 2, "max_iterations": 3},
        privacy={"epsilon": 2.0, "noise_shares": 4},
        gossip={"cycles_per_aggregation": 4},
        crypto={"backend": "plain", "threshold": 3, "n_key_shares": 4},
        simulation={"n_participants": 8, "seed": 0},
        network={"batching": batching, "compression": compression},
        runtime={"mode": "live", "processes": 2, "run_timeout": 120.0},
    )


def _collection():
    return load_dataset("gaussian", n_series=8, series_length=6, n_clusters=2,
                        seed=3)


class TestBatchedLiveRun:
    @pytest.fixture(scope="class")
    def results(self):
        plain = run_chiaroscuro(_collection(), _config())
        batched = run_chiaroscuro(_collection(), _config(batching=True))
        compressed = run_chiaroscuro(
            _collection(), _config(batching=True, compression=True)
        )
        return plain, batched, compressed

    def test_results_are_identical(self, results):
        plain, batched, compressed = results
        for other in (batched, compressed):
            assert np.array_equal(plain.profiles, other.profiles)
            assert np.array_equal(plain.assignments, other.assignments)
            assert plain.inertia == other.inertia
            assert plain.n_iterations == other.n_iterations

    def test_protocol_accounting_is_unchanged(self, results):
        plain, batched, compressed = results
        for other in (batched, compressed):
            assert other.costs.messages_sent == plain.costs.messages_sent
            assert other.costs.bytes_sent == plain.costs.bytes_sent
            assert other.costs.bytes_sent_modelled == plain.costs.bytes_sent_modelled

    def test_batched_records_are_counted(self, results):
        _, batched, compressed = results
        for other in (batched, compressed):
            socket = other.metadata["live"]["socket"]
            assert socket["batched_records"] > 0
            # Batching only ever helps: strictly more frames than records.
            assert socket["batched_frames"] > socket["batched_records"]

    def test_unbatched_run_reports_no_batched_records(self, results):
        plain, _, _ = results
        socket = plain.metadata["live"]["socket"]
        assert socket["batched_records"] == 0
        assert socket["batched_frames"] == 0

    def test_batching_reduces_on_socket_bytes(self, results):
        plain, batched, compressed = results
        baseline = plain.metadata["live"]["socket"]["bytes_sent"]
        assert batched.metadata["live"]["socket"]["bytes_sent"] < baseline
        assert compressed.metadata["live"]["socket"]["bytes_sent"] \
            < batched.metadata["live"]["socket"]["bytes_sent"]

    def test_metadata_records_the_modes(self, results):
        plain, batched, compressed = results
        assert plain.metadata["live"]["batching"] is False
        assert batched.metadata["live"]["batching"] is True
        assert batched.metadata["live"]["compression"] is False
        assert compressed.metadata["live"]["compression"] is True


class TestBatchingConfigValidation:
    def test_compression_requires_batching(self):
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig().with_overrides(network={"compression": True})

    def test_batching_off_is_the_default(self):
        config = ChiaroscuroConfig()
        assert config.network.batching is False
        assert config.network.compression is False
