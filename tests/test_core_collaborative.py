"""Tests of the collaborative decryption inside the simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.collaborative import (
    collaborative_decrypt,
    collaborative_decrypt_many,
    share_holder_ids,
    share_index_of,
)
from repro.exceptions import ThresholdError
from repro.gossip import fresh_estimate
from repro.simulation import CycleEngine, Node


class IdleNode(Node):
    def next_cycle(self, engine, cycle):  # pragma: no cover - never run in these tests
        pass


def make_engine(n_nodes: int) -> CycleEngine:
    return CycleEngine([IdleNode(i) for i in range(n_nodes)], seed=0)


class TestCommitteeHelpers:
    def test_share_holder_ids(self):
        assert share_holder_ids(4) == [0, 1, 2, 3]

    def test_share_index_of(self):
        assert share_index_of(0, 4) == 1
        assert share_index_of(3, 4) == 4
        assert share_index_of(4, 4) is None
        assert share_index_of(10, 4) is None


class TestCollaborativeDecrypt:
    def test_round_trip(self, plain_backend):
        engine = make_engine(6)
        values = np.array([0.25, -0.5, 1.0])
        estimate = fresh_estimate(plain_backend, values)
        outcome = collaborative_decrypt(engine, requester_id=5, backend=plain_backend,
                                        estimate=estimate)
        assert np.allclose(outcome.values, values, atol=1e-5)
        assert len(outcome.helpers) == plain_backend.threshold
        assert outcome.messages == 2 * plain_backend.threshold

    def test_real_crypto_round_trip(self, dj_backend):
        engine = make_engine(5)
        values = np.array([0.5, -1.5])
        estimate = fresh_estimate(dj_backend, values)
        outcome = collaborative_decrypt(engine, 4, dj_backend, estimate)
        assert np.allclose(outcome.values, values, atol=1e-3)

    def test_exponent_undone(self, plain_backend):
        from repro.gossip import average_estimates

        engine = make_engine(4)
        a = fresh_estimate(plain_backend, [1.0, 0.0])
        b = fresh_estimate(plain_backend, [0.0, 1.0])
        averaged = average_estimates(plain_backend, a, b)
        outcome = collaborative_decrypt(engine, 3, plain_backend, averaged)
        assert np.allclose(outcome.values, [0.5, 0.5], atol=1e-5)

    def test_network_traffic_accounted(self, plain_backend):
        engine = make_engine(4)
        estimate = fresh_estimate(plain_backend, [1.0, 2.0, 3.0])
        before = engine.network.total.bytes_sent
        outcome = collaborative_decrypt(engine, 3, plain_backend, estimate)
        assert engine.network.total.bytes_sent - before == outcome.bytes_transferred
        assert outcome.bytes_transferred > 0

    def test_fails_when_committee_offline(self, plain_backend):
        engine = make_engine(6)
        # Take the whole committee (nodes 0..3) offline except one.
        for node_id in range(3):
            engine.node(node_id).online = False
        estimate = fresh_estimate(plain_backend, [1.0])
        with pytest.raises(ThresholdError):
            collaborative_decrypt(engine, 5, plain_backend, estimate)

    def test_succeeds_with_partial_committee(self, plain_backend):
        engine = make_engine(6)
        engine.node(0).online = False  # 3 committee members remain, threshold is 2
        estimate = fresh_estimate(plain_backend, [0.75])
        outcome = collaborative_decrypt(engine, 5, plain_backend, estimate)
        assert np.allclose(outcome.values, [0.75], atol=1e-5)
        assert 0 not in outcome.helpers

    def test_many_unpacked_estimates_are_one_round(self, plain_backend):
        """k estimates, one request and one response per helper — whatever
        the ciphertext layout."""
        assert not plain_backend.is_packed
        engine = make_engine(6)
        vectors = [np.array([0.25, -0.5, 1.0]), np.zeros(3), np.array([2.0, 0.5, -1.0])]
        estimates = [fresh_estimate(plain_backend, values) for values in vectors]
        ledger = engine.network.total
        messages, transferred = ledger.messages_sent, ledger.bytes_sent
        outcome = collaborative_decrypt_many(engine, 5, plain_backend, estimates)
        for decrypted, values in zip(outcome.values, vectors, strict=True):
            assert np.allclose(decrypted, values, atol=1e-5)
        assert outcome.messages == 2 * plain_backend.threshold
        assert ledger.messages_sent - messages == outcome.messages
        assert ledger.bytes_sent - transferred == outcome.bytes_transferred > 0
