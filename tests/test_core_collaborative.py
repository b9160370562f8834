"""Tests of the collaborative decryption inside the simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.collaborative import (
    build_decrypt_request,
    collaborative_decrypt,
    collaborative_decrypt_many,
    decode_decrypt_response,
    finalize_decryption,
    response_partials,
    serve_decrypt_request,
    share_holder_ids,
    share_index_of,
)
from repro.crypto.wire import wire_ciphertext_bytes
from repro.exceptions import ThresholdError
from repro.gossip import average_estimates, fresh_estimates
from repro.gossip.messages import DecryptRequest, deserialize
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
        estimate = fresh_estimates(plain_backend, [values])[0]
        outcome = collaborative_decrypt(engine, requester_id=5, backend=plain_backend,
                                        estimate=estimate)
        assert np.allclose(outcome.values, values, atol=1e-5)
        assert len(outcome.helpers) == plain_backend.threshold
        assert outcome.messages == 2 * plain_backend.threshold

    def test_real_crypto_round_trip(self, dj_backend):
        engine = make_engine(5)
        values = np.array([0.5, -1.5])
        estimate = fresh_estimates(dj_backend, [values])[0]
        outcome = collaborative_decrypt(engine, 4, dj_backend, estimate)
        assert np.allclose(outcome.values, values, atol=1e-3)

    def test_exponent_undone(self, plain_backend):
        from repro.gossip import average_estimates

        engine = make_engine(4)
        a = fresh_estimates(plain_backend, [[1.0, 0.0]])[0]
        b = fresh_estimates(plain_backend, [[0.0, 1.0]])[0]
        averaged = average_estimates(plain_backend, [a], [b])[0]
        outcome = collaborative_decrypt(engine, 3, plain_backend, averaged)
        assert np.allclose(outcome.values, [0.5, 0.5], atol=1e-5)

    def test_network_traffic_accounted(self, plain_backend):
        engine = make_engine(4)
        estimate = fresh_estimates(plain_backend, [[1.0, 2.0, 3.0]])[0]
        before = engine.network.total.bytes_sent
        outcome = collaborative_decrypt(engine, 3, plain_backend, estimate)
        assert engine.network.total.bytes_sent - before == outcome.bytes_transferred
        assert outcome.bytes_transferred > 0

    def test_fails_when_committee_offline(self, plain_backend):
        engine = make_engine(6)
        # Take the whole committee (nodes 0..3) offline except one.
        for node_id in range(3):
            engine.node(node_id).online = False
        estimate = fresh_estimates(plain_backend, [[1.0]])[0]
        with pytest.raises(ThresholdError):
            collaborative_decrypt(engine, 5, plain_backend, estimate)

    def test_succeeds_with_partial_committee(self, plain_backend):
        engine = make_engine(6)
        engine.node(0).online = False  # 3 committee members remain, threshold is 2
        estimate = fresh_estimates(plain_backend, [[0.75]])[0]
        outcome = collaborative_decrypt(engine, 5, plain_backend, estimate)
        assert np.allclose(outcome.values, [0.75], atol=1e-5)
        assert 0 not in outcome.helpers

    def test_many_unpacked_estimates_are_one_round(self, plain_backend):
        """k estimates, one request and one response per helper — whatever
        the ciphertext layout."""
        assert not plain_backend.is_packed
        engine = make_engine(6)
        vectors = [np.array([0.25, -0.5, 1.0]), np.zeros(3), np.array([2.0, 0.5, -1.0])]
        estimates = fresh_estimates(plain_backend, vectors)
        ledger = engine.network.total
        messages, transferred = ledger.messages_sent, ledger.bytes_sent
        outcome = collaborative_decrypt_many(engine, 5, plain_backend, estimates)
        for decrypted, values in zip(outcome.values, vectors, strict=True):
            assert np.allclose(decrypted, values, atol=1e-5)
        assert outcome.messages == 2 * plain_backend.threshold
        assert ledger.messages_sent - messages == outcome.messages
        assert ledger.bytes_sent - transferred == outcome.bytes_transferred > 0


class TestRoundPieces:
    """The request/serve/decode/finalize steps both drivers share, run here
    without an engine."""

    @staticmethod
    def estimates(backend):
        a = fresh_estimates(backend, [[1.0, -0.5]])[0]
        b = fresh_estimates(backend, [[0.0, 0.5]])[0]
        return [fresh_estimates(backend, [[0.25, 0.75]])[0], average_estimates(backend, [a], [b])[0]]

    def test_request_frame_carries_every_estimate(self, plain_backend):
        estimates = self.estimates(plain_backend)
        request = deserialize(build_decrypt_request(plain_backend, estimates))
        assert isinstance(request, DecryptRequest)
        assert list(request.estimates) == estimates
        assert request.ciphertext_bytes == wire_ciphertext_bytes(plain_backend)

    def test_serve_decode_and_finalize(self, dj_backend):
        estimates = self.estimates(dj_backend)
        request = deserialize(build_decrypt_request(dj_backend, estimates))
        per_helper = [
            decode_decrypt_response(serve_decrypt_request(dj_backend, helper, request), 2)
            for helper in (1, 3)
        ]
        assert [partial.share_index for partial in per_helper[0]] == [2, 2]
        assert [partial.share_index for partial in per_helper[1]] == [4, 4]
        values = finalize_decryption(dj_backend, per_helper, estimates)
        np.testing.assert_allclose(values[0], [0.25, 0.75], atol=1e-3)
        np.testing.assert_allclose(values[1], [0.5, 0.0], atol=1e-3)  # halving undone

    def test_serve_refuses_a_node_without_a_share(self, plain_backend):
        request = deserialize(build_decrypt_request(plain_backend, self.estimates(plain_backend)))
        with pytest.raises(ThresholdError):
            serve_decrypt_request(plain_backend, plain_backend.n_shares, request)

    def test_missing_mistyped_or_miscounted_responses_are_losses(self, plain_backend):
        estimates = self.estimates(plain_backend)
        request = deserialize(build_decrypt_request(plain_backend, estimates))
        response = deserialize(serve_decrypt_request(plain_backend, 0, request))
        assert response_partials(response, 2) == response.partials
        assert response_partials(response, 1) is None
        assert response_partials(None, 2) is None
        assert response_partials(request, 2) is None

    def test_corrupted_response_frame_is_a_loss(self, plain_backend):
        estimates = self.estimates(plain_backend)
        request = deserialize(build_decrypt_request(plain_backend, estimates))
        frame = bytearray(bytes(serve_decrypt_request(plain_backend, 0, request)))
        frame[len(frame) // 2] ^= 0x10
        assert decode_decrypt_response(bytes(frame), 2) is None

    def test_finalize_needs_threshold_usable_helpers(self, plain_backend):
        estimates = self.estimates(plain_backend)
        request = deserialize(build_decrypt_request(plain_backend, estimates))
        served = decode_decrypt_response(serve_decrypt_request(plain_backend, 0, request), 2)
        with pytest.raises(ThresholdError):
            finalize_decryption(plain_backend, [served, None], estimates)
