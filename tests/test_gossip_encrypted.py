"""Tests of the encrypted gossip averaging primitive."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import CryptoError, GossipError
from repro.gossip import (
    EncryptedEstimate,
    add_estimates,
    average_estimates,
    check_headroom,
    estimates_payload_bytes,
    fresh_estimates,
    required_headroom_bits,
    rerandomize_estimates,
)
from repro.simulation import average_pairs_inplace, pair_online
import oracles


class TestEstimateAlgebra:
    def test_fresh_estimate_round_trip(self, plain_backend):
        values = np.array([0.5, -0.25, 1.0])
        estimate = fresh_estimates(plain_backend, [values])[0]
        assert estimate.halvings == 0
        decoded = oracles.decode_estimate(plain_backend, estimate, [1, 2])
        assert np.allclose(decoded, values, atol=1e-5)

    def test_average_of_two_estimates(self, plain_backend):
        a = fresh_estimates(plain_backend, [[1.0, 0.0]])[0]
        b = fresh_estimates(plain_backend, [[0.0, 1.0]])[0]
        averaged = average_estimates(plain_backend, [a], [b])[0]
        assert averaged.halvings == 1
        assert np.allclose(oracles.decode_estimate(plain_backend, averaged, [1, 2]), [0.5, 0.5],
                           atol=1e-5)

    def test_average_with_mismatched_exponents(self, plain_backend):
        a = fresh_estimates(plain_backend, [[1.0]])[0]
        b = fresh_estimates(plain_backend, [[0.0]])[0]
        once = average_estimates(plain_backend, [a], [b])[0]          # 0.5 at exponent 1
        again = average_estimates(plain_backend, [once], [a])[0]      # (0.5 + 1)/2 = 0.75
        assert np.allclose(oracles.decode_estimate(plain_backend, again, [1, 2]), [0.75], atol=1e-5)

    def test_repeated_averaging_matches_cleartext(self, plain_backend, fresh_rng):
        values = fresh_rng.uniform(-1, 1, size=(4, 3))
        estimates = fresh_estimates(plain_backend, values)
        clear = [row.copy() for row in values]
        pairs = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3)]
        for i, j in pairs:
            merged = average_estimates(plain_backend, [estimates[i]], [estimates[j]])[0]
            estimates[i] = merged
            estimates[j] = merged
            mean = (clear[i] + clear[j]) / 2
            clear[i] = mean.copy()
            clear[j] = mean.copy()
        for estimate, expected in zip(estimates, clear):
            assert np.allclose(oracles.decode_estimate(plain_backend, estimate, [1, 2]), expected,
                               atol=1e-4)

    def test_add_estimates_no_halving(self, plain_backend):
        a = fresh_estimates(plain_backend, [[1.0, 2.0]])[0]
        b = fresh_estimates(plain_backend, [[0.5, -1.0]])[0]
        total = add_estimates(plain_backend, [a], [b])[0]
        assert total.halvings == 0
        assert np.allclose(oracles.decode_estimate(plain_backend, total, [1, 2]), [1.5, 1.0], atol=1e-5)

    def test_add_estimates_with_exponents(self, plain_backend):
        a = fresh_estimates(plain_backend, [[1.0]])[0]
        b = fresh_estimates(plain_backend, [[1.0]])[0]
        half = average_estimates(plain_backend, [a], [b])[0]  # value 1.0, exponent 1
        total = add_estimates(plain_backend, [half], [a])[0]  # 1.0 + 1.0
        assert np.allclose(oracles.decode_estimate(plain_backend, total, [1, 2]), [2.0], atol=1e-5)

    def test_length_mismatch_rejected(self, plain_backend):
        with pytest.raises(GossipError):
            average_estimates(
                plain_backend,
                fresh_estimates(plain_backend, [[1.0]]),
                fresh_estimates(plain_backend, [[1.0, 2.0]]),
            )

    def test_payload_bytes_positive(self, plain_backend):
        estimate = fresh_estimates(plain_backend, [[1.0, 2.0, 3.0]])[0]
        assert estimates_payload_bytes(plain_backend, [estimate]) > 0

    def test_payload_bytes_charge_the_wire_width(self):
        """A ciphertext space that is not a whole number of bytes is charged
        the width the wire writes (rounded up), not one byte less."""
        from repro.crypto.backends import PlainBackend
        from repro.crypto.wire import wire_ciphertext_bytes

        backend = PlainBackend(threshold=2, n_shares=4, simulated_ciphertext_bits=4092)
        estimate = fresh_estimates(backend, [[1.0, 2.0, 3.0]])[0]
        assert wire_ciphertext_bytes(backend) == 512
        assert estimates_payload_bytes(backend, [estimate]) == (
            512 * estimate.vector.n_ciphertexts + 8
        )


class TestSequenceCallsEqualTheirLoops:
    """Each sequence call equals the loop of one-estimate calls it replaces:
    payloads, weights and exponents, every counter, and on Damgård–Jurik the
    blinder draws in the same order (see the ``replay`` fixture)."""

    ROWS = np.random.default_rng(5).uniform(-1.0, 1.0, size=(8, 9))

    def estimates(self, backend):
        """Eight estimates at exponents 0–3 and weights that differ."""
        fresh = fresh_estimates(backend, self.ROWS)
        once = average_estimates(backend, fresh[:4], fresh[4:])
        twice = average_estimates(backend, once[:2], once[2:])
        return [fresh[0], once[1], twice[0], fresh[3], twice[1], once[3],
                average_estimates(backend, twice[:1], once[:1])[0], fresh[7]]

    @staticmethod
    def same(backend, replay, batched, looped):
        draws = replay(backend, 13)
        together = batched()
        counts, drawn = backend.counter.as_dict(), list(draws)
        draws = replay(backend, 13)
        one_by_one = looped()
        assert [(e.vector, e.halvings) for e in one_by_one] \
            == [(e.vector, e.halvings) for e in together]
        assert backend.counter.as_dict() == counts
        assert draws == drawn
        return together

    def test_fresh_estimates(self, layout_backend, replay):
        backend = layout_backend
        estimates = self.same(
            backend, replay,
            lambda: fresh_estimates(backend, self.ROWS),
            lambda: [fresh_estimates(backend, [row])[0] for row in self.ROWS],
        )
        assert {estimate.halvings for estimate in estimates} == {0}

    @pytest.mark.parametrize("operation", [average_estimates, add_estimates])
    def test_pairwise_sums(self, layout_backend, replay, operation):
        backend = layout_backend
        firsts = self.estimates(backend)
        seconds = firsts[3:] + firsts[:3]
        summed = self.same(
            backend, replay,
            lambda: operation(backend, firsts, seconds),
            lambda: [operation(backend, [first], [second])[0]
                     for first, second in zip(firsts, seconds)],
        )
        step = operation is average_estimates
        assert [estimate.halvings for estimate in summed] == [
            max(first.halvings, second.halvings) + step
            for first, second in zip(firsts, seconds)]

    def test_rerandomize_estimates(self, layout_backend, replay):
        backend = layout_backend
        estimates = self.estimates(backend)
        self.same(
            backend, replay,
            lambda: rerandomize_estimates(backend, estimates),
            lambda: [rerandomize_estimates(backend, [estimate])[0]
                     for estimate in estimates],
        )

    def test_the_first_failing_pair_is_the_one_raised(self, plain_backend):
        """A foreign vector (the backend's ``CryptoError``) and a length
        mismatch (``GossipError``) raise in pair order, as the one-pair loop
        does; the pairs before the failing one are combined and counted."""
        short, other = fresh_estimates(plain_backend, [[1.0, 2.0], [3.0, 4.0]])
        [long_] = fresh_estimates(plain_backend, [[1.0, 2.0, 3.0]])
        foreign = EncryptedEstimate(replace(short.vector, backend_name="damgard_jurik"))
        for pairs, error in [([(other, other), (foreign, short), (short, long_)], CryptoError),
                             ([(other, other), (short, long_), (foreign, short)], GossipError)]:
            firsts, seconds = zip(*pairs)
            before = plain_backend.counter.additions
            with pytest.raises(error):
                average_estimates(plain_backend, firsts, seconds)
            with pytest.raises(error):
                for first, second in pairs:
                    average_estimates(plain_backend, [first], [second])
            assert plain_backend.counter.additions - before == 2 * other.vector.n_ciphertexts

    def test_sequences_of_different_lengths_are_refused(self, plain_backend):
        estimates = fresh_estimates(plain_backend, [[1.0], [2.0]])
        with pytest.raises(GossipError, match="cannot pair 2 estimates with 1"):
            average_estimates(plain_backend, estimates, estimates[:1])


class TestHeadroom:
    def test_required_bits_grow_with_halvings(self):
        assert required_headroom_bits(1.0, 10**6, 40) > required_headroom_bits(1.0, 10**6, 10)

    def test_check_headroom_passes_for_large_modulus(self, plain_backend):
        check_headroom(plain_backend, value_bound=1.0, total_halvings=50)

    def test_check_headroom_fails_for_small_key(self):
        from repro.crypto.backends import PlainBackend

        tiny = PlainBackend(threshold=2, n_shares=4, encoding_scale=10**6, modulus_bits=40)
        with pytest.raises(GossipError):
            check_headroom(tiny, value_bound=1.0, total_halvings=30)

    def test_invalid_arguments(self):
        with pytest.raises(GossipError):
            required_headroom_bits(0.0, 10**6, 5)


def _matched_rounds(n_nodes, rounds, seed):
    """The pairs of *rounds* uniform matchings, as the slab kernels draw them."""
    rng = np.random.default_rng(seed)
    online = np.ones(n_nodes, dtype=bool)
    return [pair_online(online, rng) for _ in range(rounds)]


class TestEncryptedRoundsMatchTheSlabKernel:
    """Rounds of pairwise encrypted averages decrypt to what the vectorised
    kernel computes on the same matchings: the protocol's averaging and its
    slab twin are one rule."""

    def _check(self, backend, values, rounds, seed, atol):
        estimates = fresh_estimates(backend, values)
        clear = values.copy()
        for pairs in _matched_rounds(len(values), rounds, seed):
            for left, right in pairs:
                merged = average_estimates(backend, [estimates[left]], [estimates[right]])[0]
                estimates[left] = estimates[right] = merged
            average_pairs_inplace(clear, pairs)
        decoded = np.vstack([oracles.decode_estimate(backend, e, [1, 2]) for e in estimates])
        assert np.allclose(decoded, clear, atol=atol)
        return clear

    def test_plain_backend(self, plain_backend, fresh_rng):
        values = fresh_rng.uniform(0, 1, size=(20, 4))
        clear = self._check(plain_backend, values, rounds=15, seed=2, atol=1e-5)
        # Fifteen rounds bring every node within 5e-3 of the mean.
        mean = values.mean(axis=0)
        assert np.abs(clear - mean).max() < 5e-3 * np.linalg.norm(mean)

    def test_real_crypto_backend(self, dj_backend, fresh_rng):
        values = fresh_rng.uniform(0, 1, size=(6, 3))
        self._check(dj_backend, values, rounds=6, seed=3, atol=1e-3)
