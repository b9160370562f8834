"""Property-based tests (hypothesis) of the core invariants.

These cover the invariants the whole system leans on: exact fixed-point
round-trips, the additive homomorphism of the ciphertexts, mass conservation
of the gossip primitives, the budget-strategy never overspending, and the
metric properties of the distances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering import adjusted_rand_index, centroid_displacement
from repro.crypto import damgard_jurik as dj
from repro.crypto.encoding import FixedPointCodec
from repro.gossip import average_estimates, fresh_estimates
from repro.privacy import NoiseShareSpec, make_budget_strategy
from repro.timeseries import pairwise_distances
import oracles

# One shared small key pair: generating keys inside @given would be far too slow.
DJ_PUBLIC, DJ_PRIVATE = dj.generate_keypair(key_bits=128, s=1)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                          allow_infinity=False)
small_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                         allow_infinity=False)


class TestFixedPointCodec:
    @given(value=finite_floats)
    @settings(max_examples=200)
    def test_round_trip_within_quantisation(self, value):
        codec = FixedPointCodec(modulus=2**80, scale=10**6)
        # Half a quantisation step, plus a few ulps at the value's magnitude:
        # the decode division is correctly rounded but not exact, so the
        # slack must scale with |value| (a flat 1e-12 fails near 2^16 when
        # value*scale lands exactly on a .5 rounding boundary).
        slack = 0.5 / codec.scale + 8 * np.finfo(float).eps * max(1.0, abs(value))
        assert abs(codec.decode_vector(codec.encode_rows([[value]])[0])[0] - value) <= slack

    @given(values=st.lists(small_floats, min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_sum_of_encodings_decodes_to_sum(self, values):
        codec = FixedPointCodec(modulus=2**80, scale=10**6)
        encoded_sum = sum(codec.encode_rows([values])[0]) % codec.modulus
        assert codec.decode_vector([encoded_sum])[0] == pytest.approx(sum(values), abs=1e-4)


class TestHomomorphism:
    @given(a=st.integers(min_value=0, max_value=2**60),
           b=st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=25, deadline=None)
    def test_product_of_ciphertexts_encrypts_sum(self, a, b):
        ca = dj.encrypt(DJ_PUBLIC, a)
        cb = dj.encrypt(DJ_PUBLIC, b)
        total = dj.add_ciphertexts(DJ_PUBLIC, ca, cb)
        assert dj.decrypt(DJ_PRIVATE, total) == (a + b) % DJ_PUBLIC.plaintext_modulus

    @given(a=st.integers(min_value=0, max_value=2**40),
           k=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=25, deadline=None)
    def test_exponentiation_multiplies_plaintext(self, a, k):
        ciphertext = oracles.multiply_plaintext(DJ_PUBLIC, dj.encrypt(DJ_PUBLIC, a), k)
        assert dj.decrypt(DJ_PRIVATE, ciphertext) == (a * k) % DJ_PUBLIC.plaintext_modulus


class TestGossipInvariants:
    @given(values=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                           min_size=2, max_size=6),
           pair_count=st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_pairwise_averaging_conserves_the_mean(self, values, pair_count, plain_backend):
        rng = np.random.default_rng(0)
        estimates = [fresh_estimates(plain_backend, [[v]])[0] for v in values]
        clear = list(values)
        for _ in range(pair_count):
            i, j = rng.choice(len(values), size=2, replace=False)
            merged = average_estimates(plain_backend, [estimates[i]], [estimates[j]])[0]
            estimates[i] = merged
            estimates[j] = merged
            mean = (clear[i] + clear[j]) / 2
            clear[i] = clear[j] = mean
        decoded = [oracles.decode_estimate(plain_backend, e, [1, 2])[0] for e in estimates]
        # Pairwise averaging never changes the global mean (mass conservation).
        assert np.mean(decoded) == pytest.approx(np.mean(values), abs=1e-4)
        # And every node tracks its cleartext twin exactly (up to quantisation).
        assert np.allclose(decoded, clear, atol=1e-4)


class TestPrivacyInvariants:
    @given(total=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
           iterations=st.integers(min_value=1, max_value=30),
           name=st.sampled_from(["uniform", "geometric", "adaptive"]))
    @settings(max_examples=100)
    def test_budget_strategies_never_overspend(self, total, iterations, name):
        strategy = make_budget_strategy(name, total, iterations)
        remaining = total
        spent = 0.0
        for iteration in range(iterations):
            epsilon = strategy.epsilon_for_iteration(iteration, remaining)
            assert epsilon >= 0.0
            assert epsilon <= remaining + 1e-9
            spent += epsilon
            remaining -= epsilon
        assert spent <= total * (1 + 1e-9)

    @given(scale=st.floats(min_value=0.01, max_value=50.0),
           n_shares=st.integers(min_value=1, max_value=64))
    @settings(max_examples=100)
    def test_share_variance_scales_inversely_with_share_count(self, scale, n_shares):
        spec = NoiseShareSpec(scale=scale, n_shares=n_shares, vector_length=1)
        assert oracles.share_variance(spec) * n_shares == pytest.approx(2 * scale**2)


def _cancellation_tolerance(points: np.ndarray) -> float:
    """How far ``pairwise_distances`` may sit from the exact distance.

    It expands ``||x - y||^2`` as ``||x||^2 + ||y||^2 - 2 x.y``, so the
    squared distance carries a rounding error of a few ulps of the squared
    norms, and its square root one of ``sqrt(eps)`` times the norms.
    """
    return 1e-7 * (1.0 + float(np.linalg.norm(points)))


class TestMetricProperties:
    @given(a=st.lists(small_floats, min_size=2, max_size=16),
           b=st.lists(small_floats, min_size=2, max_size=16))
    @settings(max_examples=100)
    def test_distances_are_symmetric_and_non_negative(self, a, b):
        length = min(len(a), len(b))
        x = np.array(a[:length])
        y = np.array(b[:length])
        points = np.vstack([x, y])
        matrix = pairwise_distances(points, points)
        tolerance = _cancellation_tolerance(points)
        assert (matrix >= 0.0).all()
        assert matrix[0, 1] == pytest.approx(matrix[1, 0], abs=tolerance)
        assert matrix[0, 0] == pytest.approx(0.0, abs=tolerance)

    @given(a=st.lists(small_floats, min_size=2, max_size=10),
           b=st.lists(small_floats, min_size=2, max_size=10),
           c=st.lists(small_floats, min_size=2, max_size=10))
    @settings(max_examples=100)
    def test_euclidean_triangle_inequality(self, a, b, c):
        length = min(len(a), len(b), len(c))
        points = np.vstack([np.array(v[:length]) for v in (a, b, c)])
        d = pairwise_distances(points, points)
        assert d[0, 2] <= d[0, 1] + d[1, 2] + _cancellation_tolerance(points)

    @given(labels=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=60))
    @settings(max_examples=100)
    def test_ari_of_identical_labelings_is_one(self, labels):
        array = np.array(labels)
        assert adjusted_rand_index(array, array) == pytest.approx(1.0)

    @given(labels=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=60),
           permutation_seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_ari_invariant_under_label_permutation(self, labels, permutation_seed):
        array = np.array(labels)
        rng = np.random.default_rng(permutation_seed)
        mapping = rng.permutation(5)
        permuted = mapping[array]
        assert adjusted_rand_index(array, permuted) == pytest.approx(1.0)

    @given(matrix=st.lists(st.lists(small_floats, min_size=3, max_size=3),
                           min_size=2, max_size=5))
    @settings(max_examples=100)
    def test_centroid_displacement_identity(self, matrix):
        centroids = np.array(matrix)
        assert centroid_displacement(centroids, centroids) == 0.0
