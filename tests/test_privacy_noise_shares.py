"""Tests of the distributed noise-share construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PrivacyError, ValidationError
from repro.privacy import (
    NoiseShareSpec,
    draw_noise_share,
)
from repro.privacy.noise_shares import slot_magnitude_bound
import oracles


class TestSpec:
    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValidationError):
            NoiseShareSpec(scale=0.0, n_shares=4, vector_length=3)
        with pytest.raises(ValidationError):
            NoiseShareSpec(scale=1.0, n_shares=0, vector_length=3)
        with pytest.raises(ValidationError):
            NoiseShareSpec(scale=1.0, n_shares=4, vector_length=0)

    def test_variance_formulas(self):
        spec = NoiseShareSpec(scale=2.0, n_shares=8, vector_length=1)
        assert oracles.share_variance(spec) == pytest.approx(2 * 4.0 / 8)
        assert oracles.reconstructed_variance(spec) == pytest.approx(8.0)


class TestDistribution:
    def test_single_share_shape_and_zero_mean(self, fresh_rng):
        spec = NoiseShareSpec(scale=1.0, n_shares=16, vector_length=5)
        share = draw_noise_share(spec, fresh_rng)
        assert share.shape == (5,)

    def test_share_variance_matches_theory(self):
        spec = NoiseShareSpec(scale=1.5, n_shares=10, vector_length=20_000)
        rng = np.random.default_rng(0)
        share = draw_noise_share(spec, rng)
        assert np.var(share) == pytest.approx(oracles.share_variance(spec), rel=0.1)

    def test_sum_of_shares_is_laplace(self):
        """The n-share sum must match Laplace(0, b): same variance, same tails."""
        scale = 2.0
        spec = NoiseShareSpec(scale=scale, n_shares=12, vector_length=20_000)
        rng = np.random.default_rng(1)
        total = oracles.sum_of_shares(spec, rng)
        assert np.mean(total) == pytest.approx(0.0, abs=0.1)
        assert np.var(total) == pytest.approx(2 * scale**2, rel=0.1)
        # Laplace kurtosis is 3 (excess), well above the Gaussian 0: check the
        # heavy tails really survive the share decomposition.
        centred = total - total.mean()
        excess_kurtosis = np.mean(centred**4) / np.var(centred) ** 2 - 3.0
        assert excess_kurtosis > 1.0

    def test_sum_with_one_share_is_plain_laplace_difference(self):
        spec = NoiseShareSpec(scale=1.0, n_shares=1, vector_length=10_000)
        total = oracles.sum_of_shares(spec, np.random.default_rng(2))
        assert np.var(total) == pytest.approx(2.0, rel=0.15)

    def test_shares_from_different_draws_are_independent(self, fresh_rng):
        spec = NoiseShareSpec(scale=1.0, n_shares=4, vector_length=5_000)
        a = draw_noise_share(spec, fresh_rng)
        b = draw_noise_share(spec, fresh_rng)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_sum_of_shares_has_laplace_tails(self):
        """P(|X| > t) = exp(-t / b) for Laplace(0, b), at one, two and four scales."""
        scale = 1.5
        spec = NoiseShareSpec(scale=scale, n_shares=8, vector_length=40_000)
        total = oracles.sum_of_shares(spec, np.random.default_rng(4))
        for multiple in (1.0, 2.0, 4.0):
            observed = np.mean(np.abs(total) > multiple * scale)
            assert observed == pytest.approx(np.exp(-multiple), rel=0.1)

    def test_sum_of_shares_has_laplace_mean_absolute_value(self):
        """E|X| = b for Laplace(0, b)."""
        spec = NoiseShareSpec(scale=0.7, n_shares=5, vector_length=40_000)
        total = oracles.sum_of_shares(spec, np.random.default_rng(5))
        assert np.mean(np.abs(total)) == pytest.approx(0.7, rel=0.05)


class TestSlotMagnitudeBound:
    def test_default_margin_is_32_scales(self):
        assert slot_magnitude_bound(0.5) == 16.0
        assert slot_magnitude_bound(0.0) == 0.0

    def test_custom_margin(self):
        assert slot_magnitude_bound(2.0, margin=5.0) == 10.0

    def test_rejects_negative_scale_and_non_positive_margin(self):
        with pytest.raises(PrivacyError):
            slot_magnitude_bound(-1.0)
        with pytest.raises(PrivacyError):
            slot_magnitude_bound(1.0, margin=0.0)

    @pytest.mark.parametrize("n_shares", [1, 4, 16])
    def test_exceedance_is_below_twice_exp_minus_margin(self, n_shares):
        """|G1 - G2| > m·b needs G1 > m·b or G2 > m·b, each at most exp(-m)
        likely for a Gamma of shape 1/n <= 1."""
        spec = NoiseShareSpec(scale=1.0, n_shares=n_shares, vector_length=50_000)
        share = draw_noise_share(spec, np.random.default_rng(n_shares))
        margin = 3.0
        exceed = np.mean(np.abs(share) > slot_magnitude_bound(spec.scale, margin))
        assert exceed <= 2.0 * np.exp(-margin) * 1.1

    def test_no_share_reaches_the_default_bound(self):
        spec = NoiseShareSpec(scale=2.0, n_shares=1, vector_length=100_000)
        share = draw_noise_share(spec, np.random.default_rng(6))
        assert np.max(np.abs(share)) < slot_magnitude_bound(spec.scale)
