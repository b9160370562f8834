"""Tests of the Laplace mechanism and the sensitivity model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.privacy import (
    SensitivityModel,
    sample_laplace,
)


class TestSensitivityModel:
    def test_total_sensitivity(self):
        model = SensitivityModel(series_length=48, value_bound=1.0)
        assert model.sum_sensitivity == 48.0
        assert model.count_sensitivity == 1.0
        assert model.total_sensitivity == 49.0

    def test_laplace_scale(self):
        model = SensitivityModel(series_length=10, value_bound=2.0)
        assert model.laplace_scale(epsilon=2.0) == pytest.approx((20.0 + 1.0) / 2.0)

    def test_scale_decreases_with_epsilon(self):
        model = SensitivityModel(series_length=10)
        assert model.laplace_scale(2.0) < model.laplace_scale(0.5)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValidationError):
            SensitivityModel(series_length=0)
        with pytest.raises(ValidationError):
            SensitivityModel(series_length=5, value_bound=-1.0)
        with pytest.raises(ValidationError):
            SensitivityModel(series_length=5).laplace_scale(0.0)


class TestLaplaceSampling:
    def test_shape(self, fresh_rng):
        assert sample_laplace(1.0, (3, 4), fresh_rng).shape == (3, 4)

    def test_empirical_scale(self, fresh_rng):
        samples = sample_laplace(2.0, 20_000, fresh_rng)
        # Var(Laplace(b)) = 2 b^2.
        assert np.var(samples) == pytest.approx(8.0, rel=0.1)
        assert np.mean(samples) == pytest.approx(0.0, abs=0.1)

    def test_rejects_bad_scale(self, fresh_rng):
        with pytest.raises(ValidationError):
            sample_laplace(0.0, 3, fresh_rng)

    def test_tail_probability_empirically(self, fresh_rng):
        """P(|X| > t) = exp(-t / b) for Laplace(0, b)."""
        samples = sample_laplace(0.5, 40_000, fresh_rng)
        for magnitude in (0.5, 1.0, 2.0):
            observed = np.mean(np.abs(samples) > magnitude)
            assert observed == pytest.approx(np.exp(-magnitude / 0.5), rel=0.1)

    def test_expected_absolute_noise_is_the_scale(self, fresh_rng):
        samples = sample_laplace(3.0, 40_000, fresh_rng)
        assert np.mean(np.abs(samples)) == pytest.approx(3.0, rel=0.05)

    def test_noise_at_the_iteration_scale_shrinks_with_epsilon(self, fresh_rng):
        model = SensitivityModel(series_length=10)
        loud = sample_laplace(model.laplace_scale(0.5), 20_000, fresh_rng)
        quiet = sample_laplace(model.laplace_scale(2.0), 20_000, fresh_rng)
        # E|X| = b, and b is four times larger at a quarter of the budget.
        assert np.mean(np.abs(loud)) / np.mean(np.abs(quiet)) == pytest.approx(4.0, rel=0.1)
