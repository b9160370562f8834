"""Tests of the preprocessing helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.timeseries import (
    exponential_smoothing,
    lowpass_filter,
    moving_average,
    sliding_windows,
)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        values = np.array([1.0, 5.0, 3.0])
        assert np.allclose(moving_average(values, 1), values)

    def test_constant_series_unchanged(self):
        values = np.full(10, 2.5)
        assert np.allclose(moving_average(values, 5), values)

    def test_length_preserved(self):
        values = np.arange(10, dtype=float)
        assert moving_average(values, 3).shape == values.shape

    def test_window_clipped_to_length(self):
        values = np.array([1.0, 2.0])
        out = moving_average(values, 10)
        assert out.shape == values.shape

    def test_reduces_variance_of_noise(self, rng):
        noise = rng.normal(size=200)
        smoothed = moving_average(noise, 7)
        assert smoothed.std() < noise.std()


class TestExponentialSmoothing:
    def test_alpha_one_is_identity(self):
        values = np.array([1.0, 4.0, 2.0])
        assert np.allclose(exponential_smoothing(values, 1.0), values)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            exponential_smoothing(np.ones(3), 0.0)

    def test_first_value_preserved(self):
        out = exponential_smoothing(np.array([5.0, 0.0, 0.0]), 0.5)
        assert out[0] == 5.0
        assert np.all(np.diff(out) <= 0)


class TestLowpass:
    def test_full_cutoff_is_identity(self):
        values = np.sin(np.linspace(0, 4 * np.pi, 32))
        assert np.allclose(lowpass_filter(values, 1.0), values, atol=1e-10)

    def test_removes_high_frequency(self):
        grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        low = np.sin(grid)
        high = 0.5 * np.sin(20 * grid)
        filtered = lowpass_filter(low + high, 0.1)
        assert np.linalg.norm(filtered - low) < np.linalg.norm(high)

    def test_rejects_zero_cutoff(self):
        with pytest.raises(ValidationError):
            lowpass_filter(np.ones(8), 0.0)

    def test_length_preserved_odd(self):
        values = np.arange(9, dtype=float)
        assert lowpass_filter(values, 0.5).shape == values.shape


class TestSlidingWindows:
    def test_window_count(self):
        windows = sliding_windows(np.arange(10, dtype=float), width=4, step=2)
        assert windows.shape == (4, 4)

    def test_window_contents(self):
        windows = sliding_windows(np.arange(5, dtype=float), width=2)
        assert np.allclose(windows[0], [0, 1])
        assert np.allclose(windows[-1], [3, 4])

    def test_width_too_large(self):
        with pytest.raises(ValidationError):
            sliding_windows(np.ones(3), width=5)
