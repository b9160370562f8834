"""Tests of the centroid-smoothing heuristics (quality-enhancing heuristic #2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import smooth_centroids, smooth_series
from repro.clustering.smoothing import EXPONENTIAL_ALPHA, MOVING_AVERAGE_WINDOW
from repro.config import SmoothingConfig
from repro.exceptions import ValidationError
from repro.timeseries.preprocessing import exponential_smoothing, moving_average


@pytest.fixture(scope="module")
def smooth_signal():
    grid = np.linspace(0, 2 * np.pi, 48)
    return np.vstack([np.sin(grid), 0.5 + 0.3 * np.cos(2 * grid)])


class TestSmoothSeries:
    def test_none_is_identity(self, smooth_signal):
        config = SmoothingConfig(method="none")
        assert np.allclose(smooth_series(smooth_signal[0], config), smooth_signal[0])

    @pytest.mark.parametrize("method", ["moving_average", "lowpass", "exponential"])
    def test_output_shape_preserved(self, smooth_signal, method):
        config = SmoothingConfig(method=method)
        assert smooth_series(smooth_signal[0], config).shape == smooth_signal[0].shape

    def test_window_and_alpha_are_the_constants(self, smooth_signal):
        assert (MOVING_AVERAGE_WINDOW, EXPONENTIAL_ALPHA) == (3, 0.5)
        series = smooth_signal[0]
        assert np.array_equal(
            smooth_series(series, SmoothingConfig(method="moving_average")),
            moving_average(series, 3),
        )
        assert np.array_equal(
            smooth_series(series, SmoothingConfig(method="exponential")),
            exponential_smoothing(series, 0.5),
        )

    def test_rejects_2d_input(self, smooth_signal):
        with pytest.raises(ValidationError):
            smooth_series(smooth_signal, SmoothingConfig(method="moving_average"))


class TestSmoothCentroids:
    def test_none_returns_copy(self, smooth_signal):
        config = SmoothingConfig(method="none")
        out = smooth_centroids(smooth_signal, config)
        assert np.allclose(out, smooth_signal)
        out[0, 0] = 99.0
        assert smooth_signal[0, 0] != 99.0

    @pytest.mark.parametrize("method", ["moving_average", "lowpass", "exponential"])
    def test_reduces_additive_noise(self, smooth_signal, method):
        """Smoothing must bring noisy centroids closer to the clean ones."""
        rng = np.random.default_rng(0)
        noisy = smooth_signal + rng.laplace(0, 0.2, size=smooth_signal.shape)
        config = SmoothingConfig(method=method, lowpass_cutoff=0.2)
        smoothed = smooth_centroids(noisy, config)
        error_before = np.linalg.norm(noisy - smooth_signal)
        error_after = np.linalg.norm(smoothed - smooth_signal)
        assert error_after < error_before

    def test_barely_distorts_clean_centroids(self, smooth_signal):
        config = SmoothingConfig(method="moving_average")
        smoothed = smooth_centroids(smooth_signal, config)
        relative_distortion = np.linalg.norm(smoothed - smooth_signal) / np.linalg.norm(
            smooth_signal
        )
        assert relative_distortion < 0.05


class TestNoiseReduction:
    def test_typical_laplace_noise_reduction_is_substantial(self, smooth_signal):
        """The heuristic's reason to exist: white Laplace noise on smooth
        centroids is reduced by a clear margin (demo's noise-impact screen)."""
        rng = np.random.default_rng(1)
        noisy = smooth_signal + rng.laplace(0, 0.3, size=smooth_signal.shape)
        config = SmoothingConfig(method="lowpass", lowpass_cutoff=0.15)
        smoothed = smooth_centroids(noisy, config)
        noisy_error = np.linalg.norm(noisy - smooth_signal)
        smoothed_error = np.linalg.norm(smoothed - smooth_signal)
        assert 1.0 - smoothed_error / noisy_error > 0.4
