"""Centroid-smoothing heuristics (quality-enhancing heuristic #2).

Chiaroscuro improves "the quality of each centroid by smoothing the perturbed
means" (Section II.B).  The rationale: centroids of personal time-series are
smooth (daily load curves, tumor-growth trajectories) while the Laplace
perturbation is independent per point — white noise spread across all
frequencies — so a mild low-pass operation removes much of the noise while
barely distorting the underlying profile.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_float_array
from ..config import SmoothingConfig
from ..exceptions import ValidationError
from ..timeseries.preprocessing import exponential_smoothing, lowpass_filter, moving_average

#: Width of the centred moving average (``method="moving_average"``).
MOVING_AVERAGE_WINDOW = 3

#: Smoothing factor of the exponential smoother (``method="exponential"``).
EXPONENTIAL_ALPHA = 0.5


def smooth_series(values: np.ndarray, config: SmoothingConfig) -> np.ndarray:
    """Apply the configured smoothing heuristic to one series."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValidationError(f"smooth_series expects a 1-D array, got shape {values.shape}")
    if config.method == "none":
        return values.copy()
    if config.method == "moving_average":
        return moving_average(values, MOVING_AVERAGE_WINDOW)
    if config.method == "lowpass":
        return lowpass_filter(values, config.lowpass_cutoff)
    if config.method == "exponential":
        return exponential_smoothing(values, EXPONENTIAL_ALPHA)
    raise ValidationError(f"unknown smoothing method {config.method!r}")


def smooth_centroids(centroids: np.ndarray, config: SmoothingConfig) -> np.ndarray:
    """Apply the smoothing heuristic independently to every centroid."""
    centroids = as_2d_float_array(centroids, "centroids")
    if config.method == "none":
        return centroids.copy()
    return np.vstack([smooth_series(row, config) for row in centroids])
