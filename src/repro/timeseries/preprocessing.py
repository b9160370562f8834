"""Time-series preprocessing utilities.

These helpers operate on plain one-dimensional arrays so they can be used both
on raw series (dataset preparation) and on centroids (the smoothing heuristic
re-uses :func:`moving_average` and :func:`lowpass_filter`).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_1d_float_array, check_positive_int
from ..exceptions import ValidationError


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average with edge padding (output has the same length).

    The window is clipped to the series length.  A window of 1 returns a copy.
    """
    values = as_1d_float_array(values, "values")
    window = check_positive_int(window, "window")
    window = min(window, len(values))
    if window == 1:
        return values.copy()
    pad_left = (window - 1) // 2
    pad_right = window - 1 - pad_left
    padded = np.pad(values, (pad_left, pad_right), mode="edge")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(padded, kernel, mode="valid")


def exponential_smoothing(values: np.ndarray, alpha: float) -> np.ndarray:
    """Simple exponential smoothing: ``s[t] = alpha*x[t] + (1-alpha)*s[t-1]``."""
    values = as_1d_float_array(values, "values")
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must be in (0, 1], got {alpha}")
    smoothed = np.empty_like(values)
    smoothed[0] = values[0]
    for index in range(1, len(values)):
        smoothed[index] = alpha * values[index] + (1.0 - alpha) * smoothed[index - 1]
    return smoothed


def lowpass_filter(values: np.ndarray, cutoff_fraction: float) -> np.ndarray:
    """Keep only the lowest ``cutoff_fraction`` of Fourier frequencies.

    This is the "smoothing of the perturbed means" heuristic: Laplace noise is
    independent per point (white, spread over all frequencies) while centroids
    of smooth personal time-series concentrate their energy in low
    frequencies, so a low-pass filter removes much of the noise while keeping
    the signal.
    """
    values = as_1d_float_array(values, "values")
    if not 0.0 < cutoff_fraction <= 1.0:
        raise ValidationError(f"cutoff_fraction must be in (0, 1], got {cutoff_fraction}")
    spectrum = np.fft.rfft(values)
    keep = max(1, int(round(cutoff_fraction * len(spectrum))))
    spectrum[keep:] = 0.0
    return np.fft.irfft(spectrum, n=len(values))


def sliding_windows(values: np.ndarray, width: int, step: int = 1) -> np.ndarray:
    """Return all windows of ``width`` points taken every ``step`` positions.

    Used by the profile-search analysis to align a query sub-sequence against
    every offset of a profile.
    """
    values = as_1d_float_array(values, "values")
    width = check_positive_int(width, "width")
    step = check_positive_int(step, "step")
    if width > len(values):
        raise ValidationError(f"window width {width} exceeds series length {len(values)}")
    starts = range(0, len(values) - width + 1, step)
    return np.vstack([values[start:start + width] for start in starts])
