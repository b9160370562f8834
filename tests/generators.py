"""Degenerate datasets whose right answer is known, for tests.

No program clusters these; a test uses them because the exact result of a
correct run on them is known in advance.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_positive_int
from repro.exceptions import DatasetError
from repro.timeseries import TimeSeries, TimeSeriesCollection


def generate_constant_series(
    n_series: int, series_length: int, value: float = 1.0, name: str = "constant",
) -> TimeSeriesCollection:
    """A degenerate dataset where every series is the same constant.

    Useful in tests: any correct averaging protocol must return exactly the
    constant, so deviations isolate the effect of noise or approximation.
    """
    check_positive_int(n_series, "n_series")
    check_positive_int(series_length, "series_length")
    series = [
        TimeSeries(
            np.full(series_length, float(value)),
            series_id=f"constant-{index:05d}",
            metadata={"cluster": 0},
        )
        for index in range(n_series)
    ]
    return TimeSeriesCollection(series, name=name)


def generate_two_level_series(
    n_series: int,
    series_length: int,
    low: float = 0.0,
    high: float = 1.0,
    seed: int = 0,
) -> TimeSeriesCollection:
    """Two perfectly separated constant-valued clusters (low and high).

    The exact optimal 2-means solution is known (the two constants), so this
    dataset is used by tests that need to check convergence to the optimum.
    """
    check_positive_int(n_series, "n_series")
    check_positive_int(series_length, "series_length")
    if n_series < 2:
        raise DatasetError("need at least two series for two clusters")
    if low >= high:
        raise DatasetError(f"low ({low}) must be smaller than high ({high})")
    rng = np.random.default_rng(seed)
    labels = np.array([index % 2 for index in range(n_series)])
    rng.shuffle(labels)
    series = [
        TimeSeries(
            np.full(series_length, high if label else low),
            series_id=f"twolevel-{index:05d}",
            metadata={"cluster": int(label)},
        )
        for index, label in enumerate(labels)
    ]
    return TimeSeriesCollection(series, name="two-level")
