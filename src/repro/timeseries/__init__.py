"""Time-series substrate: value objects, distances and preprocessing."""

from .collection import MatrixBackedCollection, TimeSeriesCollection
from .distance import pairwise_distances
from .preprocessing import (
    exponential_smoothing,
    lowpass_filter,
    moving_average,
    sliding_windows,
)
from .series import TimeSeries

__all__ = [
    "MatrixBackedCollection",
    "TimeSeries",
    "TimeSeriesCollection",
    "pairwise_distances",
    "exponential_smoothing",
    "lowpass_filter",
    "moving_average",
    "sliding_windows",
]
