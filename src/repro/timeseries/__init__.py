"""Time-series substrate: value objects, distances and preprocessing."""

from .collection import MatrixBackedCollection, TimeSeriesCollection
from .distance import (
    chebyshev_distance,
    dtw_distance,
    euclidean_distance,
    get_distance,
    manhattan_distance,
    pairwise_distances,
    squared_euclidean_distance,
)
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
    "chebyshev_distance",
    "dtw_distance",
    "euclidean_distance",
    "get_distance",
    "manhattan_distance",
    "pairwise_distances",
    "squared_euclidean_distance",
    "exponential_smoothing",
    "lowpass_filter",
    "moving_average",
    "sliding_windows",
]
