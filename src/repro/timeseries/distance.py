"""Distances between time-series.

The Chiaroscuro assignment step compares a participant's series to the
perturbed centroids; the convergence step compares successive centroid sets.
Both rely on a point-wise distance (Euclidean by default, as in classic
k-means on time-series).  Dynamic time warping is provided for analysis
purposes (e.g. profile search on sub-sequences of different phase), not for
the protocol itself.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .._validation import as_1d_float_array, as_2d_float_array
from ..exceptions import TimeSeriesError, ValidationError

DistanceFunction = Callable[[np.ndarray, np.ndarray], float]


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = as_1d_float_array(a, "a")
    b = as_1d_float_array(b, "b")
    if a.shape != b.shape:
        raise TimeSeriesError(f"series lengths differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def euclidean_distance(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """L2 distance between two equal-length series."""
    a, b = _check_pair(np.asarray(a), np.asarray(b))
    return float(np.linalg.norm(a - b))


def squared_euclidean_distance(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray
) -> float:
    """Squared L2 distance (the quantity k-means actually minimises)."""
    a, b = _check_pair(np.asarray(a), np.asarray(b))
    diff = a - b
    return float(np.dot(diff, diff))


def manhattan_distance(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """L1 distance between two equal-length series."""
    a, b = _check_pair(np.asarray(a), np.asarray(b))
    return float(np.sum(np.abs(a - b)))


def chebyshev_distance(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """L-infinity distance between two equal-length series."""
    a, b = _check_pair(np.asarray(a), np.asarray(b))
    return float(np.max(np.abs(a - b)))


def dtw_distance(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    window: int | None = None,
) -> float:
    """Dynamic-time-warping distance with an optional Sakoe–Chiba band.

    Series may have different lengths.  ``window`` restricts the warping path
    to ``|i - j| <= window``; ``None`` means unconstrained.
    """
    a = as_1d_float_array(np.asarray(a), "a")
    b = as_1d_float_array(np.asarray(b), "b")
    n, m = len(a), len(b)
    if window is not None:
        if window < 0:
            raise ValidationError(f"window must be >= 0, got {window}")
        window = max(window, abs(n - m))
    cost = np.full((n + 1, m + 1), np.inf)
    cost[0, 0] = 0.0
    for i in range(1, n + 1):
        if window is None:
            j_lo, j_hi = 1, m
        else:
            j_lo, j_hi = max(1, i - window), min(m, i + window)
        for j in range(j_lo, j_hi + 1):
            step = (a[i - 1] - b[j - 1]) ** 2
            cost[i, j] = step + min(cost[i - 1, j], cost[i, j - 1], cost[i - 1, j - 1])
    return float(np.sqrt(cost[n, m]))


_DISTANCES: dict[str, DistanceFunction] = {
    "euclidean": euclidean_distance,
    "sqeuclidean": squared_euclidean_distance,
    "manhattan": manhattan_distance,
    "chebyshev": chebyshev_distance,
    "dtw": dtw_distance,
}


def get_distance(name: str) -> DistanceFunction:
    """Return the distance function registered under *name*."""
    try:
        return _DISTANCES[name]
    except KeyError as exc:
        raise ValidationError(
            f"unknown distance {name!r}; available: {sorted(_DISTANCES)}"
        ) from exc


def pairwise_distances(
    rows: np.ndarray, cols: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """Distance matrix between the rows of two 2-D arrays.

    Vectorised for the Euclidean / squared-Euclidean / Manhattan cases, which
    are the ones used in the protocol hot path; other metrics fall back to a
    double loop.
    """
    rows = as_2d_float_array(rows, "rows")
    cols = as_2d_float_array(cols, "cols")
    if rows.shape[1] != cols.shape[1]:
        raise TimeSeriesError(
            f"row length {rows.shape[1]} differs from column length {cols.shape[1]}"
        )
    if metric in ("euclidean", "sqeuclidean"):
        # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y, clipped to avoid tiny negatives.
        sq = (
            np.sum(rows**2, axis=1)[:, None]
            + np.sum(cols**2, axis=1)[None, :]
            - 2.0 * rows @ cols.T
        )
        np.maximum(sq, 0.0, out=sq)
        return sq if metric == "sqeuclidean" else np.sqrt(sq)
    if metric == "manhattan":
        return np.sum(np.abs(rows[:, None, :] - cols[None, :, :]), axis=2)
    distance = get_distance(metric)
    out = np.empty((rows.shape[0], cols.shape[0]), dtype=float)
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            out[i, j] = distance(row, col)
    return out
