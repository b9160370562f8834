"""Distances between time-series.

The Chiaroscuro assignment step compares a participant's series to the
perturbed centroids; the convergence step compares successive centroid sets.
Both use the Euclidean distance (or its square, the quantity k-means
minimises), as in classic k-means on time-series.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_float_array
from ..exceptions import TimeSeriesError, ValidationError


def pairwise_distances(
    rows: np.ndarray, cols: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """Distance matrix between the rows of two 2-D arrays.

    *metric* is ``"euclidean"`` or ``"sqeuclidean"``; any other name raises
    :class:`~repro.exceptions.ValidationError`.
    """
    if metric not in ("euclidean", "sqeuclidean"):
        raise ValidationError(
            f"unknown distance {metric!r}; available: ['euclidean', 'sqeuclidean']"
        )
    rows = as_2d_float_array(rows, "rows")
    cols = as_2d_float_array(cols, "cols")
    if rows.shape[1] != cols.shape[1]:
        raise TimeSeriesError(
            f"row length {rows.shape[1]} differs from column length {cols.shape[1]}"
        )
    # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y, clipped to avoid tiny negatives.
    sq = (
        np.sum(rows**2, axis=1)[:, None]
        + np.sum(cols**2, axis=1)[None, :]
        - 2.0 * rows @ cols.T
    )
    np.maximum(sq, 0.0, out=sq)
    return sq if metric == "sqeuclidean" else np.sqrt(sq)
