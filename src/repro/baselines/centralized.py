"""Centralised (non-private) k-means baseline.

This is the "naive approach" the paper's introduction warns against: copy
every personal time-series to one server and cluster there.  It provides the
quality reference of claim C2 — Chiaroscuro aims at a quality "similar to the
quality of centralized clustering results" — and the upper bound every
experiment normalises against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering.kmeans import KMeansResult, best_of_kmeans, kmeans
from ..config import KMeansConfig
from ..timeseries import TimeSeriesCollection


@dataclass(frozen=True)
class CentralizedResult:
    """Result of the centralised baseline on a collection."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iterations: int
    converged: bool

    @classmethod
    def from_kmeans(cls, result: KMeansResult) -> "CentralizedResult":
        """Wrap a raw :class:`KMeansResult`."""
        return cls(
            centroids=result.centroids,
            assignments=result.assignments,
            inertia=result.inertia,
            n_iterations=result.n_iterations,
            converged=result.converged,
        )


def centralized_kmeans(
    collection: TimeSeriesCollection,
    config: KMeansConfig | None = None,
    seed: int = 0,
    n_restarts: int = 1,
) -> CentralizedResult:
    """Cluster a collection with centralised Lloyd k-means.

    Parameters
    ----------
    collection:
        The (hypothetically centralised) time-series.
    config:
        k-means parameters; the library defaults are used when omitted.
    seed:
        Seed of the initialisation.
    n_restarts:
        Number of restarts (best inertia wins); 1 reproduces a single run.
    """
    config = config if config is not None else KMeansConfig()
    data = collection.to_matrix()
    if n_restarts > 1:
        result = best_of_kmeans(
            data,
            config.n_clusters,
            n_restarts=n_restarts,
            max_iterations=config.max_iterations,
            convergence_threshold=config.convergence_threshold,
            init="kmeans++",
            seed=seed,
        )
    else:
        result = kmeans(
            data,
            config.n_clusters,
            max_iterations=config.max_iterations,
            convergence_threshold=config.convergence_threshold,
            init="kmeans++",
            seed=seed,
        )
    return CentralizedResult.from_kmeans(result)
