"""Clustering substrate: k-means, quality metrics and smoothing heuristics."""

from .kmeans import (
    KMeansResult,
    assign_to_centroids,
    best_of_kmeans,
    centroid_displacement,
    compute_inertia,
    compute_means,
    initialize_centroids,
    kmeans,
    public_initial_centroids,
)
from .metrics import (
    adjusted_rand_index,
    centroid_matching_error,
    contingency_table,
    match_centroids,
    quality_report,
)
from .smoothing import smooth_centroids, smooth_series

__all__ = [
    "KMeansResult",
    "kmeans",
    "best_of_kmeans",
    "initialize_centroids",
    "public_initial_centroids",
    "assign_to_centroids",
    "compute_means",
    "centroid_displacement",
    "compute_inertia",
    "adjusted_rand_index",
    "centroid_matching_error",
    "contingency_table",
    "match_centroids",
    "quality_report",
    "smooth_centroids",
    "smooth_series",
]
