"""Centralised differentially-private k-means baseline (SuLQ style).

A trusted curator holds every series and runs k-means, but only touches the
data through noisy queries: at every iteration the per-cluster sums and
counts are perturbed with the Laplace mechanism before the means are formed.
This is the classic SuLQ/DPLloyd construction; it gives the *quality floor a
trusted-curator design can reach at the same ε*, which is exactly the
comparison point the Chiaroscuro evaluation needs: Chiaroscuro removes the
trusted curator while aiming at a similar privacy/quality trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_positive_float
from ..clustering.kmeans import (
    assign_to_centroids,
    centroid_displacement,
    compute_inertia,
    public_initial_centroids,
    reseed_centroid,
)
from ..clustering.smoothing import smooth_centroids
from ..config import KMeansConfig, PrivacyConfig, SmoothingConfig
from ..privacy.budget import PrivacyAccountant
from ..privacy.laplace import SensitivityModel, sample_laplace
from ..privacy.strategies import make_budget_strategy
from ..timeseries import TimeSeriesCollection


@dataclass(frozen=True)
class CentralizedDPResult:
    """Result of the centralised DP baseline."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iterations: int
    converged: bool
    epsilon_spent: float
    per_iteration_epsilon: list[float] = field(default_factory=list)


def centralized_dp_kmeans(
    collection: TimeSeriesCollection,
    kmeans_config: KMeansConfig | None = None,
    privacy_config: PrivacyConfig | None = None,
    smoothing_config: SmoothingConfig | None = None,
    seed: int = 0,
) -> CentralizedDPResult:
    """Run the SuLQ-style DP k-means with the same knobs as Chiaroscuro.

    The privacy budget is distributed across iterations with the configured
    budget strategy and the optional centroid smoothing is applied, so that
    head-to-head comparisons against Chiaroscuro isolate the effect of the
    *distribution* (gossip + threshold encryption) rather than of different
    DP machinery.
    """
    kmeans_config = kmeans_config if kmeans_config is not None else KMeansConfig()
    privacy_config = privacy_config if privacy_config is not None else PrivacyConfig()
    smoothing_config = (
        smoothing_config if smoothing_config is not None else SmoothingConfig(method="none")
    )
    data = collection.to_matrix()
    rng = np.random.default_rng(seed)
    value_bound = check_positive_float(privacy_config.value_bound, "value_bound")
    clipped = np.clip(data, -value_bound, value_bound)
    n_series, series_length = clipped.shape

    sensitivity = SensitivityModel(
        series_length=series_length, value_bound=privacy_config.value_bound
    )
    accountant = PrivacyAccountant(privacy_config.epsilon, privacy_config.delta_slack)
    strategy = make_budget_strategy(
        privacy_config.budget_strategy, privacy_config.epsilon, kmeans_config.max_iterations
    )

    centroids = public_initial_centroids(
        kmeans_config.n_clusters,
        series_length,
        value_low=float(clipped.min()),
        value_high=float(clipped.max()),
        seed=seed,
    )
    per_iteration_epsilon: list[float] = []
    converged = False
    iteration = 0
    previous_displacement: float | None = None
    for iteration in range(1, kmeans_config.max_iterations + 1):
        progress = None
        if previous_displacement is not None:
            progress = float(np.clip(1.0 - previous_displacement, 0.0, 1.0))
        epsilon_iteration = strategy.epsilon_for_iteration(
            iteration - 1, accountant.remaining_epsilon, progress=progress
        )
        if epsilon_iteration <= 0 or not accountant.can_spend(epsilon_iteration):
            break
        accountant.spend(epsilon_iteration, label=f"iteration-{iteration}")
        per_iteration_epsilon.append(epsilon_iteration)
        scale = sensitivity.laplace_scale(epsilon_iteration)

        assignments = assign_to_centroids(clipped, centroids)
        new_centroids = np.empty_like(centroids)
        noisy_counts = np.zeros(kmeans_config.n_clusters)
        for cluster in range(kmeans_config.n_clusters):
            members = clipped[assignments == cluster]
            noisy_sum = members.sum(axis=0) + sample_laplace(scale, series_length, rng)
            noisy_count = float(len(members)) + float(sample_laplace(scale, 1, rng)[0])
            noisy_counts[cluster] = noisy_count
            if noisy_count < 1.0:
                noisy_count = 1.0
            new_centroids[cluster] = np.clip(
                noisy_sum / noisy_count, -value_bound, value_bound
            )
        donor = int(np.argmax(noisy_counts))
        for cluster in range(kmeans_config.n_clusters):
            if noisy_counts[cluster] < 1.0 and cluster != donor:
                new_centroids[cluster] = reseed_centroid(
                    new_centroids[donor], value_bound, iteration, cluster, seed=seed
                )
        new_centroids = smooth_centroids(new_centroids, smoothing_config)
        displacement = centroid_displacement(centroids, new_centroids)
        previous_displacement = displacement
        centroids = new_centroids
        if displacement <= kmeans_config.convergence_threshold:
            converged = True
            break

    assignments = assign_to_centroids(clipped, centroids)
    return CentralizedDPResult(
        centroids=centroids,
        assignments=assignments,
        inertia=compute_inertia(data, centroids, assignments),
        n_iterations=iteration,
        converged=converged,
        epsilon_spent=accountant.spent_epsilon,
        per_iteration_epsilon=per_iteration_epsilon,
    )
