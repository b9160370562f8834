"""Non-private distributed gossip k-means baseline.

Removes both privacy protections (no encryption, no perturbation) but keeps
the massive distribution: every participant holds a single series, assignment
is local, and the per-cluster sums/counts are computed with cleartext gossip
averaging.  Comparing this baseline against Chiaroscuro isolates the quality
cost of the *privacy machinery* from the quality cost of *distribution*
(gossip approximation alone).

The gossip is the slab engine's (:mod:`repro.simulation.slab`), the
vectorised twin of the protocol's encrypted exchange: contributions are laid
out by ``scatter_rows``, and every exchange round is one uniform random
matching of the population (``pair_online``) whose pairs adopt their mean
(``average_pairs_inplace``).  Each round's frames go through
``plan_pair_faults`` at ``drop_probability``: a pair whose reply was lost
only updates the responder (``half_average_pairs_inplace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_positive_int
from ..clustering.kmeans import (
    assign_to_centroids,
    centroid_displacement,
    compute_inertia,
    public_initial_centroids,
    reseed_centroid,
)
from ..config import GossipConfig, KMeansConfig
from ..simulation.rng import RngRegistry
from ..simulation.slab import (
    average_pairs_inplace,
    half_average_pairs_inplace,
    pair_online,
    plan_pair_faults,
    scatter_rows,
)
from ..timeseries import TimeSeriesCollection


@dataclass(frozen=True)
class DistributedPlainResult:
    """Result of the non-private distributed baseline."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iterations: int
    converged: bool
    gossip_error_history: list[float] = field(default_factory=list)


def distributed_plain_kmeans(
    collection: TimeSeriesCollection,
    kmeans_config: KMeansConfig | None = None,
    gossip_config: GossipConfig | None = None,
    seed: int = 0,
) -> DistributedPlainResult:
    """Distributed k-means over cleartext gossip averaging.

    Each iteration mirrors Chiaroscuro's execution sequence without the
    privacy layers: local assignment, gossip averaging of the per-cluster
    contribution vectors (series stacked with the membership indicator), and
    a local convergence check on the reconstructed means.
    """
    kmeans_config = kmeans_config if kmeans_config is not None else KMeansConfig()
    gossip_config = gossip_config if gossip_config is not None else GossipConfig()
    data = collection.to_matrix()
    n_series, series_length = data.shape
    check_positive_int(kmeans_config.n_clusters, "n_clusters")

    centroids = public_initial_centroids(
        kmeans_config.n_clusters,
        series_length,
        value_low=float(data.min()),
        value_high=float(data.max()),
        seed=seed,
    )
    registry = RngRegistry(seed)
    pairing_rng = registry.stream("slab.pairing")
    loss_rng = registry.stream("slab.loss")
    corruption_rng = registry.stream("slab.corruption")
    online = np.ones(n_series, dtype=bool)
    width = kmeans_config.n_clusters * (series_length + 1)
    rounds = gossip_config.cycles_per_aggregation * gossip_config.exchanges_per_cycle
    # Each participant's contribution: per cluster, (indicator * series, indicator).
    estimates = np.empty((n_series, width))
    gossip_error_history: list[float] = []
    converged = False
    iteration = 0
    for iteration in range(1, kmeans_config.max_iterations + 1):
        assignments = assign_to_centroids(data, centroids)
        scatter_rows(estimates, data, assignments, 0, n_series)
        true_average = estimates.mean(axis=0)
        for _ in range(rounds):
            # Fault-free, the plan is every pair in full and draws nothing.
            plan = plan_pair_faults(
                pair_online(online, pairing_rng), width * 64,
                gossip_config.drop_probability, 0.0, loss_rng, corruption_rng,
            )
            average_pairs_inplace(estimates, plan.full_pairs)
            half_average_pairs_inplace(estimates, plan.half_pairs)
        # Every node reconstructs the means from its own estimate; they are all
        # close after convergence, so we use node 0's view (as the paper's demo
        # displays one participant's perspective) and record the spread.
        spread = float(
            np.linalg.norm(estimates - true_average[None, :], axis=1).max()
            / max(1e-12, np.linalg.norm(true_average))
        )
        gossip_error_history.append(spread)
        view = estimates[0]
        new_centroids = np.empty_like(centroids)
        counts = np.zeros(kmeans_config.n_clusters)
        min_count = 1.0 / (2 * n_series)
        for cluster in range(kmeans_config.n_clusters):
            offset = cluster * (series_length + 1)
            average_sum = view[offset:offset + series_length]
            average_count = view[offset + series_length]
            counts[cluster] = average_count
            if average_count <= min_count:
                new_centroids[cluster] = centroids[cluster]
            else:
                new_centroids[cluster] = average_sum / average_count
        donor = int(np.argmax(counts))
        value_bound = float(max(data.max(), 1e-9))
        for cluster in range(kmeans_config.n_clusters):
            if counts[cluster] <= min_count and cluster != donor:
                new_centroids[cluster] = reseed_centroid(
                    new_centroids[donor], value_bound, iteration, cluster, seed=seed
                )
        displacement = centroid_displacement(centroids, new_centroids)
        centroids = new_centroids
        if displacement <= kmeans_config.convergence_threshold:
            converged = True
            break

    assignments = assign_to_centroids(data, centroids)
    return DistributedPlainResult(
        centroids=centroids,
        assignments=assignments,
        inertia=compute_inertia(data, centroids, assignments),
        n_iterations=iteration,
        converged=converged,
        gossip_error_history=gossip_error_history,
    )
