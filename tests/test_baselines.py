"""Tests of the three baselines (centralised, centralised DP, plain gossip)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    centralized_dp_kmeans,
    centralized_kmeans,
    distributed_plain_kmeans,
)
from repro.clustering import adjusted_rand_index, compute_inertia
from repro.config import GossipConfig, KMeansConfig, PrivacyConfig, SmoothingConfig
from repro.datasets import generate_gaussian_clusters


@pytest.fixture(scope="module")
def collection():
    return generate_gaussian_clusters(
        n_series=60, series_length=16, n_clusters=3, noise_std=0.05, seed=11
    )


@pytest.fixture(scope="module")
def kconfig():
    return KMeansConfig(n_clusters=3, max_iterations=10, convergence_threshold=1e-4)


class TestCentralized:
    def test_recovers_ground_truth(self, collection, kconfig):
        result = centralized_kmeans(collection, kconfig, seed=0, n_restarts=3)
        labels = np.array(collection.labels("cluster"))
        assert adjusted_rand_index(labels, result.assignments) > 0.95
        assert result.converged

    def test_inertia_consistent(self, collection, kconfig):
        result = centralized_kmeans(collection, kconfig, seed=0)
        recomputed = compute_inertia(collection.to_matrix(), result.centroids,
                                     result.assignments)
        assert result.inertia == pytest.approx(recomputed)

    def test_restarts_never_hurt(self, collection, kconfig):
        single = centralized_kmeans(collection, kconfig, seed=2, n_restarts=1)
        multi = centralized_kmeans(collection, kconfig, seed=2, n_restarts=4)
        assert multi.inertia <= single.inertia + 1e-9

    def test_default_config_used_when_omitted(self, collection):
        result = centralized_kmeans(collection)
        assert result.centroids.shape[0] == 5  # library default k


class TestCentralizedDP:
    def test_respects_budget(self, collection, kconfig):
        privacy = PrivacyConfig(epsilon=2.0, budget_strategy="uniform")
        result = centralized_dp_kmeans(collection, kconfig, privacy, seed=0)
        assert result.epsilon_spent <= 2.0 + 1e-9
        assert len(result.per_iteration_epsilon) == result.n_iterations or not result.converged

    def test_quality_improves_with_epsilon(self, collection, kconfig):
        loose = centralized_dp_kmeans(
            collection, kconfig, PrivacyConfig(epsilon=0.05), seed=1
        )
        tight = centralized_dp_kmeans(
            collection, kconfig, PrivacyConfig(epsilon=100.0), seed=1
        )
        assert tight.inertia < loose.inertia

    def test_large_epsilon_approaches_non_private(self, collection, kconfig):
        reference = centralized_kmeans(collection, kconfig, seed=0, n_restarts=3)
        dp_result = centralized_dp_kmeans(
            collection, kconfig, PrivacyConfig(epsilon=10_000.0), seed=0
        )
        assert dp_result.inertia <= reference.inertia * 3.0

    def test_smoothing_config_accepted(self, collection, kconfig):
        result = centralized_dp_kmeans(
            collection, kconfig, PrivacyConfig(epsilon=1.0),
            SmoothingConfig(method="lowpass", lowpass_cutoff=0.3), seed=0,
        )
        assert result.centroids.shape == (3, collection.series_length)

    def test_centroids_respect_value_bound(self, collection, kconfig):
        privacy = PrivacyConfig(epsilon=0.1, value_bound=1.0)
        result = centralized_dp_kmeans(collection, kconfig, privacy, seed=3)
        assert result.centroids.max() <= 1.0 + 1e-9
        assert result.centroids.min() >= -1.0 - 1e-9


class TestDistributedPlain:
    def test_matches_centralized_quality(self, collection, kconfig):
        gossip = GossipConfig(cycles_per_aggregation=20)
        distributed = distributed_plain_kmeans(collection, kconfig, gossip, seed=0)
        centralized = centralized_kmeans(collection, kconfig, seed=0, n_restarts=3)
        # Gossip averaging converges to the exact means, so the distributed
        # run must be within a small factor of the centralised inertia.
        assert distributed.inertia <= centralized.inertia * 1.5 + 1e-9

    def test_recovers_ground_truth(self, collection, kconfig):
        gossip = GossipConfig(cycles_per_aggregation=20)
        result = distributed_plain_kmeans(collection, kconfig, gossip, seed=0)
        labels = np.array(collection.labels("cluster"))
        assert adjusted_rand_index(labels, result.assignments) > 0.9

    def test_gossip_error_recorded_per_iteration(self, collection, kconfig):
        gossip = GossipConfig(cycles_per_aggregation=10)
        result = distributed_plain_kmeans(collection, kconfig, gossip, seed=0)
        assert len(result.gossip_error_history) == result.n_iterations
        assert all(error >= 0 for error in result.gossip_error_history)

    def test_fewer_gossip_cycles_give_larger_error(self, collection, kconfig):
        few = distributed_plain_kmeans(
            collection, kconfig, GossipConfig(cycles_per_aggregation=2), seed=0
        )
        many = distributed_plain_kmeans(
            collection, kconfig, GossipConfig(cycles_per_aggregation=25), seed=0
        )
        assert many.gossip_error_history[0] < few.gossip_error_history[0]

    def test_drops_slow_but_do_not_break(self, collection, kconfig):
        gossip = GossipConfig(cycles_per_aggregation=20)
        lossless = distributed_plain_kmeans(collection, kconfig, gossip, seed=0)
        lossy = distributed_plain_kmeans(
            collection, kconfig,
            GossipConfig(cycles_per_aggregation=20, drop_probability=0.3), seed=0,
        )
        assert lossy.gossip_error_history[0] > lossless.gossip_error_history[0]
        labels = np.array(collection.labels("cluster"))
        assert adjusted_rand_index(labels, lossy.assignments) > 0.9

    def test_more_exchanges_per_cycle_give_smaller_error(self, collection, kconfig):
        one = distributed_plain_kmeans(
            collection, kconfig, GossipConfig(cycles_per_aggregation=4), seed=0
        )
        three = distributed_plain_kmeans(
            collection, kconfig,
            GossipConfig(cycles_per_aggregation=4, exchanges_per_cycle=3), seed=0,
        )
        assert three.gossip_error_history[0] < one.gossip_error_history[0]

    def test_gossip_is_the_slab_kernels_on_one_seeded_stream(self, collection, kconfig):
        """The first aggregation is cycles x exchanges matchings drawn from
        the slab engine's pairing stream of ``RngRegistry(seed)``."""
        from repro.clustering import assign_to_centroids, public_initial_centroids
        from repro.simulation import RngRegistry, average_pairs_inplace, pair_online
        from repro.simulation.slab import scatter_rows

        gossip = GossipConfig(cycles_per_aggregation=3, exchanges_per_cycle=2)
        result = distributed_plain_kmeans(collection, kconfig, gossip, seed=5)
        data = collection.to_matrix()
        centroids = public_initial_centroids(
            3, data.shape[1], float(data.min()), float(data.max()), seed=5
        )
        estimates = np.empty((len(data), 3 * (data.shape[1] + 1)))
        scatter_rows(estimates, data, assign_to_centroids(data, centroids), 0, len(data))
        mean = estimates.mean(axis=0)
        pairing = RngRegistry(5).stream("slab.pairing")
        online = np.ones(len(data), dtype=bool)
        for _ in range(6):
            average_pairs_inplace(estimates, pair_online(online, pairing))
        spread = np.linalg.norm(estimates - mean, axis=1).max() / np.linalg.norm(mean)
        assert result.gossip_error_history[0] == spread

    def test_deterministic_given_seed(self, collection, kconfig):
        gossip = GossipConfig(cycles_per_aggregation=6, exchanges_per_cycle=2)
        first = distributed_plain_kmeans(collection, kconfig, gossip, seed=4)
        second = distributed_plain_kmeans(collection, kconfig, gossip, seed=4)
        assert np.array_equal(first.centroids, second.centroids)
        assert first.gossip_error_history == second.gossip_error_history
