"""Tests of the centralised k-means substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    assign_to_centroids,
    best_of_kmeans,
    centroid_displacement,
    compute_inertia,
    compute_means,
    initialize_centroids,
    kmeans,
    public_initial_centroids,
)
from repro.clustering.kmeans import reseed_centroid
from repro.exceptions import ValidationError
import generators


@pytest.fixture(scope="module")
def separable_data():
    collection = generators.generate_two_level_series(40, 6, low=0.0, high=1.0, seed=1)
    return collection.to_matrix(), np.array(collection.labels("cluster"))


class TestInitialization:
    def test_random_init_picks_existing_points(self, separable_data, fresh_rng):
        data, _labels = separable_data
        centroids = initialize_centroids(data, 3, method="random", rng=fresh_rng)
        assert centroids.shape == (3, data.shape[1])
        for centroid in centroids:
            assert any(np.allclose(centroid, row) for row in data)

    def test_kmeanspp_prefers_spread_points(self, separable_data, fresh_rng):
        data, _labels = separable_data
        centroids = initialize_centroids(data, 2, method="kmeans++", rng=fresh_rng)
        # The two seeds should land on the two levels.
        assert abs(centroids[0].mean() - centroids[1].mean()) > 0.5

    def test_kmeanspp_handles_duplicate_points(self, fresh_rng):
        data = np.ones((10, 3))
        centroids = initialize_centroids(data, 2, method="kmeans++", rng=fresh_rng)
        assert centroids.shape == (2, 3)

    def test_public_init_is_data_independent_and_deterministic(self):
        a = public_initial_centroids(3, 10, 0.0, 1.0, seed=5)
        b = public_initial_centroids(3, 10, 0.0, 1.0, seed=5)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_public_init_levels_are_spread(self):
        centroids = public_initial_centroids(4, 8, 0.0, 1.0, seed=0)
        levels = sorted(centroids.mean(axis=1))
        assert levels[0] < 0.3 and levels[-1] > 0.7

    def test_public_init_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            public_initial_centroids(2, 5, 1.0, 0.0)

    def test_too_many_clusters_rejected(self, fresh_rng):
        with pytest.raises(ValidationError):
            initialize_centroids(np.zeros((3, 2)), 5, method="random", rng=fresh_rng)

    def test_unknown_method_rejected(self, fresh_rng):
        with pytest.raises(ValidationError):
            initialize_centroids(np.zeros((3, 2)), 2, method="fancy", rng=fresh_rng)


class TestSteps:
    def test_assignment_picks_closest(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        centroids = np.array([[0.1, 0.1], [0.9, 0.9]])
        assert list(assign_to_centroids(data, centroids)) == [0, 1]

    def test_compute_means(self):
        data = np.array([[0.0], [1.0], [10.0]])
        assignments = np.array([0, 0, 1])
        means = compute_means(data, assignments, 2)
        assert means[0, 0] == pytest.approx(0.5)
        assert means[1, 0] == pytest.approx(10.0)

    def test_compute_means_empty_cluster_fallback(self):
        data = np.array([[1.0], [2.0]])
        assignments = np.array([0, 0])
        fallback = np.array([[5.0], [7.0]])
        means = compute_means(data, assignments, 2, fallback_centroids=fallback)
        assert means[1, 0] == 7.0

    def test_compute_means_empty_cluster_without_fallback_uses_overall_mean(self):
        data = np.array([[1.0], [3.0]])
        means = compute_means(data, np.array([0, 0]), 2)
        assert means[1, 0] == pytest.approx(2.0)

    def test_displacement(self):
        a = np.zeros((2, 3))
        b = np.ones((2, 3))
        assert centroid_displacement(a, b) == pytest.approx(np.sqrt(3))
        assert centroid_displacement(a, a) == 0.0

    def test_displacement_shape_mismatch(self):
        with pytest.raises(ValidationError):
            centroid_displacement(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_inertia_zero_for_perfect_centroids(self):
        data = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert compute_inertia(data, data) == pytest.approx(0.0)

    def test_reseed_centroid_is_deterministic_and_clipped(self):
        donor = np.array([0.5, 0.9, 0.1])
        a = reseed_centroid(donor, 1.0, iteration=3, cluster=1, seed=7)
        b = reseed_centroid(donor, 1.0, iteration=3, cluster=1, seed=7)
        c = reseed_centroid(donor, 1.0, iteration=4, cluster=1, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.min() >= 0.0 and a.max() <= 1.0


class TestFullAlgorithm:
    def test_recovers_two_level_clusters(self, separable_data):
        data, labels = separable_data
        result = kmeans(data, 2, seed=0)
        assert result.converged
        # Centroids must be the two constant levels.
        levels = sorted(result.centroids.mean(axis=1))
        assert levels[0] == pytest.approx(0.0, abs=1e-6)
        assert levels[1] == pytest.approx(1.0, abs=1e-6)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)
        # Assignment must match the ground truth up to label permutation.
        agreement = np.mean(result.assignments == labels)
        assert agreement in (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))

    def test_inertia_never_increases_along_iterations(self, separable_data):
        data, _ = separable_data
        noisy = data + np.random.default_rng(0).normal(0, 0.1, size=data.shape)
        result = kmeans(noisy, 3, seed=1)
        inertias = [entry["inertia"] for entry in result.history]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_max_iterations_respected(self, separable_data):
        data, _ = separable_data
        result = kmeans(data, 2, max_iterations=1, seed=0)
        assert result.n_iterations == 1

    def test_initial_centroids_override(self, separable_data):
        data, _ = separable_data
        start = np.vstack([np.zeros(6), np.ones(6)])
        result = kmeans(data, 2, initial_centroids=start, seed=0)
        assert result.converged
        assert result.n_iterations <= 2

    def test_initial_centroids_shape_checked(self, separable_data):
        data, _ = separable_data
        with pytest.raises(ValidationError):
            kmeans(data, 2, initial_centroids=np.zeros((3, 6)))

    def test_best_of_restarts_not_worse_than_single(self, separable_data):
        data, _ = separable_data
        noisy = data + np.random.default_rng(5).normal(0, 0.3, size=data.shape)
        single = kmeans(noisy, 4, seed=3)
        best = best_of_kmeans(noisy, 4, n_restarts=5, seed=3)
        assert best.inertia <= single.inertia + 1e-9
