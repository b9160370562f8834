"""Tests of the clustering quality metrics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.clustering import (
    adjusted_rand_index,
    centroid_matching_error,
    contingency_table,
    kmeans,
    match_centroids,
    quality_report,
)
from repro.clustering.metrics import min_cost_assignment
from repro.datasets import generate_gaussian_clusters
from repro.exceptions import ValidationError


class TestARI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_permuted_labels_still_perfect(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_string_labels_supported(self):
        a = np.array(["x", "x", "y", "y"])
        b = np.array([0, 0, 1, 1])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=600)
        b = rng.integers(0, 3, size=600)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_single_cluster_against_itself(self):
        labels = np.zeros(5, dtype=int)
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            adjusted_rand_index(np.array([0, 1]), np.array([0, 1, 2]))

    def test_contingency_table(self):
        table = contingency_table(np.array([0, 0, 1]), np.array([1, 1, 0]))
        assert table.tolist() == [[0, 2], [1, 0]]


class TestCentroidMatching:
    def test_identity_matching(self):
        centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
        pairs = match_centroids(centroids, centroids)
        assert pairs == [(0, 0), (1, 1)]
        assert centroid_matching_error(centroids, centroids) == pytest.approx(0.0)

    def test_permutation_recovered(self):
        reference = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        produced = reference[[2, 0, 1]]
        pairs = dict(match_centroids(reference, produced))
        assert pairs == {0: 1, 1: 2, 2: 0}
        assert centroid_matching_error(reference, produced) == pytest.approx(0.0)

    def test_identical_random_sets_read_exactly_zero(self):
        # The expanded ||x||^2 + ||y||^2 - 2x.y form reads ~2e-8 here.
        centroids = np.random.default_rng(4).random((4, 48))
        assert centroid_matching_error(centroids, centroids) == 0.0

    def test_error_reflects_perturbation(self):
        reference = np.zeros((2, 4))
        produced = reference + 0.5
        assert centroid_matching_error(reference, produced) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            match_centroids(np.zeros((2, 3)), np.zeros((2, 4)))


def _brute_force_cost(costs: np.ndarray) -> float:
    """Least total cost over every one-to-one matching of the shorter side."""
    if costs.shape[0] > costs.shape[1]:
        costs = costs.T
    rows = range(costs.shape[0])
    return min(costs[rows, list(cols)].sum()
               for cols in itertools.permutations(range(costs.shape[1]), costs.shape[0]))


class TestMinCostAssignment:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (3, 3), (4, 6), (6, 4),
                                       (7, 7), (5, 7), (7, 5)])
    @pytest.mark.parametrize("seed", range(6))
    def test_optimal_against_permutations(self, shape, seed):
        rng = np.random.default_rng(seed)
        # Even seeds draw from {0, 1, 2}: many exact ties.
        costs = (rng.integers(0, 3, size=shape).astype(float) if seed % 2 == 0
                 else rng.random(shape))
        rows, cols = min_cost_assignment(costs)
        assert len(rows) == min(shape)
        assert rows.tolist() == sorted(set(rows.tolist()))
        assert len(set(cols.tolist())) == len(cols)
        assert costs[rows, cols].sum() == pytest.approx(_brute_force_cost(costs), abs=1e-12)

    def test_all_ties(self):
        rows, cols = min_cost_assignment(np.ones((4, 4)))
        assert rows.tolist() == [0, 1, 2, 3]
        assert sorted(cols.tolist()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_identical_sets_match_the_identity(self, k):
        centroids = np.random.default_rng(k).normal(size=(k, 3))
        assert match_centroids(centroids, centroids) == [(i, i) for i in range(k)]

    def test_greedy_is_not_optimal_here(self):
        """The nearest pair first (0.0) forces a 10.0; the optimum is 2.0."""
        costs = np.array([[0.0, 1.0], [1.0, 10.0]])
        rows, cols = min_cost_assignment(costs)
        assert cols.tolist() == [1, 0]

    def test_rejects_a_vector(self):
        with pytest.raises(ValidationError):
            min_cost_assignment(np.zeros(3))


class TestReports:
    def test_quality_report_keys(self):
        collection = generate_gaussian_clusters(
            n_series=40, series_length=6, n_clusters=2, seed=3
        )
        data = collection.to_matrix()
        reference = kmeans(data, 2, seed=0)
        report = quality_report(
            data,
            reference.centroids,
            reference_centroids=reference.centroids,
            reference_inertia=reference.inertia,
            true_labels=np.array(collection.labels("cluster")),
        )
        assert report["relative_inertia"] == pytest.approx(1.0)
        assert report["centroid_matching_error"] == pytest.approx(0.0, abs=1e-6)
        assert 0.0 <= report["adjusted_rand_index"] <= 1.0
        assert report["n_clusters_used"] == 2.0
