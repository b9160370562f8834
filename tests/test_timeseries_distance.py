"""Tests of the time-series distance functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TimeSeriesError, ValidationError
from repro.timeseries import (
    chebyshev_distance,
    dtw_distance,
    euclidean_distance,
    get_distance,
    manhattan_distance,
    pairwise_distances,
    squared_euclidean_distance,
)


class TestPointwiseDistances:
    def test_euclidean(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_squared_euclidean(self):
        assert squared_euclidean_distance([0, 0], [3, 4]) == pytest.approx(25.0)

    def test_manhattan(self):
        assert manhattan_distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert chebyshev_distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_identity_is_zero(self):
        values = np.array([1.0, 2.0, 3.0])
        for name in ("euclidean", "sqeuclidean", "manhattan", "chebyshev", "dtw"):
            assert get_distance(name)(values, values) == pytest.approx(0.0)

    def test_symmetry(self):
        a = np.array([1.0, 5.0, 2.0])
        b = np.array([0.5, 4.0, 4.0])
        for name in ("euclidean", "manhattan", "chebyshev", "dtw"):
            distance = get_distance(name)
            assert distance(a, b) == pytest.approx(distance(b, a))

    def test_length_mismatch_raises(self):
        with pytest.raises(TimeSeriesError):
            euclidean_distance([1, 2], [1, 2, 3])

    def test_registry(self):
        assert get_distance("euclidean") is euclidean_distance
        with pytest.raises(ValidationError):
            get_distance("cosine-magic")


class TestDTW:
    def test_handles_different_lengths(self):
        assert dtw_distance([0, 0, 1, 2], [0, 1, 2]) >= 0.0

    def test_shifted_sequences_are_close(self):
        a = np.array([0, 0, 1, 2, 3, 0, 0], dtype=float)
        b = np.array([0, 1, 2, 3, 0, 0, 0], dtype=float)
        assert dtw_distance(a, b) < euclidean_distance(a, b)

    def test_window_constrains_path(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        b = np.array([3.0, 2.0, 1.0, 0.0])
        unconstrained = dtw_distance(a, b)
        constrained = dtw_distance(a, b, window=0)
        assert constrained >= unconstrained

    def test_negative_window_rejected(self):
        with pytest.raises(ValidationError):
            dtw_distance([1.0], [1.0], window=-1)


class TestMatrixHelpers:
    def test_pairwise_matches_pointwise(self, rng):
        rows = rng.normal(size=(4, 6))
        cols = rng.normal(size=(3, 6))
        matrix = pairwise_distances(rows, cols, metric="euclidean")
        for i in range(4):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(euclidean_distance(rows[i], cols[j]))

    def test_pairwise_manhattan(self, rng):
        rows = rng.normal(size=(3, 5))
        cols = rng.normal(size=(2, 5))
        matrix = pairwise_distances(rows, cols, metric="manhattan")
        assert matrix[1, 1] == pytest.approx(manhattan_distance(rows[1], cols[1]))

    def test_pairwise_generic_metric(self, rng):
        rows = rng.normal(size=(2, 4))
        matrix = pairwise_distances(rows, rows, metric="chebyshev")
        assert np.allclose(np.diag(matrix), 0.0)

    def test_pairwise_shape_mismatch(self):
        with pytest.raises(TimeSeriesError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_pairwise_never_negative(self, rng):
        rows = rng.normal(size=(10, 8)) * 1e-8
        matrix = pairwise_distances(rows, rows, metric="euclidean")
        assert (matrix >= 0).all()
