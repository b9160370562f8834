"""Tests of the time-series distance matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TimeSeriesError, ValidationError
from repro.timeseries import pairwise_distances


METRICS = ["euclidean", "sqeuclidean"]


class TestPairwiseDistances:
    def test_known_values(self):
        matrix = pairwise_distances(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert matrix[0, 0] == pytest.approx(5.0)
        squared = pairwise_distances(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]),
                                     metric="sqeuclidean")
        assert squared[0, 0] == pytest.approx(25.0)

    def test_pairwise_matches_pointwise(self, rng):
        rows = rng.normal(size=(4, 6))
        cols = rng.normal(size=(3, 6))
        matrix = pairwise_distances(rows, cols, metric="euclidean")
        squared = pairwise_distances(rows, cols, metric="sqeuclidean")
        for i in range(4):
            for j in range(3):
                norm = np.linalg.norm(rows[i] - cols[j])
                assert matrix[i, j] == pytest.approx(norm)
                assert squared[i, j] == pytest.approx(norm**2)

    @pytest.mark.parametrize("metric", METRICS)
    def test_identity_is_zero_and_symmetric(self, rng, metric):
        rows = rng.normal(size=(5, 3))
        matrix = pairwise_distances(rows, rows, metric=metric)
        assert np.allclose(np.diag(matrix), 0.0)
        assert np.allclose(matrix, matrix.T)

    @pytest.mark.parametrize("metric", METRICS)
    def test_pairwise_shape_mismatch(self, metric):
        with pytest.raises(TimeSeriesError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)), metric=metric)

    @pytest.mark.parametrize("metric", METRICS)
    def test_pairwise_never_negative(self, rng, metric):
        rows = rng.normal(size=(10, 8)) * 1e-8
        assert (pairwise_distances(rows, rows, metric=metric) >= 0).all()

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev", "dtw", "cosine-magic"])
    def test_other_metrics_are_refused(self, metric):
        with pytest.raises(ValidationError, match=metric):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 3)), metric=metric)
