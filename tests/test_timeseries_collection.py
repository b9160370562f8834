"""Tests of TimeSeriesCollection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TimeSeriesError
from repro.timeseries import MatrixBackedCollection, TimeSeries, TimeSeriesCollection


def make_collection(n=5, length=4):
    return TimeSeriesCollection(
        [
            TimeSeries(np.full(length, float(i)), series_id=f"s{i}", metadata={"cluster": i % 2})
            for i in range(n)
        ],
        name="test",
    )


class TestConstruction:
    def test_basic_properties(self):
        collection = make_collection()
        assert len(collection) == 5
        assert collection.series_length == 4
        assert collection.series_ids == [f"s{i}" for i in range(5)]

    def test_rejects_empty(self):
        with pytest.raises(TimeSeriesError):
            TimeSeriesCollection([])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(TimeSeriesError):
            TimeSeriesCollection([TimeSeries([1.0, 2.0]), TimeSeries([1.0])])

    def test_from_matrix_round_trip(self):
        matrix = np.arange(12, dtype=float).reshape(3, 4)
        collection = TimeSeriesCollection.from_matrix(matrix, name="m")
        assert np.array_equal(collection.to_matrix(), matrix)
        assert collection[0].series_id == "series-0"

    def test_from_matrix_checks_ids(self):
        with pytest.raises(TimeSeriesError):
            TimeSeriesCollection.from_matrix(np.zeros((2, 3)), ids=["only-one"])

    def test_from_matrix_checks_metadata(self):
        with pytest.raises(TimeSeriesError):
            TimeSeriesCollection.from_matrix(np.zeros((2, 3)), metadata=[{}])

class TestViews:
    def test_to_matrix_is_a_copy(self):
        collection = make_collection()
        matrix = collection.to_matrix()
        matrix[0, 0] = 99.0
        assert collection[0].values[0] == 0.0

    def test_labels(self):
        collection = make_collection()
        assert collection.labels("cluster") == [0, 1, 0, 1, 0]
        assert collection.labels("missing") == [None] * 5

class TestTransforms:
    def test_subset_preserves_order(self):
        collection = make_collection()
        subset = collection.subset([3, 1])
        assert subset.series_ids == ["s3", "s1"]

    def test_subset_rejects_empty(self):
        with pytest.raises(TimeSeriesError):
            make_collection().subset([])


class TestMatrixBacked:
    """A matrix-backed collection answers like the dense one built from the
    same rows, wrapping each row only when it is asked for."""

    @pytest.fixture()
    def pair(self):
        matrix = np.arange(20, dtype=float).reshape(5, 4)
        labels = np.array([0, 1, 0, 1, 1])
        dense = TimeSeriesCollection.from_matrix(
            matrix, metadata=[{"cluster": int(label)} for label in labels])
        return dense, MatrixBackedCollection(matrix, label_key="cluster", labels=labels)

    def test_views_match_the_dense_collection(self, pair):
        dense, backed = pair
        assert len(backed) == len(dense) == 5
        assert backed.series_length == dense.series_length == 4
        assert backed.series_ids == dense.series_ids
        assert np.array_equal(backed.to_matrix(), dense.to_matrix())
        assert backed.labels("cluster") == dense.labels("cluster")
        assert backed.labels("missing") == dense.labels("missing")

    def test_indexing_and_iteration_wrap_rows(self, pair):
        dense, backed = pair
        for index in (0, 3, -1):
            assert backed[index].series_id == dense[index].series_id
            assert np.array_equal(backed[index].values, dense[index].values)
            assert backed[index].metadata == dense[index].metadata
        assert [entry.series_id for entry in backed] == dense.series_ids
        with pytest.raises(IndexError):
            backed[5]

    def test_subset_materialises_the_picked_rows(self, pair):
        dense, backed = pair
        subset = backed.subset(np.array([4, 1]))
        assert type(subset) is TimeSeriesCollection
        assert subset.series_ids == dense.subset([4, 1]).series_ids == ["series-4", "series-1"]
        assert subset.labels("cluster") == [1, 1]
        with pytest.raises(TimeSeriesError):
            backed.subset([])
