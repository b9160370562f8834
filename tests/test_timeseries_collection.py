"""Tests of TimeSeriesCollection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TimeSeriesError
from repro.timeseries import TimeSeries, TimeSeriesCollection


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

    def test_repr_mentions_size(self):
        assert "n_series=5" in repr(make_collection())


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

    def test_value_bound(self):
        collection = make_collection()
        assert collection.value_bound() == 4.0


class TestTransforms:
    def test_clipped(self):
        collection = make_collection()
        clipped = collection.clipped(0.0, 2.0)
        assert clipped.to_matrix().max() == 2.0

    def test_subset_preserves_order(self):
        collection = make_collection()
        subset = collection.subset([3, 1])
        assert subset.series_ids == ["s3", "s1"]

    def test_subset_rejects_empty(self):
        with pytest.raises(TimeSeriesError):
            make_collection().subset([])

    def test_sample(self, fresh_rng):
        collection = make_collection()
        sample = collection.sample(3, fresh_rng)
        assert len(sample) == 3
        assert len(set(sample.series_ids)) == 3

    def test_sample_rejects_oversize(self, fresh_rng):
        with pytest.raises(TimeSeriesError):
            make_collection().sample(10, fresh_rng)

    def test_split_partitions_everything(self, fresh_rng):
        collection = make_collection(10)
        first, second = collection.split(0.3, fresh_rng)
        assert len(first) + len(second) == 10
        assert set(first.series_ids).isdisjoint(second.series_ids)

    def test_split_rejects_bad_fraction(self, fresh_rng):
        with pytest.raises(TimeSeriesError):
            make_collection().split(1.5, fresh_rng)

    def test_map_applies_transform(self):
        collection = make_collection()
        doubled = collection.map(lambda s: TimeSeries(s.values * 2, s.series_id))
        assert np.allclose(doubled.to_matrix(), collection.to_matrix() * 2)


class TestSerialisation:
    def test_dict_round_trip(self):
        collection = make_collection()
        restored = TimeSeriesCollection(
            [TimeSeries.from_dict(entry.to_dict()) for entry in collection], name="test"
        )
        assert np.array_equal(restored.to_matrix(), collection.to_matrix())
        assert restored.labels("cluster") == collection.labels("cluster")
