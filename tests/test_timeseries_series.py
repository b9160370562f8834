"""Tests of the TimeSeries value object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TimeSeriesError, ValidationError
from repro.timeseries import TimeSeries


class TestConstruction:
    def test_values_are_copied_to_float(self):
        series = TimeSeries([1, 2, 3], series_id="a")
        assert series.values.dtype == float
        assert len(series) == 3

    def test_values_are_read_only(self):
        series = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            series.values[0] = 5.0

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TimeSeries([])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            TimeSeries([1.0, float("nan")])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.zeros((2, 3)))

    def test_metadata_is_copied(self):
        meta = {"archetype": "family"}
        series = TimeSeries([1.0], metadata=meta)
        meta["archetype"] = "changed"
        assert series.metadata["archetype"] == "family"


class TestBehaviour:
    def test_equality_and_hash(self):
        a = TimeSeries([1.0, 2.0], series_id="x")
        b = TimeSeries([1.0, 2.0], series_id="x")
        c = TimeSeries([1.0, 2.5], series_id="x")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a series"

    def test_iteration_and_indexing(self, tiny_series):
        assert list(tiny_series)[:2] == [0.0, 1.0]
        assert tiny_series[2] == 2.0
        assert np.array_equal(tiny_series[1:3], np.array([1.0, 2.0]))

    def test_array_protocol(self, tiny_series):
        array = np.asarray(tiny_series)
        assert array.shape == (6,)
        array[0] = 100.0  # the copy must not affect the original
        assert tiny_series[0] == 0.0

    def test_statistics(self, tiny_series):
        assert tiny_series.min() == 0.0
        assert tiny_series.max() == 3.0
        assert tiny_series.mean() == pytest.approx(1.5)


class TestClipping:
    def test_clipped(self):
        series = TimeSeries([-1.0, 0.5, 2.0]).clipped(0.0, 1.0)
        assert np.allclose(series.values, [0.0, 0.5, 1.0])

    def test_clipped_invalid_bounds(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries([1.0]).clipped(2.0, 1.0)


class TestSerialisation:
    def test_round_trip(self, tiny_series):
        payload = tiny_series.to_dict()
        restored = TimeSeries.from_dict(payload)
        assert restored == tiny_series
        assert restored.metadata == tiny_series.metadata
