"""Tests of the TimeSeries value object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
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
