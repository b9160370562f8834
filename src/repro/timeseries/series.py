"""The :class:`TimeSeries` value object.

A time-series in Chiaroscuro is a fixed-length sequence of real-valued
measurements produced by a personal sensor (electricity consumption per
half-hour, tumor size per week, weight per day, ...).  The class is a thin,
immutable wrapper around a NumPy array adding an identifier and optional
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .._validation import as_1d_float_array


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An immutable, fixed-length personal time-series.

    Attributes
    ----------
    values:
        One-dimensional float array of measurements.
    series_id:
        Identifier of the series (typically the participant identifier).
    metadata:
        Free-form auxiliary information (e.g. household archetype, patient
        response group).  Never used by the protocol itself; useful for
        evaluating clustering quality against ground truth.
    """

    values: np.ndarray
    series_id: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        array = as_1d_float_array(self.values, "values")
        array.setflags(write=False)
        object.__setattr__(self, "values", array)
        object.__setattr__(self, "metadata", dict(self.metadata))

    def __len__(self) -> int:
        return int(self.values.shape[0])
