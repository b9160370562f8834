"""The :class:`TimeSeries` value object.

A time-series in Chiaroscuro is a fixed-length sequence of real-valued
measurements produced by a personal sensor (electricity consumption per
half-hour, tumor size per week, weight per day, ...).  The class is a thin,
immutable wrapper around a NumPy array adding an identifier, optional
metadata, and the handful of operations the protocol needs: distances,
sub-sequence extraction and normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from .._validation import as_1d_float_array
from ..exceptions import TimeSeriesError


@dataclass(frozen=True)
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

    # ------------------------------------------------------------------ dunder
    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterator[float]:
        return iter(self.values.tolist())

    def __getitem__(self, index: int | slice) -> float | np.ndarray:
        return self.values[index]

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        if dtype is None:
            return np.array(self.values, copy=True)
        return np.array(self.values, dtype=dtype, copy=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.series_id == other.series_id
            and len(self) == len(other)
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self) -> int:
        return hash((self.series_id, self.values.tobytes()))

    # ------------------------------------------------------------------ helpers
    @property
    def length(self) -> int:
        """Number of points in the series."""
        return len(self)

    def mean(self) -> float:
        """Average value of the series."""
        return float(np.mean(self.values))

    def min(self) -> float:
        """Smallest value of the series."""
        return float(np.min(self.values))

    def max(self) -> float:
        """Largest value of the series."""
        return float(np.max(self.values))

    def clipped(self, lower: float, upper: float) -> "TimeSeries":
        """Return a copy with values clipped into [lower, upper].

        Clipping to a public bound is what gives the per-point sensitivity
        used by the Laplace mechanism.
        """
        if lower > upper:
            raise TimeSeriesError(f"lower bound {lower} exceeds upper bound {upper}")
        return TimeSeries(np.clip(self.values, lower, upper), self.series_id, dict(self.metadata))

    def to_dict(self) -> dict[str, Any]:
        """Serialise to plain Python types (for the execution log)."""
        return {
            "series_id": self.series_id,
            "values": self.values.tolist(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TimeSeries":
        """Inverse of :meth:`to_dict`."""
        return cls(
            np.asarray(payload["values"], dtype=float),
            str(payload.get("series_id", "")),
            dict(payload.get("metadata", {})),
        )
