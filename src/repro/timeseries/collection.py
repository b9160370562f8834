"""The :class:`TimeSeriesCollection` container.

A collection groups equal-length :class:`~repro.timeseries.series.TimeSeries`
objects — one per participant — and exposes the matrix view that the
clustering substrate and the baselines operate on.  The Chiaroscuro protocol
never materialises such a collection on a single node (that is the whole
point); collections exist for dataset generation, baselines and evaluation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .._validation import as_2d_float_array
from ..exceptions import TimeSeriesError
from .series import TimeSeries


class TimeSeriesCollection:
    """An ordered collection of equal-length time-series.

    Parameters
    ----------
    series:
        Iterable of :class:`TimeSeries`, all of the same length.
    name:
        Human-readable name of the collection (e.g. ``"cer-synthetic"``).
    """

    def __init__(self, series: Iterable[TimeSeries], name: str = "") -> None:
        self._series: list[TimeSeries] = list(series)
        self.name = name
        if not self._series:
            raise TimeSeriesError("a collection must contain at least one series")
        length = len(self._series[0])
        for entry in self._series:
            if len(entry) != length:
                raise TimeSeriesError(
                    "all series in a collection must have the same length "
                    f"({len(entry)} != {length} for {entry.series_id!r})"
                )
        self._length = length

    # ------------------------------------------------------------------ dunder
    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series)

    def __getitem__(self, index: int) -> TimeSeries:
        return self._series[index]

    def __repr__(self) -> str:
        return (
            f"TimeSeriesCollection(name={self.name!r}, n_series={len(self)}, "
            f"series_length={self.series_length})"
        )

    # ------------------------------------------------------------------ views
    @property
    def series_length(self) -> int:
        """Common length of every series in the collection."""
        return self._length

    @property
    def series_ids(self) -> list[str]:
        """Identifiers of the series, in collection order."""
        return [entry.series_id for entry in self._series]

    def to_matrix(self) -> np.ndarray:
        """Return an ``(n_series, series_length)`` float matrix (copy)."""
        return np.vstack([entry.values for entry in self._series])

    def labels(self, key: str) -> list[Any]:
        """Return ``metadata[key]`` for every series (``None`` when absent).

        Typically used to retrieve the generator's ground-truth cluster label
        for external quality metrics such as the adjusted Rand index.
        """
        return [entry.metadata.get(key) for entry in self._series]

    def value_bound(self) -> float:
        """Largest absolute value across the collection.

        Used to derive the public clipping bound / sensitivity for the
        Laplace mechanism.
        """
        return float(max(abs(entry.min()) if abs(entry.min()) > entry.max() else entry.max()
                         for entry in self._series))

    # ------------------------------------------------------------------ transforms
    def map(self, transform: Callable[[TimeSeries], TimeSeries], name: str | None = None,
            ) -> "TimeSeriesCollection":
        """Return a new collection with *transform* applied to every series."""
        return TimeSeriesCollection(
            [transform(entry) for entry in self._series],
            name=self.name if name is None else name,
        )

    def clipped(self, lower: float, upper: float) -> "TimeSeriesCollection":
        """Return a copy with every series clipped into [lower, upper]."""
        return self.map(lambda entry: entry.clipped(lower, upper))

    def subset(self, indices: Sequence[int], name: str | None = None) -> "TimeSeriesCollection":
        """Return the sub-collection at the given positions (order preserved)."""
        if not indices:
            raise TimeSeriesError("subset requires at least one index")
        picked = [self._series[int(i)] for i in indices]
        return TimeSeriesCollection(picked, name=self.name if name is None else name)

    def sample(self, n: int, rng: np.random.Generator) -> "TimeSeriesCollection":
        """Return *n* series drawn without replacement using *rng*."""
        if not 1 <= n <= len(self):
            raise TimeSeriesError(f"cannot sample {n} series out of {len(self)}")
        indices = rng.choice(len(self), size=n, replace=False)
        return self.subset([int(i) for i in indices])

    def split(self, fraction: float, rng: np.random.Generator,
              ) -> tuple["TimeSeriesCollection", "TimeSeriesCollection"]:
        """Randomly split into two collections of sizes ~fraction / ~(1-fraction)."""
        if not 0.0 < fraction < 1.0:
            raise TimeSeriesError(f"fraction must be in (0, 1), got {fraction}")
        permutation = rng.permutation(len(self))
        cut = max(1, min(len(self) - 1, int(round(fraction * len(self)))))
        first = self.subset([int(i) for i in permutation[:cut]])
        second = self.subset([int(i) for i in permutation[cut:]])
        return first, second

    # ------------------------------------------------------------------ serialisation
    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        ids: Sequence[str] | None = None,
        name: str = "",
        metadata: Sequence[Mapping[str, Any]] | None = None,
    ) -> "TimeSeriesCollection":
        """Build a collection from an ``(n_series, series_length)`` matrix."""
        matrix = as_2d_float_array(matrix, "matrix")
        n_series = matrix.shape[0]
        if ids is None:
            ids = [f"series-{i}" for i in range(n_series)]
        if len(ids) != n_series:
            raise TimeSeriesError(f"got {len(ids)} ids for {n_series} series")
        if metadata is None:
            metadata = [{} for _ in range(n_series)]
        if len(metadata) != n_series:
            raise TimeSeriesError(f"got {len(metadata)} metadata entries for {n_series} series")
        series = [
            TimeSeries(matrix[i], str(ids[i]), dict(metadata[i])) for i in range(n_series)
        ]
        return cls(series, name=name)


class MatrixBackedCollection(TimeSeriesCollection):
    """A collection backed by one dense matrix, without per-series objects.

    Behaviourally equivalent to :class:`TimeSeriesCollection`, but rows are
    wrapped into :class:`TimeSeries` objects lazily on access, so building a
    ten-million-row population costs one matrix allocation instead of ten
    million Python objects.  The backing matrix keeps its dtype (the slab
    engine's ``float32`` path relies on this to halve resident memory).

    Parameters
    ----------
    matrix:
        ``(n_series, series_length)`` float matrix; kept by reference.
    name:
        Collection name, as for the dense container.
    label_key / labels:
        Optional ground-truth labels: ``labels[i]`` is surfaced as
        ``metadata[label_key]`` of row ``i``.
    id_prefix:
        Row identifiers are ``f"{id_prefix}-{row}"``.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        name: str = "",
        label_key: str | None = None,
        labels: np.ndarray | None = None,
        id_prefix: str = "series",
    ) -> None:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise TimeSeriesError(
                f"matrix must be 2-dimensional, got shape {matrix.shape}"
            )
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise TimeSeriesError("a collection must contain at least one series")
        if not np.issubdtype(matrix.dtype, np.floating):
            matrix = matrix.astype(np.float64)
        if not np.all(np.isfinite(matrix)):
            raise TimeSeriesError("matrix contains non-finite values")
        self._matrix = matrix
        self.name = name
        self._length = int(matrix.shape[1])
        self._label_key = label_key
        self._labels = None if labels is None else np.asarray(labels)
        if self._labels is not None and self._labels.shape[0] != matrix.shape[0]:
            raise TimeSeriesError(
                f"got {self._labels.shape[0]} labels for {matrix.shape[0]} series"
            )
        self._id_prefix = id_prefix

    def _row(self, index: int) -> TimeSeries:
        metadata: dict[str, Any] = {}
        if self._labels is not None and self._label_key is not None:
            metadata[self._label_key] = self._labels[index].item()
        return TimeSeries(
            self._matrix[index], f"{self._id_prefix}-{index}", metadata
        )

    # -------------------------------------------------------------- dunder
    def __len__(self) -> int:
        return int(self._matrix.shape[0])

    def __iter__(self) -> Iterator[TimeSeries]:
        return (self._row(i) for i in range(len(self)))

    def __getitem__(self, index: int) -> TimeSeries:
        return self._row(range(len(self))[index])

    def __repr__(self) -> str:
        return (
            f"MatrixBackedCollection(name={self.name!r}, n_series={len(self)}, "
            f"series_length={self.series_length}, dtype={self._matrix.dtype})"
        )

    # -------------------------------------------------------------- views
    @property
    def series_ids(self) -> list[str]:
        return [f"{self._id_prefix}-{i}" for i in range(len(self))]

    def to_matrix(self) -> np.ndarray:
        """Return the backing matrix itself (no copy — do not mutate)."""
        return self._matrix

    def labels(self, key: str) -> list[Any]:
        if self._labels is None or key != self._label_key:
            return [None] * len(self)
        return [value.item() for value in self._labels]

    def value_bound(self) -> float:
        low = float(self._matrix.min())
        high = float(self._matrix.max())
        return float(max(abs(low), high))

    # -------------------------------------------------------------- transforms
    def map(self, transform: Callable[[TimeSeries], TimeSeries], name: str | None = None,
            ) -> "TimeSeriesCollection":
        """Materialise every row, apply *transform*, return a dense collection."""
        return TimeSeriesCollection(
            [transform(entry) for entry in self],
            name=self.name if name is None else name,
        )

    def subset(self, indices: Sequence[int], name: str | None = None) -> "TimeSeriesCollection":
        """Materialise only the picked rows into a dense sub-collection."""
        if not len(indices):
            raise TimeSeriesError("subset requires at least one index")
        picked = [self._row(int(i)) for i in indices]
        return TimeSeriesCollection(picked, name=self.name if name is None else name)
