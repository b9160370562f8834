"""Controlled synthetic time-series with known cluster structure.

These generators produce datasets whose ground-truth clustering is known by
construction, which makes them the right tool for unit tests, property tests,
and calibration experiments (e.g. measuring how far a differentially-private
clustering strays from an exactly recoverable one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_non_negative_float, check_positive_int
from ..exceptions import DatasetError
from ..timeseries import MatrixBackedCollection, TimeSeries, TimeSeriesCollection


@dataclass(frozen=True)
class GaussianClustersConfig:
    """Parameters of the Gaussian-clusters generator.

    Each cluster prototype is a smooth random curve; members are prototypes
    plus i.i.d. Gaussian noise.  ``separation`` scales the distance between
    prototypes relative to the noise, so a large value makes the clustering
    trivially recoverable and a small value makes it genuinely hard.
    """

    n_series: int = 200
    series_length: int = 48
    n_clusters: int = 5
    noise_std: float = 0.05
    separation: float = 1.0
    seed: int = 0
    matrix_backed: bool = False
    dtype: str = "float64"

    def __post_init__(self) -> None:
        check_positive_int(self.n_series, "n_series")
        check_positive_int(self.series_length, "series_length")
        check_positive_int(self.n_clusters, "n_clusters")
        check_non_negative_float(self.noise_std, "noise_std")
        check_non_negative_float(self.separation, "separation")
        if self.n_clusters > self.n_series:
            raise DatasetError(
                f"cannot generate {self.n_clusters} clusters with {self.n_series} series"
            )
        if self.dtype not in ("float64", "float32"):
            raise DatasetError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if self.dtype != "float64" and not self.matrix_backed:
            raise DatasetError("dtype=float32 requires matrix_backed=True")


def _smooth_prototype(length: int, rng: np.random.Generator, n_harmonics: int = 4) -> np.ndarray:
    """A smooth random curve in [0, 1]: a few random Fourier harmonics."""
    grid = np.linspace(0.0, 2.0 * np.pi, num=length)
    curve = np.zeros(length)
    for harmonic in range(1, n_harmonics + 1):
        amplitude = rng.uniform(0.2, 1.0) / harmonic
        phase = rng.uniform(0.0, 2.0 * np.pi)
        curve += amplitude * np.sin(harmonic * grid + phase)
    low, high = float(curve.min()), float(curve.max())
    if high - low > 0:
        curve = (curve - low) / (high - low)
    return curve


def generate_gaussian_clusters(
    config: GaussianClustersConfig | None = None, **overrides: object
) -> TimeSeriesCollection:
    """Generate a collection with a known partition into Gaussian clusters.

    Metadata carries ``cluster`` (the ground-truth label, an integer in
    ``range(n_clusters)``).
    """
    if config is None:
        config = GaussianClustersConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise DatasetError("pass either a GaussianClustersConfig or keyword overrides, not both")
    rng = np.random.default_rng(config.seed)
    prototypes = np.vstack([
        config.separation * _smooth_prototype(config.series_length, rng)
        for _ in range(config.n_clusters)
    ])
    # Assign members round-robin so every cluster is non-empty, then shuffle.
    labels = np.array([index % config.n_clusters for index in range(config.n_series)])
    rng.shuffle(labels)
    if config.matrix_backed:
        return _matrix_backed_members(config, rng, prototypes, labels)
    series: list[TimeSeries] = []
    for index in range(config.n_series):
        label = int(labels[index])
        values = prototypes[label].copy()
        if config.noise_std > 0:
            values = values + rng.normal(0.0, config.noise_std, size=config.series_length)
        series.append(
            TimeSeries(
                values,
                series_id=f"synthetic-{index:05d}",
                metadata={"cluster": label},
            )
        )
    return TimeSeriesCollection(series, name="gaussian-clusters")


#: Rows filled per block by the matrix-backed generator — bounds the float64
#: noise temporary to a few dozen MiB regardless of the population size.
_MATRIX_FILL_ROWS = 262_144


def _matrix_backed_members(
    config: GaussianClustersConfig,
    rng: np.random.Generator,
    prototypes: np.ndarray,
    labels: np.ndarray,
) -> MatrixBackedCollection:
    """Vectorised member generation sharing the per-series RNG stream.

    ``Generator.normal`` fills a ``(rows, length)`` request in C order from
    the same sequential draw stream the per-series loop consumes, so the
    float64 matrix here is bit-identical to the dense generator's rows —
    block-splitting only regroups the same sequence.  With
    ``dtype="float32"`` the draws stay float64 and are rounded once at
    store time, keeping the resident matrix (and the slab engine fed from
    it) at half size.
    """
    out = np.empty((config.n_series, config.series_length), dtype=np.dtype(config.dtype))
    for start in range(0, config.n_series, _MATRIX_FILL_ROWS):
        stop = min(config.n_series, start + _MATRIX_FILL_ROWS)
        block = prototypes[labels[start:stop]]
        if config.noise_std > 0:
            block = block + rng.normal(
                0.0, config.noise_std, size=(stop - start, config.series_length)
            )
        out[start:stop] = block
    return MatrixBackedCollection(
        out,
        name="gaussian-clusters",
        label_key="cluster",
        labels=labels,
        id_prefix="synthetic",
    )
