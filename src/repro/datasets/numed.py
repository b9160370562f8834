"""Synthetic NUMED-like tumor-growth time-series.

The demonstration's second use-case clusters tumor-size time-series generated
from the tumor-growth-inhibition (TGI) model of Claret et al. (J. Clin. Onc.
2013, reference [9] of the paper).  The model describes tumor size y(t) under
treatment as the interplay of an exponential natural growth and an
exponentially-waning drug-induced shrinkage:

    dy/dt = KL * y(t) - KD(t) * y(t),        KD(t) = KD0 * exp(-lambda * t)

whose closed form is

    y(t) = y0 * exp( KL * t - (KD0 / lambda) * (1 - exp(-lambda * t)) ).

Patients are drawn from *response archetypes* (responder, stable disease,
progressive disease, relapse) that differ by their (KL, KD0, lambda) ranges,
which yields the cluster structure the demonstration displays over twenty
weeks of follow-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_non_negative_float, check_positive_float, check_positive_int
from ..exceptions import DatasetError
from ..timeseries import TimeSeries, TimeSeriesCollection


@dataclass(frozen=True)
class ResponseArchetype:
    """Parameter ranges of a class of patients under the Claret TGI model.

    Rates are expressed per week.  ``growth_rate`` is KL, ``decay_rate`` is
    KD0 and ``resistance_rate`` is lambda (how quickly the drug effect wanes).
    Each range is ``(low, high)`` and per-patient values are drawn uniformly.
    """

    name: str
    growth_rate: tuple[float, float]
    decay_rate: tuple[float, float]
    resistance_rate: tuple[float, float]
    baseline_size_mm: tuple[float, float] = (30.0, 90.0)


#: Default response archetypes spanning the classic RECIST-like categories.
DEFAULT_RESPONSE_ARCHETYPES: tuple[ResponseArchetype, ...] = (
    ResponseArchetype(
        "responder", growth_rate=(0.005, 0.02), decay_rate=(0.10, 0.20),
        resistance_rate=(0.01, 0.04),
    ),
    ResponseArchetype(
        "stable", growth_rate=(0.02, 0.04), decay_rate=(0.04, 0.08),
        resistance_rate=(0.02, 0.06),
    ),
    ResponseArchetype(
        "progressive", growth_rate=(0.05, 0.09), decay_rate=(0.00, 0.03),
        resistance_rate=(0.05, 0.12),
    ),
    ResponseArchetype(
        "relapse", growth_rate=(0.04, 0.07), decay_rate=(0.12, 0.22),
        resistance_rate=(0.15, 0.30),
    ),
)


@dataclass(frozen=True)
class NUMEDConfig:
    """Parameters of the synthetic NUMED-like generator.

    Attributes
    ----------
    n_patients:
        Number of generated patients (one series per patient).
    n_weeks:
        Follow-up duration; the demo shows tumor growth "over twenty weeks".
    measurements_per_week:
        Sampling rate of the tumor-size measurements.
    noise_std_mm:
        Standard deviation of the measurement noise, in millimetres.
    archetypes:
        Response-archetype catalogue.
    archetype_weights:
        Optional relative frequency of each archetype (uniform when omitted).
    seed:
        Seed of the generator.
    """

    n_patients: int = 200
    n_weeks: int = 20
    measurements_per_week: int = 1
    noise_std_mm: float = 1.0
    archetypes: tuple[ResponseArchetype, ...] = DEFAULT_RESPONSE_ARCHETYPES
    archetype_weights: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.n_patients, "n_patients")
        check_positive_int(self.n_weeks, "n_weeks")
        check_positive_int(self.measurements_per_week, "measurements_per_week")
        check_non_negative_float(self.noise_std_mm, "noise_std_mm")
        if not self.archetypes:
            raise DatasetError("at least one response archetype is required")
        if self.archetype_weights is not None:
            if len(self.archetype_weights) != len(self.archetypes):
                raise DatasetError(
                    "archetype_weights must have one entry per archetype "
                    f"({len(self.archetype_weights)} != {len(self.archetypes)})"
                )
            if any(weight < 0 for weight in self.archetype_weights):
                raise DatasetError("archetype_weights must be non-negative")
            if sum(self.archetype_weights) <= 0:
                raise DatasetError("archetype_weights must not all be zero")

    @property
    def series_length(self) -> int:
        """Number of points of every generated series."""
        return self.n_weeks * self.measurements_per_week


def claret_tumor_size(
    times_weeks: np.ndarray,
    baseline_size: float,
    growth_rate: float,
    decay_rate: float,
    resistance_rate: float,
) -> np.ndarray:
    """Closed-form Claret tumor-growth-inhibition trajectory.

    Parameters
    ----------
    times_weeks:
        Measurement times in weeks (>= 0).
    baseline_size:
        Tumor size at t=0 (millimetres).
    growth_rate:
        Natural exponential growth rate KL (per week).
    decay_rate:
        Initial drug-induced shrinkage rate KD0 (per week).
    resistance_rate:
        Rate lambda at which the drug effect wanes (per week); 0 means a
        constant drug effect.
    """
    times = np.asarray(times_weeks, dtype=float)
    if np.any(times < 0):
        raise DatasetError("measurement times must be non-negative")
    check_positive_float(baseline_size, "baseline_size")
    check_non_negative_float(growth_rate, "growth_rate")
    check_non_negative_float(decay_rate, "decay_rate")
    check_non_negative_float(resistance_rate, "resistance_rate")
    if resistance_rate == 0.0:
        drug_term = decay_rate * times
    else:
        drug_term = (decay_rate / resistance_rate) * (1.0 - np.exp(-resistance_rate * times))
    return baseline_size * np.exp(growth_rate * times - drug_term)


def generate_numed_like(
    config: NUMEDConfig | None = None, **overrides: object
) -> TimeSeriesCollection:
    """Generate a NUMED-like collection of tumor-size time-series.

    Returns
    -------
    TimeSeriesCollection
        One series per patient; metadata carries ``archetype`` (ground truth),
        ``patient`` (index) and the drawn model parameters.
    """
    if config is None:
        config = NUMEDConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise DatasetError("pass either a NUMEDConfig or keyword overrides, not both")
    rng = np.random.default_rng(config.seed)
    n_points = config.series_length
    times = np.arange(n_points, dtype=float) / config.measurements_per_week
    weights = None
    if config.archetype_weights is not None:
        total = float(sum(config.archetype_weights))
        weights = [weight / total for weight in config.archetype_weights]
    archetype_indices = rng.choice(len(config.archetypes), size=config.n_patients, p=weights)

    series: list[TimeSeries] = []
    for patient, archetype_index in enumerate(archetype_indices):
        archetype = config.archetypes[int(archetype_index)]
        baseline = float(rng.uniform(*archetype.baseline_size_mm))
        growth = float(rng.uniform(*archetype.growth_rate))
        decay = float(rng.uniform(*archetype.decay_rate))
        resistance = float(rng.uniform(*archetype.resistance_rate))
        trajectory = claret_tumor_size(times, baseline, growth, decay, resistance)
        if config.noise_std_mm > 0:
            trajectory = trajectory + rng.normal(0.0, config.noise_std_mm, size=n_points)
        trajectory = np.clip(trajectory, 0.0, None)
        series.append(
            TimeSeries(
                trajectory,
                series_id=f"patient-{patient:05d}",
                metadata={
                    "archetype": archetype.name,
                    "patient": patient,
                    "baseline_size_mm": baseline,
                    "growth_rate": growth,
                    "decay_rate": decay,
                    "resistance_rate": resistance,
                },
            )
        )
    return TimeSeriesCollection(series, name="numed-synthetic")
