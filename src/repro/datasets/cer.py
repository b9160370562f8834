"""Synthetic stand-in for the CER Irish smart-meter dataset.

The demonstration uses the CER Electricity Customer Behaviour Trial dataset
(ISSDA), which is distributed under a restrictive licence and cannot be
redistributed here.  This module generates electricity-consumption
time-series from a small set of *household archetypes* (behavioural
profiles): each archetype defines a base load, morning/evening peak shapes,
a weekday/weekend modulation and an appliance-spike rate.  The generator
produces data with the properties the protocol actually relies on — fixed
length, bounded positive values, and latent cluster structure — so every
code path exercised by the real dataset is exercised here.

The ground-truth archetype of each household is stored in the series
metadata under the key ``"archetype"`` so that external clustering-quality
metrics (adjusted Rand index) can be computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_non_negative_float, check_positive_int
from ..exceptions import DatasetError
from ..timeseries import TimeSeries, TimeSeriesCollection

#: Number of half-hourly readings per day, as in the CER trial.
READINGS_PER_DAY = 48


@dataclass(frozen=True)
class HouseholdArchetype:
    """Behavioural profile of a class of households.

    Attributes
    ----------
    name:
        Archetype identifier (becomes the ground-truth label).
    base_load_kw:
        Always-on consumption (fridge, standby devices), in kW.
    morning_peak_kw / evening_peak_kw:
        Amplitude of the morning and evening activity peaks, in kW.
    morning_peak_hour / evening_peak_hour:
        Centre of the peaks, in hours (0-24).
    peak_width_hours:
        Standard deviation of the Gaussian-shaped peaks, in hours.
    weekend_factor:
        Multiplicative factor applied to daytime consumption on weekends
        (e.g. > 1 for families at home, < 1 for commuters away).
    night_owl:
        Fraction of the evening peak shifted toward late night.
    spike_rate:
        Expected number of appliance spikes (washing machine, oven) per day.
    spike_amplitude_kw:
        Amplitude of each appliance spike, in kW.
    """

    name: str
    base_load_kw: float
    morning_peak_kw: float
    evening_peak_kw: float
    morning_peak_hour: float = 7.5
    evening_peak_hour: float = 19.0
    peak_width_hours: float = 1.5
    weekend_factor: float = 1.0
    night_owl: float = 0.0
    spike_rate: float = 1.0
    spike_amplitude_kw: float = 0.8


#: Default archetype catalogue, loosely inspired by published CER clusterings
#: (low consumers, commuters, families, home workers, night owls, businesses).
DEFAULT_ARCHETYPES: tuple[HouseholdArchetype, ...] = (
    HouseholdArchetype("low_consumer", 0.10, 0.15, 0.35, weekend_factor=1.05,
                       spike_rate=0.4, spike_amplitude_kw=0.5),
    HouseholdArchetype("commuter", 0.15, 0.60, 0.90, morning_peak_hour=7.0,
                       evening_peak_hour=19.5, weekend_factor=1.3, spike_rate=0.8),
    HouseholdArchetype("family", 0.25, 0.80, 1.40, morning_peak_hour=7.5,
                       evening_peak_hour=18.5, weekend_factor=1.2, spike_rate=2.0,
                       spike_amplitude_kw=1.0),
    HouseholdArchetype("home_worker", 0.30, 0.50, 0.80, morning_peak_hour=9.0,
                       evening_peak_hour=20.0, peak_width_hours=3.0,
                       weekend_factor=1.0, spike_rate=1.5),
    HouseholdArchetype("night_owl", 0.20, 0.20, 0.90, evening_peak_hour=22.0,
                       weekend_factor=1.1, night_owl=0.6, spike_rate=1.0),
    HouseholdArchetype("small_business", 0.40, 1.20, 0.60, morning_peak_hour=10.0,
                       evening_peak_hour=16.0, peak_width_hours=3.5,
                       weekend_factor=0.3, spike_rate=0.5),
)


@dataclass(frozen=True)
class CERConfig:
    """Parameters of the synthetic CER-like generator.

    Attributes
    ----------
    n_households:
        Number of generated households (one series per household).
    n_days:
        Number of consecutive days covered by each series.
    readings_per_day:
        Sampling rate; 48 matches the half-hourly CER meters.
    noise_std_kw:
        Standard deviation of the per-reading measurement noise.
    archetypes:
        Archetype catalogue to draw households from.
    archetype_weights:
        Optional relative frequency of each archetype (uniform when omitted).
    seed:
        Seed of the generator.
    """

    n_households: int = 200
    n_days: int = 7
    readings_per_day: int = READINGS_PER_DAY
    noise_std_kw: float = 0.05
    archetypes: tuple[HouseholdArchetype, ...] = DEFAULT_ARCHETYPES
    archetype_weights: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.n_households, "n_households")
        check_positive_int(self.n_days, "n_days")
        check_positive_int(self.readings_per_day, "readings_per_day")
        check_non_negative_float(self.noise_std_kw, "noise_std_kw")
        if not self.archetypes:
            raise DatasetError("at least one archetype is required")
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
        return self.n_days * self.readings_per_day


def _gaussian_bump(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    """Gaussian-shaped activity bump over hours-of-day, wrapping at midnight."""
    delta = np.minimum(np.abs(hours - center), 24.0 - np.abs(hours - center))
    return np.exp(-0.5 * (delta / width) ** 2)


def _household_day(
    archetype: HouseholdArchetype,
    hours: np.ndarray,
    is_weekend: bool,
    rng: np.random.Generator,
    readings_per_day: int,
) -> np.ndarray:
    """Generate one day of consumption for a household of the given archetype."""
    profile = np.full(readings_per_day, archetype.base_load_kw)
    morning = archetype.morning_peak_kw * _gaussian_bump(
        hours, archetype.morning_peak_hour, archetype.peak_width_hours
    )
    evening_center = archetype.evening_peak_hour + 3.0 * archetype.night_owl
    evening = archetype.evening_peak_kw * _gaussian_bump(
        hours, evening_center, archetype.peak_width_hours
    )
    daytime = morning + evening
    if is_weekend:
        daytime = daytime * archetype.weekend_factor
    profile = profile + daytime
    # Appliance spikes: a Poisson number of short rectangular pulses.
    n_spikes = rng.poisson(archetype.spike_rate)
    for _ in range(n_spikes):
        start = rng.integers(0, readings_per_day)
        duration = int(rng.integers(1, 4))
        end = min(readings_per_day, start + duration)
        profile[start:end] += archetype.spike_amplitude_kw * rng.uniform(0.7, 1.3)
    return profile


def generate_cer_like(config: CERConfig | None = None, **overrides: object) -> TimeSeriesCollection:
    """Generate a CER-like collection of household electricity time-series.

    Parameters may be passed either as a :class:`CERConfig` or as keyword
    overrides of the default configuration.

    Returns
    -------
    TimeSeriesCollection
        One series per household; metadata carries ``archetype`` (ground
        truth) and ``household`` (index).
    """
    if config is None:
        config = CERConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise DatasetError("pass either a CERConfig or keyword overrides, not both")
    rng = np.random.default_rng(config.seed)
    hours = (np.arange(config.readings_per_day) + 0.5) * (24.0 / config.readings_per_day)
    weights = None
    if config.archetype_weights is not None:
        total = float(sum(config.archetype_weights))
        weights = [weight / total for weight in config.archetype_weights]
    archetype_indices = rng.choice(len(config.archetypes), size=config.n_households, p=weights)

    series: list[TimeSeries] = []
    for household, archetype_index in enumerate(archetype_indices):
        archetype = config.archetypes[int(archetype_index)]
        # Per-household persistent multiplier models household size / insulation.
        household_scale = float(rng.uniform(0.8, 1.2))
        days = []
        for day in range(config.n_days):
            is_weekend = day % 7 >= 5
            days.append(
                _household_day(archetype, hours, is_weekend, rng, config.readings_per_day)
            )
        values = np.concatenate(days) * household_scale
        if config.noise_std_kw > 0:
            values = values + rng.normal(0.0, config.noise_std_kw, size=values.shape)
        values = np.clip(values, 0.0, None)
        series.append(
            TimeSeries(
                values,
                series_id=f"household-{household:05d}",
                metadata={"archetype": archetype.name, "household": household},
            )
        )
    return TimeSeriesCollection(series, name="cer-synthetic")
