"""Small argument-validation helpers shared across the library.

These helpers centralise the repetitive ``if not ...: raise`` checks so that
error messages stay consistent and call sites stay readable.  They raise
:class:`repro.exceptions.ValidationError` which is both a :class:`ReproError`
and a :class:`ValueError`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .exceptions import ValidationError


def check_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a strictly positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Validate that *value* is an integer >= 0 and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_positive_float(value: float, name: str) -> float:
    """Validate that *value* is a finite, strictly positive number."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a finite number > 0, got {value}")
    return value


def check_non_negative_float(value: float, name: str) -> float:
    """Validate that *value* is a finite number >= 0."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(value) or value < 0.0:
        raise ValidationError(f"{name} must be a finite number >= 0, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    value = check_non_negative_float(value, name)
    if value > 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_fraction_open(value: float, name: str) -> float:
    """Validate that *value* lies in the open interval (0, 1)."""
    value = check_positive_float(value, name)
    if value >= 1.0:
        raise ValidationError(f"{name} must be in (0, 1), got {value}")
    return value


def check_in_choices(value: str, choices: Iterable[str], name: str) -> str:
    """Validate that *value* is one of *choices* and return it."""
    options = sorted(choices)
    if value not in options:
        raise ValidationError(f"{name} must be one of {options}, got {value!r}")
    return value


def as_1d_float_array(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """Convert *values* to a finite one-dimensional ``float64`` array."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    return array


def as_2d_float_array(values: Sequence[Sequence[float]] | np.ndarray, name: str) -> np.ndarray:
    """Convert *values* to a finite two-dimensional ``float64`` array."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 2:
        raise ValidationError(f"{name} must be two-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    return array
