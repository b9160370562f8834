"""Tests of the shared argument-validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro._validation import (
    as_1d_float_array,
    as_2d_float_array,
    check_fraction_open,
    check_in_choices,
    check_non_negative_float,
    check_non_negative_int,
    check_positive_float,
    check_positive_int,
    check_probability,
)
from repro.exceptions import ReproError, ValidationError


class TestScalarChecks:
    def test_positive_int_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_positive_int_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive_int(0, "x")

    def test_positive_int_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, "x")

    def test_positive_int_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.5, "x")

    def test_non_negative_int_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative_int(-1, "x")

    def test_positive_float_accepts(self):
        assert check_positive_float(0.25, "x") == 0.25

    def test_positive_float_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive_float(0.0, "x")

    def test_positive_float_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive_float(float("nan"), "x")

    def test_positive_float_rejects_inf(self):
        with pytest.raises(ValidationError):
            check_positive_float(float("inf"), "x")

    def test_positive_float_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_positive_float("abc", "x")  # type: ignore[arg-type]

    def test_non_negative_float_accepts_zero(self):
        assert check_non_negative_float(0.0, "x") == 0.0

    def test_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValidationError):
            check_probability(1.5, "p")

    def test_fraction_open_rejects_one(self):
        with pytest.raises(ValidationError):
            check_fraction_open(1.0, "f")

    def test_fraction_open_accepts_half(self):
        assert check_fraction_open(0.5, "f") == 0.5

    def test_in_choices(self):
        assert check_in_choices("a", ("a", "b"), "x") == "a"
        with pytest.raises(ValidationError):
            check_in_choices("c", ("a", "b"), "x")


class TestArrayChecks:
    def test_1d_conversion(self):
        out = as_1d_float_array([1, 2, 3], "x")
        assert out.dtype == float
        assert out.shape == (3,)

    def test_1d_rejects_2d(self):
        with pytest.raises(ValidationError):
            as_1d_float_array([[1, 2], [3, 4]], "x")

    def test_1d_rejects_empty(self):
        with pytest.raises(ValidationError):
            as_1d_float_array([], "x")

    def test_1d_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_1d_float_array([1.0, float("nan")], "x")

    def test_2d_conversion(self):
        out = as_2d_float_array([[1, 2], [3, 4]], "x")
        assert out.shape == (2, 2)

    def test_2d_rejects_1d(self):
        with pytest.raises(ValidationError):
            as_2d_float_array([1, 2, 3], "x")

    def test_2d_rejects_inf(self):
        with pytest.raises(ValidationError):
            as_2d_float_array([[1.0, float("inf")]], "x")

    def test_validation_error_is_repro_and_value_error(self):
        assert issubclass(ValidationError, ReproError)
        assert issubclass(ValidationError, ValueError)
