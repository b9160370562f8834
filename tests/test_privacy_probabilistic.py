"""Tests of the probabilistic differential-privacy accounting."""

from __future__ import annotations

import pytest

from repro.exceptions import PrivacyError, ValidationError
from repro.privacy import (
    delta_from_cycles,
    effective_epsilon,
    gossip_relative_error,
    guarantee_for_run,
)


class TestErrorBounds:
    def test_error_decreases_exponentially(self):
        errors = [gossip_relative_error(c) for c in (1, 5, 10, 20)]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert gossip_relative_error(10) == pytest.approx(0.5**10)

    def test_contraction_parameter(self):
        assert gossip_relative_error(4, contraction=0.25) == pytest.approx(0.25**4)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValidationError):
            gossip_relative_error(0)
        with pytest.raises(ValidationError):
            gossip_relative_error(3, contraction=1.0)


class TestDelta:
    def test_union_bound(self):
        assert delta_from_cycles(10, 100) == pytest.approx(100 * 0.5**10)

    def test_capped_at_one(self):
        assert delta_from_cycles(1, 10**6) == 1.0

    def test_more_cycles_smaller_delta(self):
        assert delta_from_cycles(20, 1000) < delta_from_cycles(10, 1000)


class TestEffectiveEpsilon:
    def test_zero_error_is_identity(self):
        assert effective_epsilon(1.0, 0.0) == 1.0

    def test_inflation(self):
        assert effective_epsilon(1.0, 0.5) == pytest.approx(2.0)

    def test_rejects_error_of_one(self):
        with pytest.raises(PrivacyError):
            effective_epsilon(1.0, 1.0)


class TestGuarantee:
    def test_guarantee_fields(self):
        guarantee = guarantee_for_run(epsilon=1.0, cycles=12, n_participants=1000)
        assert guarantee.epsilon == 1.0
        assert guarantee.effective_epsilon >= 1.0
        assert 0.0 <= guarantee.delta <= 1.0
        assert guarantee.relative_error_bound == pytest.approx(0.5**12)
        as_dict = guarantee.as_dict()
        assert set(as_dict) == {
            "epsilon", "effective_epsilon", "delta", "relative_error_bound",
        }

    def test_more_cycles_tighten_the_guarantee(self):
        loose = guarantee_for_run(1.0, cycles=8, n_participants=1000)
        tight = guarantee_for_run(1.0, cycles=24, n_participants=1000)
        assert tight.delta < loose.delta
        assert tight.effective_epsilon < loose.effective_epsilon

    def test_guarantee_follows_the_contraction(self):
        guarantee = guarantee_for_run(2.0, cycles=4, n_participants=10, contraction=0.25)
        assert guarantee.relative_error_bound == pytest.approx(0.25**4)
        assert guarantee.delta == pytest.approx(10 * 0.25**4)
        assert guarantee.effective_epsilon == pytest.approx(2.0 / (1.0 - 0.25**4))

    def test_single_cycle_doubles_epsilon(self):
        guarantee = guarantee_for_run(1.5, cycles=1, n_participants=3)
        assert guarantee.effective_epsilon == pytest.approx(3.0)
        assert guarantee.delta == 1.0


class TestValidation:
    def test_delta_rejects_empty_population(self):
        with pytest.raises(ValidationError):
            delta_from_cycles(3, 0)

    def test_effective_epsilon_rejects_bad_arguments(self):
        with pytest.raises(PrivacyError):
            effective_epsilon(1.0, -0.1)
        with pytest.raises(ValidationError):
            effective_epsilon(0.0, 0.1)
