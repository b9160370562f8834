"""Tests of the privacy accountant and composition helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.privacy import PrivacyAccountant


class TestAccountant:
    def test_initial_state(self):
        accountant = PrivacyAccountant(2.0, delta_slack=1e-5)
        assert accountant.spent_epsilon == 0.0
        assert accountant.remaining_epsilon == 2.0
        assert accountant.delta_slack == 1e-5
        assert list(accountant) == []

    def test_spend_accumulates(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend(0.25, label="a")
        accountant.spend(0.5, label="b")
        assert accountant.spent_epsilon == pytest.approx(0.75)
        assert accountant.remaining_epsilon == pytest.approx(0.25)
        assert [spend.label for spend in accountant] == ["a", "b"]

    def test_spend_exceeding_budget_raises(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend(0.9)
        with pytest.raises(BudgetExhaustedError):
            accountant.spend(0.2)
        # The failed spend must not be recorded.
        assert len(list(accountant)) == 1

    def test_can_spend(self):
        accountant = PrivacyAccountant(1.0)
        assert accountant.can_spend(1.0)
        accountant.spend(0.6)
        assert accountant.can_spend(0.4)
        assert not accountant.can_spend(0.5)

    def test_exact_budget_is_spendable(self):
        accountant = PrivacyAccountant(1.0)
        for _ in range(10):
            accountant.spend(0.1)
        assert accountant.remaining_epsilon == pytest.approx(0.0, abs=1e-12)

    def test_numerical_tolerance_for_floating_point_schedules(self):
        accountant = PrivacyAccountant(1.0)
        # 7 equal shares do not sum to exactly 1.0 in floating point.
        for _ in range(7):
            accountant.spend(1.0 / 7.0)

    def test_rejects_non_positive_spend(self):
        accountant = PrivacyAccountant(1.0)
        with pytest.raises(ValidationError):
            accountant.spend(0.0)

    def test_rejects_invalid_budget(self):
        with pytest.raises(ValidationError):
            PrivacyAccountant(0.0)
        with pytest.raises(ValidationError):
            PrivacyAccountant(1.0, delta_slack=-0.1)
