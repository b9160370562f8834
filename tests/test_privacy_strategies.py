"""Tests of the privacy-budget distribution strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PrivacyError
from repro.privacy import (
    AdaptiveBudgetStrategy,
    GeometricBudgetStrategy,
    UniformBudgetStrategy,
    make_budget_strategy,
)
import oracles


class TestUniform:
    def test_equal_shares(self):
        strategy = UniformBudgetStrategy(total_epsilon=1.0, max_iterations=4)
        schedule = oracles.schedule(strategy)
        assert len(schedule) == 4
        assert all(share == pytest.approx(0.25) for share in schedule)

    def test_schedule_sums_to_budget(self):
        strategy = UniformBudgetStrategy(2.0, 7)
        assert sum(oracles.schedule(strategy)) == pytest.approx(2.0)

    def test_never_exceeds_remaining(self):
        strategy = UniformBudgetStrategy(1.0, 4)
        assert strategy.epsilon_for_iteration(0, remaining_epsilon=0.1) == pytest.approx(0.1)

    def test_iteration_bounds_checked(self):
        strategy = UniformBudgetStrategy(1.0, 4)
        with pytest.raises(PrivacyError):
            strategy.epsilon_for_iteration(4, 1.0)
        with pytest.raises(PrivacyError):
            strategy.epsilon_for_iteration(-1, 1.0)


class TestGeometric:
    def test_later_iterations_get_more(self):
        strategy = GeometricBudgetStrategy(1.0, 5, ratio=1.5)
        schedule = oracles.schedule(strategy)
        assert all(b > a for a, b in zip(schedule, schedule[1:]))

    def test_ratio_below_one_favours_early_iterations(self):
        strategy = GeometricBudgetStrategy(1.0, 5, ratio=0.5)
        schedule = oracles.schedule(strategy)
        assert all(b < a for a, b in zip(schedule, schedule[1:]))

    def test_ratio_one_is_uniform(self):
        strategy = GeometricBudgetStrategy(1.0, 5, ratio=1.0)
        assert np.allclose(oracles.schedule(strategy), 0.2)

    def test_schedule_sums_to_budget(self):
        strategy = GeometricBudgetStrategy(3.0, 6, ratio=1.3)
        assert sum(oracles.schedule(strategy)) == pytest.approx(3.0)

    def test_weights_are_normalised(self):
        strategy = GeometricBudgetStrategy(1.0, 10, ratio=2.0)
        assert sum(strategy._weights()) == pytest.approx(1.0)


class TestAdaptive:
    def test_no_signal_behaves_like_uniform_on_remaining(self):
        strategy = AdaptiveBudgetStrategy(1.0, 4)
        assert strategy.epsilon_for_iteration(0, 1.0) == pytest.approx(0.25)
        assert strategy.epsilon_for_iteration(2, 0.5) == pytest.approx(0.25)

    def test_fast_progress_front_loads_remaining_budget(self):
        strategy = AdaptiveBudgetStrategy(1.0, 10)
        slow = strategy.epsilon_for_iteration(5, 0.5, progress=0.0)
        fast = strategy.epsilon_for_iteration(5, 0.5, progress=0.95)
        assert fast > slow

    def test_full_progress_spends_all_remaining(self):
        strategy = AdaptiveBudgetStrategy(1.0, 10)
        assert strategy.epsilon_for_iteration(5, 0.4, progress=1.0) == pytest.approx(0.4)

    def test_minimum_fraction_floor(self):
        strategy = AdaptiveBudgetStrategy(1.0, 10, minimum_fraction=0.5)
        # Even with plenty of expected iterations left, the floor applies.
        assert strategy.epsilon_for_iteration(0, 1.0, progress=0.0) >= 0.05

    def test_never_exceeds_remaining(self):
        strategy = AdaptiveBudgetStrategy(1.0, 10)
        assert strategy.epsilon_for_iteration(0, 0.01, progress=1.0) <= 0.01

    def test_invalid_minimum_fraction(self):
        with pytest.raises(PrivacyError):
            AdaptiveBudgetStrategy(1.0, 10, minimum_fraction=0.0)

    def test_dust_budget_is_declared_exhausted(self):
        """A remainder below the floor yields 0, never a sub-floor grant.

        A positive grant below the floor would buy one iteration of uselessly
        large noise — and would violate the minimum_iteration_epsilon() bound
        the packed cipher layer sizes its slots from.
        """
        strategy = AdaptiveBudgetStrategy(1.0, 10)  # floor = 0.025
        assert strategy.epsilon_for_iteration(5, 0.01, progress=1.0) == 0.0
        assert strategy.epsilon_for_iteration(9, 1e-9) == 0.0


class TestMinimumIterationEpsilon:
    @pytest.mark.parametrize("name", ["uniform", "geometric", "adaptive"])
    def test_grants_are_zero_or_at_least_the_minimum(self, name):
        """Simulated spending never produces a positive grant below the bound."""
        strategy = make_budget_strategy(name, 1.0, 8)
        minimum = strategy.minimum_iteration_epsilon()
        assert minimum > 0.0
        rng = np.random.default_rng(1)
        for trial in range(200):
            iteration = int(rng.integers(0, 8))
            remaining = float(rng.uniform(0.0, 1.0)) * float(rng.choice([1.0, 1e-3, 1e-9]))
            epsilon = strategy.epsilon_for_iteration(
                iteration, remaining, progress=float(rng.uniform())
            )
            assert epsilon == 0.0 or epsilon >= min(minimum, remaining) * (1 - 1e-12)
            if name == "adaptive":
                assert epsilon == 0.0 or epsilon >= minimum


class TestFactoryAndInvariants:
    @pytest.mark.parametrize("name", ["uniform", "geometric", "adaptive"])
    def test_factory(self, name):
        strategy = make_budget_strategy(name, 1.0, 5)
        assert strategy.name == name

    def test_factory_unknown(self):
        with pytest.raises(PrivacyError):
            make_budget_strategy("mystery", 1.0, 5)

    @pytest.mark.parametrize("name", ["uniform", "geometric", "adaptive"])
    def test_simulated_run_never_exceeds_budget(self, name):
        """Whatever the strategy, a full run must respect the total budget."""
        total = 1.0
        strategy = make_budget_strategy(name, total, 8)
        remaining = total
        spent = 0.0
        rng = np.random.default_rng(0)
        for iteration in range(8):
            epsilon = strategy.epsilon_for_iteration(
                iteration, remaining, progress=float(rng.uniform())
            )
            assert epsilon <= remaining + 1e-12
            spent += epsilon
            remaining -= epsilon
        assert spent <= total + 1e-9
