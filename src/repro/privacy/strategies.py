"""Privacy-budget distribution strategies (quality-enhancing heuristic #1).

Chiaroscuro "acts on the quality of the sequence of centroids through smart
privacy budget distribution strategies" (Section II.B).  The intuition: early
k-means iterations only need a rough idea of where the centroids are, while
the last iterations fix the final profiles, so giving later iterations a
larger share of the ε budget (hence less noise) improves final quality at an
unchanged total privacy level.

Three strategies are provided:

* :class:`UniformBudgetStrategy` — every iteration gets ε / max_iterations;
* :class:`GeometricBudgetStrategy` — iteration budgets follow a geometric
  progression of ratio r > 1 (later iterations get more);
* :class:`AdaptiveBudgetStrategy` — after each iteration the remaining budget
  is re-planned over the *expected* number of remaining iterations, estimated
  from the observed centroid displacement (fast convergence ⇒ fewer expected
  iterations ⇒ larger per-iteration shares).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._validation import check_positive_float, check_positive_int
from ..exceptions import PrivacyError

#: Common ratio of the ``"geometric"`` strategy a configuration names: each
#: iteration gets 1.3 times the budget of the one before.
GEOMETRIC_RATIO = 1.3


class BudgetStrategy(ABC):
    """Decides how much ε each iteration may spend."""

    #: Registry name used in configurations.
    name: str = "abstract"

    def __init__(self, total_epsilon: float, max_iterations: int) -> None:
        self.total_epsilon = check_positive_float(total_epsilon, "total_epsilon")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")

    @abstractmethod
    def epsilon_for_iteration(self, iteration: int, remaining_epsilon: float,
                              progress: float | None = None) -> float:
        """Budget for the 0-based *iteration*.

        Parameters
        ----------
        iteration:
            0-based iteration index (< ``max_iterations``).
        remaining_epsilon:
            Budget not yet spent (the strategy must never return more).
        progress:
            Optional convergence signal in [0, 1]; 1 means the centroids did
            not move at all during the previous iteration.  Only the adaptive
            strategy uses it.
        """

    @abstractmethod
    def minimum_iteration_epsilon(self) -> float:
        """Smallest *positive* budget the strategy can ever grant.

        Every strategy returns either 0 (stop: budget exhausted) or at least
        this much, whatever the runtime spending pattern.  The packed cipher
        layer sizes its slots from the worst-case Laplace scale, i.e. from
        this bound, so the guarantee must hold unconditionally.
        """

    def _check_iteration(self, iteration: int) -> None:
        if not 0 <= iteration < self.max_iterations:
            raise PrivacyError(
                f"iteration {iteration} outside [0, {self.max_iterations})"
            )

    def schedule(self) -> list[float]:
        """The planned per-iteration budgets, assuming every iteration runs.

        For the adaptive strategy this is the no-signal plan (uniform over the
        remaining iterations at each step).
        """
        remaining = self.total_epsilon
        planned = []
        for iteration in range(self.max_iterations):
            epsilon = self.epsilon_for_iteration(iteration, remaining)
            planned.append(epsilon)
            remaining -= epsilon
        return planned


class UniformBudgetStrategy(BudgetStrategy):
    """Every iteration receives the same share ε / max_iterations."""

    name = "uniform"

    def epsilon_for_iteration(self, iteration: int, remaining_epsilon: float,
                              progress: float | None = None) -> float:
        self._check_iteration(iteration)
        share = self.total_epsilon / self.max_iterations
        return float(min(share, max(remaining_epsilon, 0.0)))

    def minimum_iteration_epsilon(self) -> float:
        # Iterations only ever spend full shares, so the remainder can never
        # fall strictly between 0 and one share (up to float dust).
        return 0.5 * self.total_epsilon / self.max_iterations


class GeometricBudgetStrategy(BudgetStrategy):
    """Per-iteration budgets follow a geometric progression.

    With ratio r and T iterations, iteration t receives
    ε * r^t * (r - 1) / (r^T - 1); r > 1 favours later iterations, r < 1
    favours earlier ones, and the limit r → 1 recovers the uniform strategy.
    """

    name = "geometric"

    def __init__(self, total_epsilon: float, max_iterations: int,
                 ratio: float = GEOMETRIC_RATIO) -> None:
        super().__init__(total_epsilon, max_iterations)
        self.ratio = check_positive_float(ratio, "ratio")

    def _weights(self) -> np.ndarray:
        if abs(self.ratio - 1.0) < 1e-12:
            return np.full(self.max_iterations, 1.0 / self.max_iterations)
        powers = np.power(self.ratio, np.arange(self.max_iterations, dtype=float))
        return powers / powers.sum()

    def epsilon_for_iteration(self, iteration: int, remaining_epsilon: float,
                              progress: float | None = None) -> float:
        self._check_iteration(iteration)
        share = float(self.total_epsilon * self._weights()[iteration])
        return float(min(share, max(remaining_epsilon, 0.0)))

    def minimum_iteration_epsilon(self) -> float:
        # Same invariant as the uniform strategy, with the smallest weight.
        return 0.5 * float(self.total_epsilon * self._weights().min())


class AdaptiveBudgetStrategy(BudgetStrategy):
    """Re-plans the remaining budget from the observed convergence progress.

    The expected number of remaining iterations is estimated as
    ``ceil((1 - progress) * (max_iterations - iteration))`` (at least 1); the
    remaining budget is split uniformly over that estimate.  When no progress
    signal is available the strategy behaves like a uniform split of the
    remaining budget over the remaining iterations.
    """

    name = "adaptive"

    def __init__(self, total_epsilon: float, max_iterations: int,
                 minimum_fraction: float = 0.25) -> None:
        super().__init__(total_epsilon, max_iterations)
        if not 0.0 < minimum_fraction <= 1.0:
            raise PrivacyError(f"minimum_fraction must be in (0, 1], got {minimum_fraction}")
        self.minimum_fraction = minimum_fraction

    def epsilon_for_iteration(self, iteration: int, remaining_epsilon: float,
                              progress: float | None = None) -> float:
        self._check_iteration(iteration)
        remaining = max(remaining_epsilon, 0.0)
        floor = self.minimum_fraction * self.total_epsilon / self.max_iterations
        if remaining < floor:
            # Dust budget: a sub-floor grant would buy one iteration of
            # astronomically-scaled (useless) noise — and would break the
            # minimum_iteration_epsilon() guarantee the packed cipher layer
            # sizes its slots from.  Declare the budget exhausted instead.
            return 0.0
        remaining_iterations = self.max_iterations - iteration
        if progress is not None:
            progress = float(np.clip(progress, 0.0, 1.0))
            expected = int(np.ceil((1.0 - progress) * remaining_iterations))
            expected = max(1, min(remaining_iterations, expected))
        else:
            expected = remaining_iterations
        share = remaining / expected
        return float(min(max(share, floor), remaining))

    def minimum_iteration_epsilon(self) -> float:
        return self.minimum_fraction * self.total_epsilon / self.max_iterations


def make_budget_strategy(
    name: str, total_epsilon: float, max_iterations: int
) -> BudgetStrategy:
    """Factory mapping a configuration string to a strategy instance."""
    if name == "uniform":
        return UniformBudgetStrategy(total_epsilon, max_iterations)
    if name == "geometric":
        return GeometricBudgetStrategy(total_epsilon, max_iterations)
    if name == "adaptive":
        return AdaptiveBudgetStrategy(total_epsilon, max_iterations)
    raise PrivacyError(f"unknown budget strategy {name!r}")
