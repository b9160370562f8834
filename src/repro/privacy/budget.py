"""Privacy-budget accounting (sequential self-composition).

Every Chiaroscuro iteration discloses one differentially-private release, so
the total privacy level of a run is the sum of the per-iteration ε values
(self-composition property recalled in Section II.A of the paper).  The
:class:`PrivacyAccountant` enforces that the sum never exceeds the configured
budget, records each spend with its context, and reports the realised global
guarantee — including the probabilistic slack δ caused by the gossip
approximation (see :mod:`repro.privacy.probabilistic`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .._validation import check_non_negative_float, check_positive_float
from ..exceptions import BudgetExhaustedError


@dataclass(frozen=True)
class BudgetSpend:
    """One recorded disclosure: how much ε it consumed and why."""

    epsilon: float
    label: str
    details: dict[str, Any] = field(default_factory=dict)


class PrivacyAccountant:
    """Tracks and enforces the ε budget of a run.

    Parameters
    ----------
    total_epsilon:
        The overall budget; the accountant refuses any spend that would push
        the cumulative total beyond it (up to a tiny numerical tolerance).
    delta_slack:
        Probabilistic slack of the guarantee, reported alongside ε (the
        accountant does not subdivide δ: the gossip analysis produces a
        single per-run value).
    """

    #: Relative numerical tolerance when comparing spends against the budget.
    _TOLERANCE = 1e-9

    def __init__(self, total_epsilon: float, delta_slack: float = 0.0) -> None:
        self.total_epsilon = check_positive_float(total_epsilon, "total_epsilon")
        self.delta_slack = check_non_negative_float(delta_slack, "delta_slack")
        self._spends: list[BudgetSpend] = []

    # ------------------------------------------------------------------ queries
    @property
    def spent_epsilon(self) -> float:
        """Total ε consumed so far."""
        return float(sum(spend.epsilon for spend in self._spends))

    @property
    def remaining_epsilon(self) -> float:
        """Budget still available (never negative)."""
        return max(0.0, self.total_epsilon - self.spent_epsilon)

    @property
    def n_spends(self) -> int:
        """Number of recorded disclosures."""
        return len(self._spends)

    def __iter__(self) -> Iterator[BudgetSpend]:
        return iter(self._spends)

    def can_spend(self, epsilon: float) -> bool:
        """Whether a spend of *epsilon* fits in the remaining budget."""
        epsilon = check_positive_float(epsilon, "epsilon")
        limit = self.total_epsilon * (1.0 + self._TOLERANCE)
        return self.spent_epsilon + epsilon <= limit

    # ------------------------------------------------------------------ commands
    def spend(self, epsilon: float, label: str = "", **details: Any) -> BudgetSpend:
        """Record a disclosure of *epsilon*; raise if the budget is exceeded."""
        epsilon = check_positive_float(epsilon, "epsilon")
        if not self.can_spend(epsilon):
            raise BudgetExhaustedError(
                f"spending ε={epsilon:.6g} would exceed the budget "
                f"(spent {self.spent_epsilon:.6g} of {self.total_epsilon:.6g})"
            )
        spend = BudgetSpend(epsilon=epsilon, label=label, details=dict(details))
        self._spends.append(spend)
        return spend

    def reset(self) -> None:
        """Forget every recorded spend (used when replaying configurations)."""
        self._spends.clear()

    # ------------------------------------------------------------------ reporting
    def report(self) -> dict[str, Any]:
        """Summary of the realised guarantee, suitable for the execution log."""
        return {
            "total_epsilon": self.total_epsilon,
            "spent_epsilon": self.spent_epsilon,
            "remaining_epsilon": self.remaining_epsilon,
            "delta_slack": self.delta_slack,
            "n_spends": self.n_spends,
            "spends": [
                {"epsilon": spend.epsilon, "label": spend.label, **spend.details}
                for spend in self._spends
            ],
        }
