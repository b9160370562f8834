"""Differential-privacy substrate: Laplace mechanism, noise-shares, budget
accounting, budget-distribution strategies and probabilistic-DP accounting."""

from .budget import BudgetSpend, PrivacyAccountant
from .laplace import SensitivityModel, sample_laplace
from .noise_shares import (
    NoiseShareSpec,
    draw_noise_share,
    reconstructed_variance,
    share_variance,
    slot_magnitude_bound,
    sum_of_shares,
)
from .probabilistic import (
    ProbabilisticGuarantee,
    delta_from_cycles,
    effective_epsilon,
    gossip_relative_error,
    guarantee_for_run,
)
from .strategies import (
    AdaptiveBudgetStrategy,
    BudgetStrategy,
    GeometricBudgetStrategy,
    UniformBudgetStrategy,
    make_budget_strategy,
)

__all__ = [
    "SensitivityModel",
    "sample_laplace",
    "NoiseShareSpec",
    "draw_noise_share",
    "sum_of_shares",
    "share_variance",
    "reconstructed_variance",
    "slot_magnitude_bound",
    "PrivacyAccountant",
    "BudgetSpend",
    "BudgetStrategy",
    "UniformBudgetStrategy",
    "GeometricBudgetStrategy",
    "AdaptiveBudgetStrategy",
    "make_budget_strategy",
    "ProbabilisticGuarantee",
    "gossip_relative_error",
    "delta_from_cycles",
    "effective_epsilon",
    "guarantee_for_run",
]
