"""Probabilistic differential-privacy accounting for gossip approximation.

Chiaroscuro satisfies a *probabilistic variant* of ε-differential privacy
(paper, Section II.A): the noise added to a disclosed aggregate is built from
noise-shares that are themselves summed by an *approximate* gossip protocol,
so the realised noise can deviate slightly from the exact Laplace sample.
With probability at least 1 - δ the relative gossip error stays below a bound
ρ that decreases exponentially with the number of gossip cycles (Kempe,
Dobra, Gehrke, FOCS 2003); conditioned on that event the mechanism is
ε'-differentially private with ε' = ε / (1 - ρ).

This module turns the gossip parameters into the (ε', δ) pair reported by the
privacy accountant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_fraction_open, check_positive_float, check_positive_int
from ..exceptions import PrivacyError


@dataclass(frozen=True)
class ProbabilisticGuarantee:
    """The realised guarantee: ε' with probability ≥ 1 - δ."""

    epsilon: float
    effective_epsilon: float
    delta: float
    relative_error_bound: float

    def as_dict(self) -> dict[str, float]:
        """Plain dictionary view (for reports and logs)."""
        return {
            "epsilon": self.epsilon,
            "effective_epsilon": self.effective_epsilon,
            "delta": self.delta,
            "relative_error_bound": self.relative_error_bound,
        }


def gossip_relative_error(cycles: int, contraction: float = 0.5) -> float:
    """Deterministic bound on the relative mass-diffusion error after *cycles*.

    Push-sum style protocols contract the diffusion error by a constant factor
    per cycle (in expectation, 1/2 for uniform random peer selection), so the
    relative error after c cycles is bounded by ``contraction ** cycles``.
    """
    check_positive_int(cycles, "cycles")
    contraction = check_fraction_open(contraction, "contraction")
    return float(contraction**cycles)


def delta_from_cycles(cycles: int, n_participants: int, contraction: float = 0.5) -> float:
    """Probability that some participant's gossip error exceeds the bound.

    A union bound over participants of the per-node exponential tail: each
    node's relative error exceeds contraction^cycles with probability at most
    contraction^cycles, so δ ≤ min(1, n · contraction^(cycles)).
    """
    check_positive_int(n_participants, "n_participants")
    error = gossip_relative_error(cycles, contraction)
    return float(min(1.0, n_participants * error))


def effective_epsilon(epsilon: float, relative_error: float) -> float:
    """ε' = ε / (1 - ρ): the privacy level conditioned on the gossip error event.

    When the gossip sum under-delivers a fraction ρ of the noise mass, the
    realised Laplace scale shrinks by (1 - ρ) and the exponent of the privacy
    loss grows by 1 / (1 - ρ).
    """
    check_positive_float(epsilon, "epsilon")
    if not 0.0 <= relative_error < 1.0:
        raise PrivacyError(f"relative_error must be in [0, 1), got {relative_error}")
    return float(epsilon / (1.0 - relative_error))


def guarantee_for_run(
    epsilon: float,
    cycles: int,
    n_participants: int,
    contraction: float = 0.5,
) -> ProbabilisticGuarantee:
    """Assemble the probabilistic guarantee achieved by a run."""
    error = gossip_relative_error(cycles, contraction)
    if error >= 1.0:
        raise PrivacyError("gossip error bound must be below 1; run more cycles")
    return ProbabilisticGuarantee(
        epsilon=float(epsilon),
        effective_epsilon=effective_epsilon(epsilon, error),
        delta=delta_from_cycles(cycles, n_participants, contraction),
        relative_error_bound=error,
    )
