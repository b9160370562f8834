"""The Laplace mechanism and the sensitivity model used by Chiaroscuro.

At every iteration the protocol discloses, for each of the *k* clusters, the
(perturbed) sum of the member time-series and the (perturbed) member count.
Under the add/remove-one-individual neighbouring relation, one participant
influences exactly one cluster: its series (clipped point-wise to
``value_bound``) moves one cluster sum by at most ``series_length *
value_bound`` in L1 norm and one count by 1 (:data:`COUNT_SENSITIVITY`).  The
L1 sensitivity of the full per-iteration release is therefore
``series_length * value_bound + 1`` and the Laplace mechanism with scale
``sensitivity / epsilon`` applied independently to every released coordinate guarantees
ε-differential privacy for that iteration; iterations compose sequentially
(see :mod:`repro.privacy.budget`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive_float, check_positive_int

#: What one individual adds to the per-cluster counts: its membership
#: indicator, 1 by construction.
COUNT_SENSITIVITY = 1.0


@dataclass(frozen=True)
class SensitivityModel:
    """L1 sensitivity of one Chiaroscuro iteration's release.

    Attributes
    ----------
    series_length:
        Number of points per time-series (and per cluster-sum vector).
    value_bound:
        Public clipping bound on the absolute value of any series point.
    """

    series_length: int
    value_bound: float = 1.0

    def __post_init__(self) -> None:
        check_positive_int(self.series_length, "series_length")
        check_positive_float(self.value_bound, "value_bound")

    @property
    def sum_sensitivity(self) -> float:
        """L1 sensitivity of the per-cluster sum vectors."""
        return self.series_length * self.value_bound

    @property
    def count_sensitivity(self) -> float:
        """L1 sensitivity of the per-cluster counts."""
        return COUNT_SENSITIVITY

    @property
    def total_sensitivity(self) -> float:
        """L1 sensitivity of the complete per-iteration release."""
        return self.sum_sensitivity + self.count_sensitivity

    def laplace_scale(self, epsilon: float) -> float:
        """Laplace scale b = sensitivity / ε for a per-iteration budget ε."""
        epsilon = check_positive_float(epsilon, "epsilon")
        return self.total_sensitivity / epsilon


def sample_laplace(
    scale: float, size: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Sample i.i.d. Laplace(0, scale) noise of the given shape."""
    scale = check_positive_float(scale, "scale")
    return rng.laplace(loc=0.0, scale=scale, size=size)
