"""Distributed generation of Laplace noise from per-participant noise-shares.

No single participant may know the noise that protects an aggregate —
otherwise it could subtract it.  Chiaroscuro therefore exploits the infinite
divisibility of the Laplace distribution (paper, Section II.A): a
Laplace(0, b) random variable is distributed exactly as the sum of *n*
independent terms

    share_i = G1_i - G2_i,   G1_i, G2_i ~ Gamma(shape=1/n, scale=b),

called *noise-shares*.  Each of *n* distinct participants draws one share,
encrypts it, and the shares are summed under encryption alongside the data;
after decryption the aggregate carries exactly one Laplace(0, b) sample that
nobody ever saw in the clear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive_float, check_positive_int
from ..exceptions import PrivacyError


@dataclass(frozen=True)
class NoiseShareSpec:
    """Specification of the noise-shares for one release.

    Attributes
    ----------
    scale:
        Target Laplace scale b of the reconstructed noise.
    n_shares:
        Number of participants contributing one share each.
    vector_length:
        Number of independent noise coordinates (one Laplace sample per
        released coordinate).
    """

    scale: float
    n_shares: int
    vector_length: int

    def __post_init__(self) -> None:
        check_positive_float(self.scale, "scale")
        check_positive_int(self.n_shares, "n_shares")
        check_positive_int(self.vector_length, "vector_length")


def draw_noise_share(spec: NoiseShareSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one participant's vector of noise-shares.

    Returns an array of length ``spec.vector_length``; summing ``spec.n_shares``
    independent such vectors yields i.i.d. Laplace(0, spec.scale) coordinates.
    """
    shape = 1.0 / spec.n_shares
    gamma_pos = rng.gamma(shape=shape, scale=spec.scale, size=spec.vector_length)
    gamma_neg = rng.gamma(shape=shape, scale=spec.scale, size=spec.vector_length)
    return gamma_pos - gamma_neg


def slot_magnitude_bound(scale: float, margin: float = 32.0) -> float:
    """Magnitude bound one noise-share coordinate stays below in practice.

    A share coordinate is ``G1 - G2`` with ``G1, G2 ~ Gamma(shape <= 1,
    scale=b)``; for any shape at most one (always true here, shape = 1/n),
    ``P(G > margin * b) <= exp(-margin)``, so with the default margin of 32
    the per-draw exceedance probability is below 2e-14 — negligible over the
    at most millions of draws of a simulated run.  The packed cipher layer
    uses this bound to size slots so that encrypted noise shares fit; a draw
    beyond the bound raises :class:`~repro.exceptions.EncodingOverflowError`
    deterministically rather than corrupting a neighbouring slot.
    """
    if scale < 0:
        raise PrivacyError(f"scale must be >= 0, got {scale}")
    if margin <= 0:
        raise PrivacyError(f"margin must be > 0, got {margin}")
    return float(scale) * float(margin)
