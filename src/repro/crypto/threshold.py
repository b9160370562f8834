"""Threshold (collaborative) decryption for the Damgård–Jurik scheme.

Chiaroscuro requires that "the decryption is performed collaboratively by any
subset of participants provided it is sufficiently large" (Section II.A of
the paper).  This module implements the standard threshold variant of
Damgård–Jurik:

* a trusted dealer (run once, before the protocol, e.g. by a setup authority
  or via a distributed key-generation ceremony that is out of scope here)
  computes the secret exponent d with d ≡ 0 (mod λ) and d ≡ 1 (mod n^s) and
  splits it into *l* Shamir shares with reconstruction threshold *t*;
* each participant holding share s_i produces the partial decryption
  c_i = c^{2 Δ s_i} mod n^{s+1}, where Δ = l! ;
* any *t* partial decryptions are combined with Δ-scaled integer Lagrange
  coefficients, yielding c^{4 Δ² d} = (1 + n)^{4 Δ² m}; the discrete log is
  extracted and multiplied by (4 Δ²)^{-1} mod n^s to recover m.

The Δ scaling keeps every exponent an integer, so no arithmetic modulo the
(secret) group order is ever needed by the combiners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from typing import TYPE_CHECKING

from ..exceptions import DecryptionError, KeyGenerationError, ThresholdError
from .damgard_jurik import (
    DamgardJurikPrivateKey,
    DamgardJurikPublicKey,
    dlog_one_plus_n,
    generate_keypair,
)
from .fastmath import multi_pow
from .math_utils import crt_pair, mod_inverse, random_below

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .fastmath import PrecomputedKey


@dataclass(frozen=True)
class ThresholdPublicKey:
    """Public material of the threshold scheme.

    Attributes
    ----------
    public_key:
        The underlying Damgård–Jurik public key.
    threshold:
        Minimum number of distinct partial decryptions required.
    n_shares:
        Total number of key shares in circulation.
    """

    public_key: DamgardJurikPublicKey
    threshold: int
    n_shares: int

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise KeyGenerationError("threshold must be >= 1")
        if self.n_shares < self.threshold:
            raise KeyGenerationError("n_shares must be >= threshold")

    @property
    def delta(self) -> int:
        """Δ = n_shares!, the scaling factor of the integer Lagrange coefficients."""
        return math.factorial(self.n_shares)


@dataclass(frozen=True)
class KeyShare:
    """One participant's share of the secret decryption exponent."""

    index: int  # 1-based share index (the evaluation point of the polynomial)
    value: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise KeyGenerationError("share indices are 1-based")


@dataclass(frozen=True)
class PartialDecryption:
    """A partial decryption c^{2 Δ s_i} produced by the holder of share i."""

    index: int
    value: int


def _shamir_share(
    secret: int, modulus: int, threshold: int, n_shares: int
) -> list[KeyShare]:
    """Split *secret* into *n_shares* Shamir shares of threshold *threshold*.

    The sharing polynomial has degree threshold-1 and random coefficients in
    [0, modulus).  Shares are reduced modulo *modulus*; combination works in
    the exponent where arithmetic is modulo n^s * λ (a divisor of *modulus*'s
    multiple — see :func:`combine_partial_decryptions`).
    """
    coefficients = [secret % modulus] + [random_below(modulus) for _ in range(threshold - 1)]
    shares = []
    for index in range(1, n_shares + 1):
        value = 0
        for power, coefficient in enumerate(coefficients):
            value = (value + coefficient * pow(index, power, modulus)) % modulus
        shares.append(KeyShare(index=index, value=value))
    return shares


def generate_threshold_keypair(
    key_bits: int = 2048,
    s: int = 1,
    threshold: int = 3,
    n_shares: int = 8,
) -> tuple[ThresholdPublicKey, list[KeyShare], DamgardJurikPrivateKey]:
    """Generate a threshold Damgård–Jurik key: public key, shares, dealer key.

    The dealer's non-threshold private key is returned as well; production
    deployments would discard it after the sharing, but tests and baselines
    use it as an oracle to validate threshold decryptions.
    """
    if threshold > n_shares:
        raise KeyGenerationError(
            f"threshold ({threshold}) cannot exceed the number of shares ({n_shares})"
        )
    public, private = generate_keypair(key_bits=key_bits, s=s)
    n_to_s = public.plaintext_modulus
    lam = private.lam
    if math.gcd(lam, n_to_s) != 1:
        raise KeyGenerationError("lambda and n^s are not coprime; regenerate the key")
    # d ≡ 0 (mod λ) and d ≡ 1 (mod n^s): kills the randomness, keeps the message.
    d = crt_pair(0, lam, 1, n_to_s)
    sharing_modulus = n_to_s * lam
    shares = _shamir_share(d, sharing_modulus, threshold, n_shares)
    threshold_public = ThresholdPublicKey(public_key=public, threshold=threshold, n_shares=n_shares)
    return threshold_public, shares, private


def partial_decrypt(
    threshold_public: ThresholdPublicKey,
    share: KeyShare,
    ciphertext: int,
    precomputed: "PrecomputedKey | None" = None,
) -> PartialDecryption:
    """Compute the partial decryption of *ciphertext* with one key share.

    A real share holder only knows the public modulus and computes the full
    ``c^{2Δs_i} mod n^{s+1}``.  The in-process simulation, which holds the
    dealer key anyway, may pass a private
    :class:`~repro.crypto.fastmath.PrecomputedKey` to evaluate the same
    power mod ``p^{s+1}`` / ``q^{s+1}`` at half the exponent length, from
    the ciphertext's cached Fermat powers
    (:meth:`~repro.crypto.fastmath.PrecomputedKey.partial_decryption_power`):
    the helpers of one round share those, and the produced partial
    decryption is the identical integer.
    """
    public = threshold_public.public_key
    modulus = public.ciphertext_modulus
    if not 0 <= ciphertext < modulus:
        raise DecryptionError("ciphertext out of range")
    exponent = 2 * threshold_public.delta * share.value
    if precomputed is not None:
        value = precomputed.partial_decryption_power(ciphertext, exponent)
    else:
        value = pow(ciphertext, exponent, modulus)
    return PartialDecryption(index=share.index, value=value)


def _integer_lagrange_coefficient(
    delta: int, indices: Sequence[int], target_index: int
) -> int:
    """Δ-scaled Lagrange coefficient λ_{0,i} * Δ, an exact integer.

    With Δ = n_shares! every factor of the denominator divides Δ, so the
    result is an integer even though the plain Lagrange coefficient is a
    rational number.
    """
    numerator = delta
    denominator = 1
    for other in indices:
        if other == target_index:
            continue
        numerator *= -other
        denominator *= target_index - other
    if numerator % denominator != 0:
        raise ThresholdError("Lagrange coefficient is not an integer; check Δ")
    return numerator // denominator


def combine_partial_decryptions(
    threshold_public: ThresholdPublicKey,
    partials: Sequence[PartialDecryption] | Mapping[int, int],
    multiexp: bool = True,
) -> int:
    """Combine at least *threshold* partial decryptions into the plaintext.

    The Δ-scaled Lagrange accumulation ``Π cᵢ^{2λᵢΔ}`` is evaluated with
    Straus simultaneous multi-exponentiation (one shared squaring chain for
    all shares) unless *multiexp* is disabled, in which case the seed's
    one-``pow``-per-share loop runs; both produce the same integer.

    Raises :class:`ThresholdError` when fewer than *threshold* distinct
    partial decryptions are supplied.
    """
    public = threshold_public.public_key
    modulus = public.ciphertext_modulus
    if isinstance(partials, Mapping):
        entries = [PartialDecryption(index=index, value=value) for index, value in partials.items()]
    else:
        entries = list(partials)
    seen: dict[int, PartialDecryption] = {}
    for entry in entries:
        if entry.index in seen and seen[entry.index].value != entry.value:
            raise ThresholdError(f"conflicting partial decryptions for share {entry.index}")
        seen[entry.index] = entry
    if len(seen) < threshold_public.threshold:
        raise ThresholdError(
            f"need at least {threshold_public.threshold} partial decryptions, got {len(seen)}"
        )
    # Any subset of exactly `threshold` distinct shares suffices.
    chosen = sorted(seen.values(), key=lambda entry: entry.index)[: threshold_public.threshold]
    indices = [entry.index for entry in chosen]
    delta = threshold_public.delta
    coefficients = [
        2 * _integer_lagrange_coefficient(delta, indices, entry.index) for entry in chosen
    ]
    if multiexp:
        combined = multi_pow([entry.value for entry in chosen], coefficients, modulus)
    else:
        combined = 1
        for entry, coefficient in zip(chosen, coefficients):
            combined = (combined * pow(entry.value, coefficient, modulus)) % modulus
    # combined = c^{4 Δ² d} = (1 + n)^{4 Δ² m} mod n^{s+1}
    exponent = dlog_one_plus_n(public, combined)
    scaling = (4 * delta * delta) % public.plaintext_modulus
    return (exponent * mod_inverse(scaling, public.plaintext_modulus)) % public.plaintext_modulus
