"""The Damgård–Jurik generalisation of the Paillier cryptosystem.

The Chiaroscuro paper relies on an additively-homomorphic, semantically
secure encryption scheme whose decryption can be performed collaboratively by
a sufficiently large subset of participants; its implementation uses the
Damgård–Jurik scheme (PKC 2001), which this module reproduces.

Scheme summary for degree *s* (plaintexts in Z_{n^s}, ciphertexts in
Z_{n^{s+1}}):

* key generation: n = p*q with p, q primes, λ = lcm(p-1, q-1);
* encryption of m with randomness r in Z_n^*:
  c = (1 + n)^m * r^{n^s} mod n^{s+1};
* decryption: c^λ mod n^{s+1} = (1 + n)^{m λ mod n^s}; the discrete logarithm
  of an element of the form (1 + n)^i is extracted with the iterative
  algorithm of the original paper (:func:`dlog_one_plus_n`), then
  m = i * λ^{-1} mod n^s;
* additive homomorphism: multiplication of ciphertexts adds plaintexts,
  exponentiation by a constant multiplies the plaintext by that constant.

The threshold (collaborative) decryption used by Chiaroscuro lives in
:mod:`repro.crypto.threshold` and builds on the key material defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import DecryptionError, EncryptionError, KeyGenerationError
from .math_utils import generate_distinct_primes, lcm, mod_inverse, random_coprime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .fastmath import BlinderPool, PrecomputedKey


@dataclass(frozen=True)
class DamgardJurikPublicKey:
    """Public key of the Damgård–Jurik scheme.

    Attributes
    ----------
    n:
        RSA modulus p*q.
    s:
        Degree of the scheme; the plaintext space is Z_{n^s} and the
        ciphertext space is Z_{n^{s+1}}.
    """

    n: int
    s: int = 1

    def __post_init__(self) -> None:
        if self.s < 1:
            raise KeyGenerationError(f"degree s must be >= 1, got {self.s}")
        if self.n < 6:
            raise KeyGenerationError(f"modulus n is too small: {self.n}")

    @property
    def plaintext_modulus(self) -> int:
        """n^s, the size of the plaintext space."""
        return self.n**self.s

    @property
    def ciphertext_modulus(self) -> int:
        """n^(s+1), the size of the ciphertext space."""
        return self.n ** (self.s + 1)

    @property
    def key_bits(self) -> int:
        """Bit length of the modulus n."""
        return self.n.bit_length()

    @property
    def ciphertext_bits(self) -> int:
        """Bit length of a ciphertext (used by the network cost model)."""
        return self.ciphertext_modulus.bit_length()


@dataclass(frozen=True)
class DamgardJurikPrivateKey:
    """Private key: λ = lcm(p-1, q-1) plus the primes for completeness."""

    public_key: DamgardJurikPublicKey
    lam: int
    p: int
    q: int


def generate_keypair(
    key_bits: int = 2048, s: int = 1
) -> tuple[DamgardJurikPublicKey, DamgardJurikPrivateKey]:
    """Generate a Damgård–Jurik key pair of degree *s*.

    The modulus has roughly *key_bits* bits.  Key generation retries until
    gcd(n, λ) = 1, which is required for decryption to be well defined (the
    condition fails only with negligible probability for realistic sizes, but
    the small keys used in tests make the retry loop worth having).
    """
    if key_bits < 16:
        raise KeyGenerationError(f"key_bits must be at least 16, got {key_bits}")
    prime_bits = key_bits // 2
    for _ in range(64):
        p, q = generate_distinct_primes(prime_bits)
        n = p * q
        lam = lcm(p - 1, q - 1)
        if math.gcd(n, lam) != 1:
            continue
        public = DamgardJurikPublicKey(n=n, s=s)
        return public, DamgardJurikPrivateKey(public, lam, p, q)
    raise KeyGenerationError("could not generate a valid Damgård–Jurik key pair")


def _one_plus_n_power(
    public_key: DamgardJurikPublicKey,
    exponent: int,
    precomputed: "PrecomputedKey | None" = None,
) -> int:
    """(1 + n)^exponent mod n^(s+1), computed via the binomial expansion.

    Only the first s+1 binomial terms survive modulo n^(s+1), which makes the
    expansion much cheaper than a generic modular exponentiation for large
    exponents.  A :class:`~repro.crypto.fastmath.PrecomputedKey` supplies the
    cached ``n^k`` powers and factorial inverses so the hot loop performs
    only multiplications.
    """
    if precomputed is not None:
        return precomputed.one_plus_n_pow(exponent)
    n = public_key.n
    modulus = public_key.ciphertext_modulus
    exponent = exponent % public_key.plaintext_modulus
    result = 1
    numerator = 1
    for k in range(1, public_key.s + 1):
        # C(exponent, k) * n^k mod n^{s+1}; k! is invertible because k < p, q.
        numerator = (numerator * ((exponent - (k - 1)) % modulus)) % modulus
        binomial = (numerator * mod_inverse(math.factorial(k), modulus)) % modulus
        contribution = (binomial * pow(n, k, modulus)) % modulus
        result = (result + contribution) % modulus
    return result


def encrypt(
    public_key: DamgardJurikPublicKey,
    plaintext: int,
    randomness: int | None = None,
    precomputed: "PrecomputedKey | None" = None,
    pool: "BlinderPool | None" = None,
) -> int:
    """Encrypt *plaintext* (an integer in Z_{n^s}) under *public_key*.

    A :class:`~repro.crypto.fastmath.BlinderPool` turns the blinder
    exponentiation into one multiplication by a precomputed ``n^s``-th
    residue.  On a public-only context the pool draws ``r`` like this
    function does, so a fixed stream gives the same bits.  On a private
    context it uses the fixed-base short-exponent sampler of
    :meth:`~repro.crypto.fastmath.PrecomputedKey.blinder`: its blinder for
    the draw ``x`` is this function's for ``randomness = y^x mod n`` with
    the context's fixed ``y``, so the ciphertexts are textbook ones, but the
    randomness is no longer uniform over ``Z_n^*`` and security rests on
    DCR plus the Damgård–Jurik–Nielsen short-exponent assumption (see
    :mod:`~repro.crypto.fastmath`).  An explicit *randomness* argument
    always bypasses the pool and computes the textbook ``randomness^{n^s}``.
    """
    n_to_s = public_key.plaintext_modulus
    modulus = public_key.ciphertext_modulus
    if not 0 <= plaintext < n_to_s:
        raise EncryptionError(
            f"plaintext must be in [0, n^s), got {plaintext} for n^s={n_to_s}"
        )
    g_to_m = _one_plus_n_power(public_key, plaintext, precomputed)
    if randomness is None:
        if pool is not None:
            return (g_to_m * pool.take()) % modulus
        randomness = random_coprime(public_key.n)
    elif math.gcd(randomness, public_key.n) != 1:
        raise EncryptionError("randomness must be coprime with n")
    if precomputed is not None:
        blinder = precomputed.crt_pow(randomness, n_to_s)
    else:
        blinder = pow(randomness, n_to_s, modulus)
    return (g_to_m * blinder) % modulus


def dlog_one_plus_n(public_key: DamgardJurikPublicKey, value: int) -> int:
    """Extract i from an element of the form (1 + n)^i mod n^(s+1).

    This is the iterative algorithm of Damgård–Jurik (PKC 2001, Section 4.2):
    working modulo increasing powers n^j, the higher-order binomial terms are
    subtracted using the approximation of i recovered so far.
    """
    n = public_key.n
    s = public_key.s
    i = 0
    for j in range(1, s + 1):
        n_to_j = n**j
        n_to_j_plus_1 = n_to_j * n
        reduced = value % n_to_j_plus_1
        if (reduced - 1) % n != 0:
            raise DecryptionError("value is not of the form (1 + n)^i")
        t1 = ((reduced - 1) // n) % n_to_j
        t2 = i
        for k in range(2, j + 1):
            i = i - 1
            t2 = (t2 * i) % n_to_j
            factor = (t2 * pow(n, k - 1, n_to_j)) % n_to_j
            t1 = (t1 - factor * mod_inverse(math.factorial(k), n_to_j)) % n_to_j
        i = t1
    return i


def decrypt(
    private_key: DamgardJurikPrivateKey,
    ciphertext: int,
    precomputed: "PrecomputedKey | None" = None,
) -> int:
    """Decrypt *ciphertext* with the non-threshold private key.

    With a private :class:`~repro.crypto.fastmath.PrecomputedKey` the
    decryption runs mod ``p^{s+1}`` and ``q^{s+1}`` separately with
    half-size exponents (CRT split, Damgård–Jurik Section 4.3) and returns
    exactly the same plaintext ~3–4× faster.
    """
    public = private_key.public_key
    modulus = public.ciphertext_modulus
    if not 0 <= ciphertext < modulus:
        raise DecryptionError("ciphertext out of range")
    if math.gcd(ciphertext, public.n) != 1:
        raise DecryptionError("ciphertext is not invertible")
    if precomputed is not None and precomputed.has_private:
        return precomputed.decrypt(ciphertext)
    powered = pow(ciphertext, private_key.lam, modulus)
    exponent = dlog_one_plus_n(public, powered)
    lam_inverse = mod_inverse(private_key.lam % public.plaintext_modulus, public.plaintext_modulus)
    return (exponent * lam_inverse) % public.plaintext_modulus


def add_ciphertexts(public_key: DamgardJurikPublicKey, *ciphertexts: int) -> int:
    """Homomorphic addition: the product of ciphertexts encrypts the sum."""
    if not ciphertexts:
        raise EncryptionError("add_ciphertexts requires at least one ciphertext")
    modulus = public_key.ciphertext_modulus
    result = 1
    for ciphertext in ciphertexts:
        result = (result * ciphertext) % modulus
    return result


def multiply_plaintext(
    public_key: DamgardJurikPublicKey,
    ciphertext: int,
    factor: int,
    precomputed: "PrecomputedKey | None" = None,
) -> int:
    """Homomorphically multiply an encrypted value by a public integer factor.

    Near-modulus-sized factors — e.g. the halving constant ``2^{-1} mod n^s``
    — take the CRT fast path when a private precomputation context is
    available (the in-process simulation holds the dealer key, so its
    backend may legitimately use it); small factors such as the gossip
    power-of-two lifts stay on the plain ``pow`` path where CRT overhead
    would dominate.
    """
    factor = factor % public_key.plaintext_modulus
    if precomputed is not None:
        return precomputed.crt_pow(ciphertext, factor)
    return pow(ciphertext, factor, public_key.ciphertext_modulus)


def rerandomize(
    public_key: DamgardJurikPublicKey,
    ciphertext: int,
    pool: "BlinderPool | None" = None,
) -> int:
    """Refresh the randomness of a ciphertext without changing its plaintext.

    With a :class:`~repro.crypto.fastmath.BlinderPool` the refresh costs one
    multiplication by a precomputed blinder instead of one exponentiation.
    """
    if pool is not None:
        return (ciphertext * pool.take()) % public_key.ciphertext_modulus
    blinder = pow(
        random_coprime(public_key.n), public_key.plaintext_modulus, public_key.ciphertext_modulus
    )
    return (ciphertext * blinder) % public_key.ciphertext_modulus
