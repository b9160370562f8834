"""Number-theoretic helpers used by the Damgård–Jurik scheme.

Everything here works on plain Python integers (arbitrary precision).  The
primality test is Miller–Rabin with a deterministic base set for 64-bit
inputs and a configurable number of random rounds above that, which is the
standard practice for generating keys of the sizes used in this library.
"""

from __future__ import annotations

import math
import secrets
from typing import Iterable

from ..exceptions import CryptoError, KeyGenerationError

#: Deterministic Miller–Rabin bases valid for every n < 3.3 * 10^24 (the
#: first 13 primes; with only the first 12 the proven bound would drop to
#: ~3.2 * 10^23, the smallest strong pseudoprime to bases 2..37).
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Largest bound proven for :data:`_DETERMINISTIC_BASES` (Sorenson & Webster,
#: 2015): below it the deterministic bases alone decide primality, so the
#: extra random rounds would only repeat work.
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

#: Small primes used for fast trial division before Miller–Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


def is_probable_prime(candidate: int, rounds: int = 24) -> bool:
    """Return True when *candidate* is prime with overwhelming probability.

    Uses trial division by small primes followed by Miller–Rabin with the
    deterministic base set plus *rounds* random bases.  Below the proven
    deterministic bound (~3.3e24) the random rounds are skipped entirely:
    the fixed bases already give an exact answer there, which makes the
    small-key test paths pay 12 witnesses instead of 36.
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    # Write candidate - 1 = d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def _witness(base: int) -> bool:
        """Return True when *base* witnesses that candidate is composite."""
        x = pow(base, d, candidate)
        if x in (1, candidate - 1):
            return False
        for _ in range(r - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                return False
        return True

    bases: list[int] = [base for base in _DETERMINISTIC_BASES if base < candidate - 1]
    if candidate >= _DETERMINISTIC_BOUND:
        for _ in range(rounds):
            bases.append(secrets.randbelow(candidate - 3) + 2)
    return not any(_witness(base) for base in bases)


def generate_prime(bits: int, rng: secrets.SystemRandom | None = None) -> int:
    """Generate a random prime of exactly *bits* bits."""
    if bits < 2:
        raise KeyGenerationError(f"cannot generate a prime of {bits} bits")
    if bits == 2:
        return 3
    attempts = 0
    max_attempts = 200 * bits
    while attempts < max_attempts:
        attempts += 1
        candidate = secrets.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate):
            return candidate
    raise KeyGenerationError(f"failed to find a {bits}-bit prime after {max_attempts} attempts")


def generate_distinct_primes(bits: int, count: int = 2) -> list[int]:
    """Generate *count* distinct primes of *bits* bits each."""
    primes: list[int] = []
    attempts = 0
    while len(primes) < count:
        attempts += 1
        if attempts > 100 * count:
            raise KeyGenerationError("failed to generate distinct primes")
        prime = generate_prime(bits)
        if prime not in primes:
            primes.append(prime)
    return primes


def lcm(a: int, b: int) -> int:
    """Least common multiple."""
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // math.gcd(a, b)


def mod_inverse(value: int, modulus: int) -> int:
    """Modular inverse of *value* modulo *modulus*.

    Raises :class:`CryptoError` when the inverse does not exist.
    """
    if modulus <= 0:
        raise CryptoError(f"modulus must be positive, got {modulus}")
    try:
        return pow(value, -1, modulus)
    except ValueError as exc:
        raise CryptoError(f"{value} has no inverse modulo {modulus}") from exc


def crt_pair(residue_a: int, modulus_a: int, residue_b: int, modulus_b: int) -> int:
    """Chinese-remainder combination of two congruences with coprime moduli.

    Returns the unique x in [0, modulus_a * modulus_b) with
    x ≡ residue_a (mod modulus_a) and x ≡ residue_b (mod modulus_b).
    """
    if math.gcd(modulus_a, modulus_b) != 1:
        raise CryptoError("CRT moduli must be coprime")
    inverse = mod_inverse(modulus_a % modulus_b, modulus_b)
    difference = (residue_b - residue_a) % modulus_b
    combined = residue_a + modulus_a * ((difference * inverse) % modulus_b)
    return combined % (modulus_a * modulus_b)


def random_coprime(modulus: int) -> int:
    """Uniform random element of the multiplicative group modulo *modulus*."""
    if modulus <= 2:
        raise CryptoError(f"modulus must exceed 2, got {modulus}")
    while True:
        candidate = secrets.randbelow(modulus - 1) + 1
        if math.gcd(candidate, modulus) == 1:
            return candidate


def random_below(bound: int) -> int:
    """Uniform random integer in [0, bound)."""
    if bound <= 0:
        raise CryptoError(f"bound must be positive, got {bound}")
    return secrets.randbelow(bound)


def factorial(value: int) -> int:
    """Factorial of a non-negative integer (delegates to :mod:`math`)."""
    if value < 0:
        raise CryptoError(f"factorial of a negative number: {value}")
    return math.factorial(value)


def product(values: Iterable[int]) -> int:
    """Product of an iterable of integers (1 for an empty iterable)."""
    return math.prod(values)
