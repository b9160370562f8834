"""Tests of the number-theoretic helpers."""

from __future__ import annotations

import math

import pytest

from repro.crypto.math_utils import (
    crt_pair,
    factorial,
    generate_distinct_primes,
    generate_prime,
    is_probable_prime,
    lcm,
    mod_inverse,
    product,
    random_below,
    random_coprime,
)
from repro.exceptions import CryptoError, KeyGenerationError


class TestPrimality:
    @pytest.mark.parametrize("prime", [2, 3, 5, 7, 97, 104729, 2**31 - 1])
    def test_known_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [1, 0, -7, 4, 100, 561, 104729 * 3, 2**32])
    def test_known_composites(self, composite):
        assert not is_probable_prime(composite)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat tests but not Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(carmichael)

    def test_generate_prime_has_requested_bits(self):
        prime = generate_prime(48)
        assert prime.bit_length() == 48
        assert is_probable_prime(prime)

    def test_generate_prime_rejects_tiny(self):
        with pytest.raises(KeyGenerationError):
            generate_prime(1)

    def test_generate_distinct_primes(self):
        primes = generate_distinct_primes(32, count=3)
        assert len(set(primes)) == 3
        assert all(is_probable_prime(p) for p in primes)


class TestModularArithmetic:
    def test_lcm(self):
        assert lcm(4, 6) == 12
        assert lcm(0, 5) == 0
        assert lcm(7, 13) == 91

    def test_mod_inverse(self):
        assert (3 * mod_inverse(3, 11)) % 11 == 1
        assert (10 * mod_inverse(10, 17)) % 17 == 1

    def test_mod_inverse_missing(self):
        with pytest.raises(CryptoError):
            mod_inverse(6, 9)

    def test_mod_inverse_bad_modulus(self):
        with pytest.raises(CryptoError):
            mod_inverse(3, 0)

    def test_crt_pair(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2
        assert x % 5 == 3
        assert 0 <= x < 15

    def test_crt_requires_coprime_moduli(self):
        with pytest.raises(CryptoError):
            crt_pair(1, 4, 2, 6)

    def test_random_coprime(self):
        modulus = 97 * 89
        for _ in range(10):
            value = random_coprime(modulus)
            assert math.gcd(value, modulus) == 1
            assert 1 <= value < modulus

    def test_random_coprime_rejects_small_modulus(self):
        with pytest.raises(CryptoError):
            random_coprime(2)

    def test_random_below(self):
        for _ in range(20):
            assert 0 <= random_below(7) < 7
        with pytest.raises(CryptoError):
            random_below(0)


class TestMiscHelpers:
    def test_factorial(self):
        assert factorial(0) == 1
        assert factorial(5) == 120
        with pytest.raises(CryptoError):
            factorial(-1)

    def test_product(self):
        assert product([]) == 1
        assert product([2, 3, 4]) == 24


class TestDeterministicPrimalityFastPath:
    """Below ~3.3e24 the fixed Miller-Rabin bases are exact: no random rounds."""

    def test_no_random_witnesses_below_the_bound(self, monkeypatch):
        import secrets as secrets_module

        from repro.crypto import math_utils

        def forbidden(_bound):
            raise AssertionError("random rounds must be skipped below the bound")

        monkeypatch.setattr(math_utils.secrets, "randbelow", forbidden)
        # 2^61 - 1 is a Mersenne prime well below the deterministic bound.
        assert math_utils.is_probable_prime((1 << 61) - 1)
        assert not math_utils.is_probable_prime((1 << 61) - 3)
        del secrets_module

    def test_random_witnesses_still_used_above_the_bound(self, monkeypatch):
        from repro.crypto import math_utils

        calls = []
        real = math_utils.secrets.randbelow

        def counting(bound):
            calls.append(bound)
            return real(bound)

        monkeypatch.setattr(math_utils.secrets, "randbelow", counting)
        # A 128-bit prime (> 3.3e24): the probabilistic rounds must run.
        prime_128 = (1 << 127) - 1  # Mersenne prime M127
        assert math_utils.is_probable_prime(prime_128, rounds=4)
        assert len(calls) == 4

    def test_strong_pseudoprime_to_twelve_bases_rejected(self):
        from repro.crypto.math_utils import is_probable_prime

        # Smallest strong pseudoprime to bases 2..37: composite, below the
        # bound, and only witnessed by base 41 — the deterministic set must
        # include 41 for the skip-random-rounds fast path to be sound.
        assert not is_probable_prime(318_665_857_834_031_151_167_461)

    def test_agreement_around_the_bound(self):
        from repro.crypto.math_utils import _DETERMINISTIC_BOUND, is_probable_prime

        # The largest prime below the deterministic bound (verified offline)
        # and its composite neighbourhood: the deterministic-only path must
        # classify all of them correctly right up to the cutover.
        largest_prime_below = 3_317_044_064_679_887_385_961_813
        assert largest_prime_below < _DETERMINISTIC_BOUND
        assert is_probable_prime(largest_prime_below)
        for candidate in range(largest_prime_below + 1, _DETERMINISTIC_BOUND):
            assert not is_probable_prime(candidate)
