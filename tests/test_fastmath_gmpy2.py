"""Tests of the optional gmpy2 bigint backend (crypto/fastmath.py).

The backend is a pure wall-clock play: ``powmod`` / ``invert`` must return
exactly the integers the built-in ``pow`` / ``mod_inverse`` return, whether
gmpy2 is importable or not.  The backend-agnostic contract tests always run;
the equivalence tests that exercise gmpy2's code paths end to end (CRT ==
plain decryption, pooled == fresh encryption) are skipped where gmpy2 is
absent — this container ships without it, CI images may carry it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import damgard_jurik as dj
from repro.crypto.fastmath import (
    HAVE_GMPY2,
    BlinderPool,
    PrecomputedKey,
    invert,
    multi_pow,
    powmod,
)
from repro.crypto.math_utils import mod_inverse
from repro.exceptions import CryptoError

integers = st.integers(min_value=-(10**30), max_value=10**30)
moduli = st.integers(min_value=2, max_value=10**30)


class TestBackendAgnosticContract:
    """These hold on both backends — they pin the shared semantics."""

    @given(base=integers, exponent=st.integers(min_value=0, max_value=10**9),
           modulus=moduli)
    @settings(max_examples=100, deadline=None)
    def test_powmod_matches_builtin_pow(self, base, exponent, modulus):
        assert powmod(base, exponent, modulus) == pow(base, exponent, modulus)

    @given(value=integers, modulus=moduli)
    @settings(max_examples=100, deadline=None)
    def test_invert_matches_mod_inverse(self, value, modulus):
        try:
            expected = mod_inverse(value, modulus)
        except CryptoError:
            with pytest.raises(CryptoError):
                invert(value, modulus)
        else:
            assert invert(value, modulus) == expected

    def test_negative_exponent_inverts(self):
        assert powmod(3, -1, 7) == pow(3, -1, 7)
        assert powmod(3, -5, 7) == pow(3, -5, 7)

    def test_non_invertible_base_raises(self):
        with pytest.raises((CryptoError, ValueError)):
            powmod(6, -1, 9)
        with pytest.raises(CryptoError):
            invert(0, 7)
        with pytest.raises(CryptoError):
            invert(3, -5)


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
class TestGmpy2Equivalence:
    """End-to-end equivalence with gmpy2 actually driving the hot loops."""

    @pytest.fixture(scope="class")
    def keypair(self):
        return dj.generate_keypair(key_bits=128, s=2)

    @pytest.fixture(scope="class")
    def precomputed(self, keypair):
        _, private = keypair
        return PrecomputedKey.from_private_key(private)

    @given(fraction=st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_crt_decrypt_equals_plain_decrypt(self, keypair, precomputed, fraction):
        public, private = keypair
        modulus = public.plaintext_modulus
        plaintext = min(int(fraction * modulus), modulus - 1)
        ciphertext = dj.encrypt(public, plaintext)
        assert precomputed.decrypt(ciphertext) == dj.decrypt(private, ciphertext)

    def test_pooled_equals_fresh(self, keypair, precomputed):
        public, _ = keypair
        # A deterministic stand-in randomness stream, consumed in draw order
        # by both paths: pooled ciphertexts must be bit-identical to fresh.
        def stream(seed):
            state = seed
            def draw(n):
                nonlocal state
                state = (state * 6364136223846793005 + 1442695040888963407) % n
                return state or 1
            return draw
        pool = BlinderPool(precomputed, rng=stream(12345))
        fresh_draw = stream(12345)
        for message in (0, 1, 17, public.plaintext_modulus - 1):
            pooled = (precomputed.one_plus_n_pow(message) * pool.take()) % public.ciphertext_modulus
            randomness = fresh_draw(public.n)
            blinder = pow(randomness, public.plaintext_modulus, public.ciphertext_modulus)
            fresh = (pow(1 + public.n, message, public.ciphertext_modulus) * blinder) % public.ciphertext_modulus
            assert dj.decrypt(keypair[1], pooled) == dj.decrypt(keypair[1], fresh) == message

    def test_multi_pow_matches_product_of_pows(self, keypair):
        public, _ = keypair
        modulus = public.ciphertext_modulus
        bases = [3, 5, 7, 11, 13]
        exponents = [10**20 + i for i in range(5)]
        expected = 1
        for base, exponent in zip(bases, exponents):
            expected = (expected * pow(base, exponent, modulus)) % modulus
        assert multi_pow(bases, exponents, modulus) == expected
