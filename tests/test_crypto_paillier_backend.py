"""``backend="paillier"`` checked against the classic Paillier scheme.

``make_backend("paillier")`` is the Damgård–Jurik backend at degree 1, with
its pooled blinders, CRT private-key arithmetic and threshold key.  These
tests decrypt what that backend produces with Paillier's own decryption,
written out here rather than borrowed from ``damgard_jurik``::

    L(x) = (x - 1) / n,   μ = L(g^λ mod n²)^{-1} mod n,   m = L(c^λ mod n²) · μ mod n

with ``g = 1 + n`` and ``λ = lcm(p - 1, q - 1)``, so an error shared by the
backend and the module it is built on cannot hide behind a self-comparison.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backends import make_backend
from repro.crypto.fastmath import PrecomputedKey
from repro.exceptions import EncodingOverflowError, KeyGenerationError, ThresholdError


@pytest.fixture(scope="module")
def backend():
    return make_backend("paillier", key_bits=192, threshold=2, n_shares=3)


def classic_decrypt(backend, ciphertext: int) -> int:
    """Paillier decryption with ``g = 1 + n`` from the dealer's primes."""
    dealer = backend._dealer_key
    n = dealer.public_key.n
    n_squared = n * n
    assert 0 < ciphertext < n_squared and math.gcd(ciphertext, n) == 1
    lam = math.lcm(dealer.p - 1, dealer.q - 1)

    def big_l(x: int) -> int:
        assert (x - 1) % n == 0
        return (x - 1) // n

    mu = pow(big_l(pow(1 + n, lam, n_squared)), -1, n)
    return big_l(pow(ciphertext, lam, n_squared)) * mu % n


def encrypt_integer(backend, value: int) -> int:
    return backend.encrypt_integer_vector([value]).payload[0]


def threshold_plaintexts(backend, vector, shares=(1, 2)) -> list[int]:
    """Plaintext integers of *vector* through the committee path."""
    partials = [backend.partial_decrypt_vector(index, vector) for index in shares]
    return backend._combine_payloads(partials)


class TestKeyGeneration:
    def test_modulus_size(self, backend):
        public = backend.public_key
        assert public.s == 1
        assert public.n.bit_length() >= 180  # primes of 96 bits each
        assert public.plaintext_modulus == public.n
        assert public.ciphertext_modulus == public.n**2
        assert backend.ciphertext_bits == (public.n**2).bit_length()

    def test_rejects_tiny_keys(self):
        with pytest.raises(KeyGenerationError):
            make_backend("paillier", key_bits=8, threshold=2, n_shares=3)

    def test_degree_knob_does_not_apply(self):
        backend = make_backend("paillier", key_bits=128, degree=3, threshold=2, n_shares=3)
        assert backend.public_key.s == 1
        assert backend.codec.modulus == backend.public_key.n

    def test_dealer_key_factors_the_modulus(self, backend):
        dealer = backend._dealer_key
        assert dealer.p * dealer.q == backend.public_key.n
        assert math.gcd(backend.public_key.n, (dealer.p - 1) * (dealer.q - 1)) == 1


class TestRoundTrip:
    @pytest.mark.parametrize("plaintext", [0, 1, 42, 12345678901234567])
    def test_encrypt_decrypt(self, backend, plaintext):
        ciphertext = encrypt_integer(backend, plaintext)
        assert classic_decrypt(backend, ciphertext) == plaintext
        vector = backend.encrypt_integer_vector([plaintext])
        assert threshold_plaintexts(backend, vector) == [plaintext]

    def test_negative_integers_are_residues_below_n(self, backend):
        n = backend.public_key.n
        vector = backend.encrypt_integer_vector([-5, -1])
        assert [classic_decrypt(backend, c) for c in vector.payload] == [n - 5, n - 1]
        decoded = backend.decrypt_with_shares(vector, [1, 2], integer=True)
        np.testing.assert_array_equal(decoded, [-5.0, -1.0])

    def test_real_vector_is_the_fixed_point_encoding(self, backend):
        values = [0.25, -0.5, 0.0, 1.0]
        vector = backend.encrypt_vector(values)
        plaintexts = [classic_decrypt(backend, c) for c in vector.payload]
        assert plaintexts == backend.codec.encode_rows([values])[0]
        np.testing.assert_allclose(backend.codec.decode_vector(plaintexts), values)

    def test_encryption_is_randomised(self, backend):
        first, second = encrypt_integer(backend, 7), encrypt_integer(backend, 7)
        assert first != second
        assert classic_decrypt(backend, first) == classic_decrypt(backend, second) == 7

    def test_ciphertexts_are_units_mod_n_squared(self, backend):
        n = backend.public_key.n
        for ciphertext in backend.encrypt_vector(np.linspace(-1.0, 1.0, 9)).payload:
            assert 0 < ciphertext < n * n
            assert math.gcd(ciphertext, n) == 1

    def test_plaintext_out_of_range(self, backend):
        half = backend.codec.half_modulus
        with pytest.raises(EncodingOverflowError):
            backend.encrypt_integer_vector([half])
        with pytest.raises(EncodingOverflowError):
            backend.encrypt_integer_vector([-half])


class TestHomomorphism:
    def test_addition(self, backend):
        a, b = 1234, 98765
        total = backend.add(backend.encrypt_integer_vector([a]),
                            backend.encrypt_integer_vector([b]))
        assert classic_decrypt(backend, total.payload[0]) == a + b

    def test_addition_wraps_modulo_n(self, backend):
        total = backend.add(backend.encrypt_integer_vector([-1]),
                            backend.encrypt_integer_vector([2]))
        assert classic_decrypt(backend, total.payload[0]) == 1
        assert threshold_plaintexts(backend, total) == [1]

    def test_multiply_plaintext(self, backend):
        product = backend.linear_combination([backend.encrypt_integer_vector([21])], [2])
        assert classic_decrypt(backend, product.payload[0]) == 42

    def test_linear_combination(self, backend):
        first = backend.encrypt_integer_vector([3, 10])
        second = backend.encrypt_integer_vector([5, -4])
        combined = backend.linear_combination([first, second], [4, 1])
        assert [classic_decrypt(backend, c) for c in combined.payload] == [17, 36]
        assert threshold_plaintexts(backend, combined) == [17, 36]
        assert combined.weight == 5

    def test_rerandomize_preserves_plaintext(self, backend):
        original = backend.encrypt_integer_vector([77])
        refreshed = backend.rerandomize(original)
        assert refreshed.payload != original.payload
        assert classic_decrypt(backend, refreshed.payload[0]) == 77

    def test_encrypt_zero(self, backend):
        zeros = backend.encrypt_zero_vector(4)
        assert [classic_decrypt(backend, c) for c in zeros.payload] == [0, 0, 0, 0]
        assert len(set(zeros.payload)) == 4  # four independent blinders

    def test_pooled_blinders_encrypt_zero(self, backend):
        """A pooled blinder is an ``n``-th residue: ``b^λ ≡ 1 (mod n²)``."""
        dealer = backend._dealer_key
        lam = math.lcm(dealer.p - 1, dealer.q - 1)
        n_squared = backend.public_key.n**2
        for _ in range(4):
            assert pow(backend._pool.take(), lam, n_squared) == 1


class TestThresholdAtDegreeOne:
    def test_partial_decryption_is_c_to_the_two_delta_share(self, backend):
        vector = backend.encrypt_integer_vector([99])
        n_squared = backend.public_key.n**2
        delta = math.factorial(backend.n_shares)
        for index in (1, 2, 3):
            partial = backend.partial_decrypt_vector(index, vector)
            share = backend.share_for(index).value
            assert partial.payload == (pow(vector.payload[0], 2 * delta * share, n_squared),)

    @pytest.mark.parametrize("shares", [(1, 2), (1, 3), (2, 3), (3, 1, 2)])
    def test_any_quorum_recovers_the_plaintext(self, backend, shares):
        vector = backend.encrypt_integer_vector([31337, -2])
        assert threshold_plaintexts(backend, vector, shares) == [
            31337, backend.public_key.n - 2
        ]

    def test_one_share_is_not_enough(self, backend):
        vector = backend.encrypt_integer_vector([5])
        with pytest.raises(ThresholdError):
            threshold_plaintexts(backend, vector, (2,))

    def test_lagrange_product_is_a_power_of_one_plus_n(self, backend):
        """At degree 1, ``(1 + n)^x ≡ 1 + x·n (mod n²)``: the combined value
        of shares 1 and 2 is ``1 + (4Δ²m mod n)·n`` with no discrete log."""
        n = backend.public_key.n
        n_squared = n * n
        delta = math.factorial(backend.n_shares)
        message = 4242
        vector = backend.encrypt_integer_vector([message])
        c1 = backend.partial_decrypt_vector(1, vector).payload[0]
        c2 = backend.partial_decrypt_vector(2, vector).payload[0]
        # Δ-scaled Lagrange coefficients at 0 for the indices {1, 2}: 2Δ and −Δ.
        combined = pow(c1, 2 * 2 * delta, n_squared) * pow(c2, -2 * delta, n_squared) % n_squared
        assert combined == 1 + (4 * delta * delta * message % n) * n


class TestCrtAgainstClassic:
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_crt_decrypt_equals_classic(self, backend, fraction):
        n = backend.public_key.n
        plaintext = min(int(fraction * n), n - 1)
        ciphertext = backend._encrypt_plaintexts([plaintext])[0]
        precomputed = PrecomputedKey.from_private_key(backend._dealer_key)
        assert precomputed.decrypt(ciphertext) == classic_decrypt(backend, ciphertext) == plaintext

    def test_crt_pow_equals_pow_mod_n_squared(self, backend):
        precomputed = PrecomputedKey.from_private_key(backend._dealer_key)
        n_squared = backend.public_key.n**2
        ciphertext = encrypt_integer(backend, 123)
        for exponent in (1 << 100, backend.public_key.n - 1, 3 * backend.public_key.n + 7):
            assert precomputed.crt_pow(ciphertext, exponent) == pow(ciphertext, exponent, n_squared)
