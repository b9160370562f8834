"""Tests of the Damgård–Jurik generalised Paillier scheme."""

from __future__ import annotations

import pytest

from repro.crypto import damgard_jurik as dj
from repro.exceptions import DecryptionError, EncryptionError, KeyGenerationError
import oracles


@pytest.fixture(scope="module")
def keypair_s1():
    return dj.generate_keypair(key_bits=192, s=1)


@pytest.fixture(scope="module")
def keypair_s2():
    return dj.generate_keypair(key_bits=160, s=2)


@pytest.fixture(scope="module")
def keypair_s3():
    return dj.generate_keypair(key_bits=128, s=3)


class TestKeyGeneration:
    def test_plaintext_space_grows_with_degree(self, keypair_s1, keypair_s2):
        public1, _ = keypair_s1
        public2, _ = keypair_s2
        assert public2.plaintext_modulus == public2.n**2
        assert public1.plaintext_modulus == public1.n

    def test_ciphertext_modulus(self, keypair_s2):
        public, _ = keypair_s2
        assert public.ciphertext_modulus == public.n**3

    def test_rejects_tiny_keys(self):
        with pytest.raises(KeyGenerationError):
            dj.generate_keypair(key_bits=8)

    def test_rejects_bad_degree(self):
        with pytest.raises(KeyGenerationError):
            dj.DamgardJurikPublicKey(n=35, s=0)

    def test_ciphertext_bits_reported(self, keypair_s1):
        public, _ = keypair_s1
        assert public.ciphertext_bits >= 2 * public.n.bit_length() - 2


class TestRoundTrip:
    @pytest.mark.parametrize("fixture_name", ["keypair_s1", "keypair_s2", "keypair_s3"])
    def test_encrypt_decrypt(self, fixture_name, request):
        public, private = request.getfixturevalue(fixture_name)
        for plaintext in (0, 1, 424242, public.plaintext_modulus - 1):
            ciphertext = dj.encrypt(public, plaintext)
            assert dj.decrypt(private, ciphertext) == plaintext

    def test_large_plaintexts_beyond_n_with_degree_two(self, keypair_s2):
        public, private = keypair_s2
        plaintext = public.n + 12345  # would not fit in a Paillier plaintext
        assert dj.decrypt(private, dj.encrypt(public, plaintext)) == plaintext

    def test_out_of_range_plaintext(self, keypair_s1):
        public, _ = keypair_s1
        with pytest.raises(EncryptionError):
            dj.encrypt(public, public.plaintext_modulus)

    def test_bad_randomness(self, keypair_s1):
        public, _ = keypair_s1
        with pytest.raises(EncryptionError):
            dj.encrypt(public, 1, randomness=public.n)

    def test_decrypt_range_check(self, keypair_s1):
        public, private = keypair_s1
        with pytest.raises(DecryptionError):
            dj.decrypt(private, public.ciphertext_modulus)


class TestHomomorphism:
    def test_addition(self, keypair_s2):
        public, private = keypair_s2
        a, b = 10**12, 10**11 + 7
        total = dj.add_ciphertexts(public, dj.encrypt(public, a), dj.encrypt(public, b))
        assert dj.decrypt(private, total) == a + b

    def test_many_term_sum(self, keypair_s1):
        public, private = keypair_s1
        terms = [3, 17, 1000, 42, 9]
        ciphertexts = [dj.encrypt(public, term) for term in terms]
        assert dj.decrypt(private, dj.add_ciphertexts(public, *ciphertexts)) == sum(terms)

    def test_multiply_plaintext(self, keypair_s2):
        public, private = keypair_s2
        ciphertext = oracles.multiply_plaintext(public, dj.encrypt(public, 6), 7)
        assert dj.decrypt(private, ciphertext) == 42

    def test_multiply_by_power_of_two(self, keypair_s1):
        public, private = keypair_s1
        ciphertext = oracles.multiply_plaintext(public, dj.encrypt(public, 5), 1 << 20)
        assert dj.decrypt(private, ciphertext) == 5 << 20

    def test_rerandomize(self, keypair_s1):
        public, private = keypair_s1
        original = dj.encrypt(public, 99)
        refreshed = dj.rerandomize(public, original)
        assert refreshed != original
        assert dj.decrypt(private, refreshed) == 99


class TestDlogExtraction:
    def test_dlog_of_known_exponent(self, keypair_s2):
        public, _ = keypair_s2
        exponent = 123456789
        value = dj.encrypt(public, exponent, randomness=1)  # randomness 1 => pure (1+n)^m
        assert dj.dlog_one_plus_n(public, value) == exponent

    def test_dlog_rejects_malformed_value(self, keypair_s1):
        public, _ = keypair_s1
        with pytest.raises(DecryptionError):
            dj.dlog_one_plus_n(public, 2)  # 2 - 1 is not a multiple of n


class TestAgreementWithPaillier:
    def test_degree_one_matches_paillier_semantics(self):
        """At degree 1 a DJ ciphertext is Paillier's ``g^m r^n mod n²`` with ``g = 1 + n``."""
        public, _ = dj.generate_keypair(key_bits=160, s=1)
        n_squared = public.n**2
        plaintext = 987654321 % public.n
        randomness = 12345
        assert dj.encrypt(public, plaintext, randomness) == (
            pow(1 + public.n, plaintext, n_squared) * pow(randomness, public.n, n_squared)
        ) % n_squared
