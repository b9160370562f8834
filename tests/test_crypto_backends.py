"""Tests of the pluggable cipher backends.

Every behavioural test runs against both backends (the real Damgård–Jurik one
and the plain simulated one) through parametrised fixtures: the point of the
backend abstraction is that the protocol cannot tell them apart.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.crypto.backends import (
    DamgardJurikBackend,
    EncryptedVector,
    OperationCounter,
    PartialVectorDecryption,
    PlainBackend,
    make_backend,
)
from repro.exceptions import CryptoError, ThresholdError, ValidationError
from repro.gossip import EncryptedEstimate, rerandomize_estimate


@pytest.fixture(params=["plain", "damgard_jurik"])
def backend(request, plain_backend, dj_backend):
    return plain_backend if request.param == "plain" else dj_backend


class TestEncryptDecrypt:
    def test_vector_round_trip(self, backend):
        values = np.array([0.5, -1.25, 0.0, 2.5])
        vector = backend.encrypt_vector(values)
        decoded = backend.decrypt_with_shares(vector, [1, 2])
        assert np.allclose(decoded, values, atol=1e-3)

    def test_integer_vector_round_trip(self, backend):
        values = [0, 1, 5, 17]
        vector = backend.encrypt_integer_vector(values)
        decoded = backend.decrypt_with_shares(vector, [1, 2], integer=True)
        assert np.allclose(decoded, values)

    def test_zero_vector(self, backend):
        vector = backend.encrypt_zero_vector(3)
        assert np.allclose(backend.decrypt_with_shares(vector, [1, 2]), 0.0)

    def test_addition(self, backend):
        a = backend.encrypt_vector([1.0, -2.0, 3.0])
        b = backend.encrypt_vector([0.5, 2.0, -1.0])
        decoded = backend.decrypt_with_shares(backend.add(a, b), [1, 2])
        assert np.allclose(decoded, [1.5, 0.0, 2.0], atol=1e-3)

    def test_scalar_multiplication(self, backend):
        vector = backend.encrypt_vector([0.5, -1.0])
        decoded = backend.decrypt_with_shares(backend.multiply_scalar(vector, 4), [1, 2])
        assert np.allclose(decoded, [2.0, -4.0], atol=1e-3)

    def test_scalar_multiplication_rejects_negative(self, backend):
        vector = backend.encrypt_vector([1.0])
        with pytest.raises(CryptoError):
            backend.multiply_scalar(vector, -2)

    def test_add_length_mismatch(self, backend):
        with pytest.raises(CryptoError):
            backend.add(backend.encrypt_vector([1.0]), backend.encrypt_vector([1.0, 2.0]))

    def test_vectors_are_backend_tagged(self, backend):
        foreign = EncryptedVector(payload=(1, 2, 3), backend_name="other")
        with pytest.raises(CryptoError):
            backend.add(foreign, foreign)

    def test_threshold_enforced(self, backend):
        vector = backend.encrypt_vector([1.0, 2.0])
        partial = backend.partial_decrypt_vector(1, vector)
        with pytest.raises(ThresholdError):
            backend.combine_vector([partial])

    def test_unknown_share_index(self, backend):
        vector = backend.encrypt_vector([1.0])
        with pytest.raises(ThresholdError):
            backend.partial_decrypt_vector(99, vector)

    def test_empty_combination_rejected(self, backend):
        with pytest.raises(ThresholdError):
            backend.combine_vector([])

    def test_operation_counters_increase(self, backend):
        before = backend.counter.as_dict()
        vector = backend.encrypt_vector([1.0, 2.0, 3.0])
        backend.add(vector, vector)
        backend.decrypt_with_shares(vector, [1, 2])
        after = backend.counter.as_dict()
        assert after["encryptions"] >= before["encryptions"] + 3
        assert after["additions"] >= before["additions"] + 3
        assert after["partial_decryptions"] >= before["partial_decryptions"] + 6
        assert after["combinations"] >= before["combinations"] + 3

    def test_ciphertext_bits_positive(self, backend):
        assert backend.ciphertext_bits > 0


class TestCombineChecksThePartialsAgree:
    """The decoder reads the layout (``packed``, ``weight``) off the partials,
    so every partial must report the same one: a helper that misreports it
    would otherwise shift every packed slot by the wrong offset, silently."""

    VALUES = [0.5, -1.0, 0.25]

    @pytest.fixture(params=["plain", "damgard_jurik"])
    def packed_backend(self, request):
        if request.param == "plain":
            return PlainBackend(threshold=2, n_shares=3, packing="auto")
        return DamgardJurikBackend(key_bits=256, threshold=2, n_shares=3, packing="auto")

    def weight_two_partials(self, backend):
        half = backend.encrypt_vector(np.asarray(self.VALUES) / 2)
        vector = backend.add(half, half)
        assert backend.is_packed and vector.weight == 2
        return [backend.partial_decrypt_vector(index, vector) for index in (1, 2)]

    def test_agreeing_partials_decode(self, packed_backend):
        partials = self.weight_two_partials(packed_backend)
        np.testing.assert_allclose(packed_backend.combine_vector(partials),
                                   self.VALUES, atol=1e-5)

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("change", [{"weight": 1}, {"weight": 3}, {"packed": False}])
    def test_disagreeing_partials_are_refused(self, packed_backend, position, change):
        partials = self.weight_two_partials(packed_backend)
        partials[position] = dataclasses.replace(partials[position], **change)
        with pytest.raises(ThresholdError, match="packing or weight"):
            packed_backend.combine_vector(partials)


class TestSemanticSecurityOfRealBackend:
    def test_real_ciphertexts_are_randomised(self, dj_backend):
        first = dj_backend.encrypt_vector([0.5])
        second = dj_backend.encrypt_vector([0.5])
        assert first.payload != second.payload

    def test_plain_backend_is_not_randomised(self, plain_backend):
        # This documents the difference: the plain backend is NOT secure, it
        # only simulates the cost structure (exactly like the demo platform
        # with homomorphic operations disabled).
        first = plain_backend.encrypt_vector([0.5])
        second = plain_backend.encrypt_vector([0.5])
        assert first.payload == second.payload


class TestVectorLength:
    """``len()`` returns the stored length, so it is checked at construction."""

    @staticmethod
    def build(kind, length):
        if kind is EncryptedVector:
            return EncryptedVector(payload=(1, 2, 3), backend_name="plain", length=length)
        return PartialVectorDecryption(share_index=1, payload=(1, 2, 3),
                                       backend_name="plain", length=length)

    @pytest.mark.parametrize("kind", [EncryptedVector, PartialVectorDecryption])
    @pytest.mark.parametrize("length", [2.5, 3.0, True, False, -1, "3"])
    def test_refused_when_built(self, kind, length):
        with pytest.raises(CryptoError, match="vector length must be an int >= 0"):
            self.build(kind, length)

    @pytest.mark.parametrize("kind", [EncryptedVector, PartialVectorDecryption])
    @pytest.mark.parametrize(("length", "expected"), [(None, 3), (0, 0), (3, 3), (70, 70)])
    def test_accepted(self, kind, length, expected):
        built = self.build(kind, length)
        assert len(built) == built.length == expected
        assert type(len(built)) is int


class TestRefreshWithNothingToRefresh:
    """A refresh that changes no ciphertext returns its input, and is counted."""

    @pytest.mark.parametrize("packing", ["auto", "off"])
    def test_plain_refresh_returns_its_input(self, packing):
        backend = PlainBackend(threshold=2, n_shares=3, packing=packing)
        vector = backend.encrypt_vector(np.linspace(-1.0, 1.0, 40))
        assert vector.packed == (packing == "auto")
        estimate = EncryptedEstimate(vector=vector, halvings=3)

        before = backend.counter.rerandomizations
        assert backend.rerandomize(vector) is vector
        assert backend.counter.rerandomizations == before + vector.n_ciphertexts
        assert rerandomize_estimate(backend, estimate) is estimate
        assert backend.counter.rerandomizations == before + 2 * vector.n_ciphertexts

    def test_damgard_jurik_refresh_builds_new_ciphertexts(self):
        backend = DamgardJurikBackend(key_bits=128, threshold=2, n_shares=3)
        values = [0.5, -0.25, 1.0, 0.0]
        vector = backend.encrypt_vector(values)
        estimate = EncryptedEstimate(vector=vector, halvings=2)

        before = backend.counter.rerandomizations
        refreshed = backend.rerandomize(vector)
        forwarded = rerandomize_estimate(backend, estimate)
        assert backend.counter.rerandomizations == before + 2 * vector.n_ciphertexts
        for result in (refreshed, forwarded.vector):
            assert result is not vector
            assert all(new != old for new, old in zip(result.payload, vector.payload))
            assert (len(result), result.weight) == (len(vector), vector.weight)
            assert np.array_equal(backend.decrypt_with_shares(result, [1, 2]),
                                  backend.decrypt_with_shares(vector, [1, 2]))
        assert forwarded is not estimate
        assert forwarded.halvings == estimate.halvings


class TestPlainArithmeticAboveTheInt64Threshold:
    """Above 62 modulus bits the plain backend loops over Python integers;
    it used to build ``dtype=object`` arrays.  Same integers, same charges,
    on both sides of the threshold (60 and 61 bits still take the int64
    slab; a scalar factor pushes 61 over)."""

    @staticmethod
    def object_array_add(first, second, modulus):
        a = np.array(first, dtype=object)
        b = np.array(second, dtype=object)
        return tuple(int(value) for value in (a + b) % modulus)

    @staticmethod
    def object_array_multiply(payload, factor, modulus):
        a = np.array(payload, dtype=object)
        return tuple(int(value) for value in (a * factor) % modulus)

    @pytest.mark.parametrize("size", [1, 2, 25, 1000])
    @pytest.mark.parametrize("modulus_bits", [60, 61, 62, 63, 256, 2048])
    def test_add_multiply_and_linear_combination(self, modulus_bits, size):
        backend = PlainBackend(modulus_bits=modulus_bits)
        modulus = backend.codec.modulus
        rng = np.random.default_rng(modulus_bits * 1009 + size)

        def vector():
            payload = tuple(
                int.from_bytes(rng.bytes(modulus_bits // 8 + 1), "big") % modulus
                for _ in range(size)
            )
            return EncryptedVector(payload=payload + (modulus - 1,) * (size == 1000),
                                   backend_name="plain")

        first, second, third = vector(), vector(), vector()
        n = len(first)
        for value in (backend.add(first, second),
                      backend.multiply_scalar(first, 1 << 7),
                      backend.linear_combination([first, second, third], [4, 1, 2])):
            assert all(type(element) is int for element in value.payload)
        assert backend.counter.additions == n + n + n * (2 + 2)

        add, multiply = self.object_array_add, self.object_array_multiply
        assert backend.add(first, second).payload == add(
            first.payload, second.payload, modulus)
        for factor in (0, 1, 3, 1 << 7, (1 << 70) + 1):
            assert backend.multiply_scalar(first, factor).payload == multiply(
                first.payload, factor, modulus)
        assert backend.linear_combination([first, second, third], [4, 1, 2]).payload \
            == add(add(multiply(first.payload, 4, modulus), second.payload, modulus),
                   multiply(third.payload, 2, modulus), modulus)

    def test_payloads_of_different_sizes_are_refused(self):
        backend = PlainBackend(modulus_bits=256)
        with pytest.raises(ValueError):
            backend._add_payloads((1, 2), (1,))


class TestOperationCounter:
    def test_as_dict_and_reset(self):
        a = OperationCounter(encryptions=1, additions=2, partial_decryptions=3,
                             combinations=4, pooled_encryptions=1, rerandomizations=5)
        assert a.as_dict() == {
            "encryptions": 1, "additions": 2, "partial_decryptions": 3, "combinations": 4,
            "pooled_encryptions": 1, "rerandomizations": 5,
        }
        a.reset()
        assert a.as_dict()["encryptions"] == 0
        assert a.as_dict()["pooled_encryptions"] == 0


class TestFactory:
    def test_make_plain(self):
        assert isinstance(make_backend("plain"), PlainBackend)

    def test_make_paillier_is_degree_one_dj(self):
        backend = make_backend("paillier", key_bits=160, threshold=2, n_shares=3)
        assert isinstance(backend, DamgardJurikBackend)
        assert backend.public_key.s == 1

    def test_make_damgard_jurik_degree(self):
        backend = make_backend("damgard_jurik", key_bits=128, degree=2, threshold=2, n_shares=3)
        assert backend.public_key.s == 2

    def test_unknown_backend(self):
        with pytest.raises(ValidationError):
            make_backend("enigma")

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            PlainBackend(threshold=5, n_shares=2)
