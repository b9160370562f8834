"""Tests of the fixed-point codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.encoding import FixedPointCodec
from repro.exceptions import EncodingOverflowError, ValidationError


@pytest.fixture()
def codec():
    return FixedPointCodec(modulus=2**64, scale=10**6)


class TestScalarRoundTrip:
    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0, 3.141592, -2.718281, 1e-6, 12345.678901])
    def test_round_trip(self, codec, value):
        assert codec.decode(codec.encode(value)) == pytest.approx(value, abs=1e-6)

    def test_quantisation_error_bounded(self, codec):
        value = 0.123456789123
        assert abs(codec.decode(codec.encode(value)) - value) <= 0.5 / codec.scale

    def test_rejects_nan(self, codec):
        with pytest.raises(ValidationError):
            codec.encode(float("nan"))

    def test_rejects_overflow(self, codec):
        with pytest.raises(EncodingOverflowError):
            codec.encode(codec.half_modulus / codec.scale * 2)

    def test_integer_round_trip(self, codec):
        for value in (0, 1, -1, 123456, -987654):
            assert codec.decode_integer(codec.encode_integer(value)) == value

    def test_integer_overflow(self, codec):
        with pytest.raises(EncodingOverflowError):
            codec.encode_integer(codec.half_modulus + 1)

    def test_modulus_must_exceed_scale(self):
        with pytest.raises(ValidationError):
            FixedPointCodec(modulus=100, scale=1000)


class TestAdditiveStructure:
    def test_sum_of_encodings_decodes_to_sum(self, codec):
        values = [1.5, -0.25, 3.75, -2.0]
        encoded_sum = sum(codec.encode(value) for value in values) % codec.modulus
        assert codec.decode(encoded_sum) == pytest.approx(sum(values), abs=1e-5)

    def test_negative_sum(self, codec):
        encoded = (codec.encode(-1.5) + codec.encode(-2.5)) % codec.modulus
        assert codec.decode(encoded) == pytest.approx(-4.0, abs=1e-6)

    def test_scaled_encoding_supports_halving_exponents(self, codec):
        # value * 2^e stays decodable as long as it fits, which is what the
        # encrypted gossip averaging relies on.
        value = 0.75
        encoded = codec.encode(value) * (1 << 10) % codec.modulus
        assert codec.decode(encoded) / (1 << 10) == pytest.approx(value, abs=1e-6)


    @pytest.mark.parametrize("value", [1.0, -1.0])
    def test_sum_is_exact_while_it_fits_in_half_the_modulus(self, codec, value):
        # The most terms of magnitude 1.0 whose fixed-point sum stays below
        # modulus/2: the headroom the key size must leave for the
        # computation step's sums.
        capacity = (codec.half_modulus - 1) // codec.scale
        assert capacity > 1000
        total = codec.encode(value) * capacity % codec.modulus
        assert codec.decode_integer(total) == int(value) * codec.scale * capacity
        assert codec.decode(total) == pytest.approx(value * capacity, rel=1e-12)

    @pytest.mark.parametrize("value", [1.0, -1.0])
    def test_one_term_past_half_the_modulus_wraps(self, codec, value):
        capacity = (codec.half_modulus - 1) // codec.scale
        total = codec.encode(value) * (capacity + 1) % codec.modulus
        assert (codec.decode(total) > 0) != (value > 0)

class TestVectors:
    def test_vector_round_trip(self, codec):
        values = np.array([0.5, -1.25, 2.0, 0.0])
        decoded = codec.decode_vector(codec.encode_vector(values))
        assert np.allclose(decoded, values, atol=1e-6)

    def test_fixed_point_vector_is_the_scalar_rounding(self, codec):
        values = [0.5, -1.25, 2.0000005, -2.0000005, 1e-7, 0.0]
        fixed = codec.fixed_point_vector(values)
        assert fixed == [int(round(value * codec.scale)) for value in values]
        assert fixed[2] == 2_000_000 and fixed[3] == -2_000_000  # half to even
        assert all(type(value) is int for value in fixed)

    def test_fixed_point_vector_is_signed_and_encode_vector_reduces_it(self, codec):
        values = np.array([-0.75, 0.25])
        assert codec.fixed_point_vector(values) == [-750_000, 250_000]
        assert codec.encode_vector(values) == [codec.encode(-0.75), codec.encode(0.25)]

    def test_fixed_point_vector_flattens_and_accepts_empty(self, codec):
        assert codec.fixed_point_vector(np.array([[1.0], [-1.0]])) == [10**6, -(10**6)]
        assert codec.fixed_point_vector([]) == []

    def test_fixed_point_vector_rejects_non_finite_and_overflow(self, codec):
        with pytest.raises(ValidationError):
            codec.fixed_point_vector([0.0, float("inf")])
        with pytest.raises(EncodingOverflowError):
            codec.fixed_point_vector([0.0, codec.half_modulus / codec.scale * 2])
