"""Tests of the packed-ciphertext crypto layer.

Three levels are covered:

* :class:`~repro.crypto.encoding.PackedCodec` in isolation — Hypothesis
  round-trip properties (encode → pack → add → unpack → decode exact up to
  quantisation), negative values at slot boundaries, weight headroom, and
  overflow raising :class:`~repro.exceptions.EncodingOverflowError`;
* the backends with packing enabled — round trips, homomorphic operations,
  operation counters and the acceptance ratio (≥ 4× fewer bigint operations
  with a 2048-bit key on a 64-point series);
* the protocol — a packed run must be *bit-identical* to an unpacked run
  (the arithmetic is exact in both layouts) while costing measurably fewer
  encryptions, homomorphic additions and bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ProtocolWorkload
from repro.config import ChiaroscuroConfig, CryptoConfig
from repro.core import run_chiaroscuro
from repro.crypto.backends import (
    DamgardJurikBackend,
    EncryptedVector,
    PlainBackend,
    make_backend,
    normalize_packing,
)
from repro.crypto.encoding import PackedCodec
from repro.datasets import generate_gaussian_clusters
from repro.exceptions import (
    ConfigurationError,
    CryptoError,
    EncodingOverflowError,
    ValidationError,
)
from repro.gossip.encrypted_sum import (
    average_estimates,
    decode_estimate,
    estimate_payload_bytes,
    fresh_estimate,
)

SCALE = 10**6
MODULUS = 1 << 512


def small_codec(value_bound: float = 10.0, weight_bits: int = 20,
                slots: int | None = None) -> PackedCodec:
    codec = PackedCodec.plan(MODULUS, SCALE, value_bound=value_bound,
                             weight_bits=weight_bits, slots=slots)
    assert codec is not None
    return codec


values_strategy = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=0, max_size=40,
)


class TestPackedCodecRoundTrip:
    @given(values=values_strategy)
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_round_trip(self, values):
        codec = small_codec()
        packed = codec.pack_vector(values)
        assert len(packed) == codec.n_ciphertexts(len(values))
        decoded = codec.unpack_vector(packed, len(values), weight=1)
        assert np.allclose(decoded, values, atol=0.5 / SCALE + 1e-12)

    @given(values=st.lists(st.integers(min_value=-(10 * SCALE - 1), max_value=10 * SCALE - 1),
                           min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_integer_pack_unpack_exact(self, values):
        codec = small_codec()
        packed = codec.pack_integer_vector(values)
        decoded = codec.unpack_vector(packed, len(values), weight=1, integer=True)
        assert decoded.tolist() == [float(v) for v in values]

    @given(
        first=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False,
                                 allow_infinity=False), min_size=1, max_size=25),
        second=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False,
                                  allow_infinity=False), min_size=1, max_size=25),
    )
    @settings(max_examples=100, deadline=None)
    def test_packed_addition_is_slotwise(self, first, second):
        """Integer addition of packed plaintexts adds every slot independently."""
        length = min(len(first), len(second))
        first, second = first[:length], second[:length]
        codec = small_codec()
        packed_sum = [a + b for a, b in zip(codec.pack_vector(first),
                                            codec.pack_vector(second))]
        decoded = codec.unpack_vector(packed_sum, length, weight=2)
        expected = np.asarray(first) + np.asarray(second)
        assert np.allclose(decoded, expected, atol=1.0 / SCALE + 1e-12)

    def test_negative_values_at_slot_boundaries(self):
        """The extreme encodable magnitudes survive in every slot position."""
        codec = small_codec()
        edge = (codec.offset - 1) / SCALE
        values = [-edge, edge] * codec.slots  # spans two plaintexts
        packed = codec.pack_vector(values)
        decoded = codec.unpack_vector(packed, len(values), weight=1)
        assert np.allclose(decoded, values, atol=0.5 / SCALE)

    def test_unpack_rejects_wrong_ciphertext_count(self):
        codec = small_codec()
        packed = codec.pack_vector([1.0] * 5)
        with pytest.raises(ValidationError):
            codec.unpack_vector(packed, 5 + codec.slots, weight=1)

    def test_slot_mask_reads_the_offset_encoded_slots(self):
        """Slot ``i`` of a packed plaintext is ``(plaintext >> i·slot_bits) &
        slot_mask``, holding ``offset + round(value · scale)``."""
        codec = small_codec(slots=3)
        assert codec.slot_mask == (1 << codec.slot_bits) - 1
        assert codec.slot_mask.bit_length() == codec.slot_bits
        values = [-2.5, 0.0, 4.25]
        (plaintext,) = codec.pack_vector(values)
        slots = [(plaintext >> (i * codec.slot_bits)) & codec.slot_mask for i in range(3)]
        assert slots == [codec.offset + int(round(v * SCALE)) for v in values]


class TestPackedCodecHeadroom:
    def test_max_halvings_headroom(self):
        """Doubling the weight up to max_weight keeps decoding exact."""
        codec = small_codec(weight_bits=12)
        values = [-3.25, 7.5, -0.125]
        packed = codec.pack_vector(values)
        weight = 1
        while weight < codec.max_weight:
            packed = [2 * p for p in packed]
            weight *= 2
            # the slot now holds weight * value; dividing recovers the value
            decoded = codec.unpack_vector(packed, len(values), weight=weight)
            assert np.allclose(decoded / weight, values, atol=1.0 / SCALE)

    def test_weight_above_headroom_raises(self):
        codec = small_codec(weight_bits=8)
        with pytest.raises(EncodingOverflowError):
            codec.check_weight(codec.max_weight + 1)
        packed = codec.pack_vector([1.0])
        with pytest.raises(EncodingOverflowError):
            codec.unpack_vector(packed, 1, weight=codec.max_weight * 2)

    def test_slot_overflow_raises(self):
        codec = small_codec(value_bound=1.0)
        with pytest.raises(EncodingOverflowError):
            codec.pack_vector([(codec.offset - 1) / codec.scale + 1.0])

    def test_plan_respects_slot_cap(self):
        assert small_codec(slots=4).slots == 4

    def test_plan_falls_back_when_space_too_small(self):
        assert PackedCodec.plan(1 << 64, SCALE, value_bound=10.0, weight_bits=40) is None

    def test_plan_layout_formula(self):
        codec = small_codec()
        assert codec.slots * codec.slot_bits <= MODULUS.bit_length() - 2
        assert codec.slot_bits == codec.value_bits + 20


class TestNormalizePacking:
    def test_choices(self):
        assert normalize_packing("auto") == "auto"
        assert normalize_packing("off") == "off"
        assert normalize_packing(8) == 8
        assert normalize_packing("8") == 8

    @pytest.mark.parametrize("bad", ["always", 0, -3, 1.5, True, None])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValidationError):
            normalize_packing(bad)

    def test_config_validates_packing(self):
        assert CryptoConfig(packing="off").packing == "off"
        assert CryptoConfig(packing=16).packing == 16
        with pytest.raises(ConfigurationError):
            CryptoConfig(packing="sometimes")


@pytest.fixture(scope="module")
def packed_plain() -> PlainBackend:
    return PlainBackend(threshold=2, n_shares=4, encoding_scale=10**6, packing="auto",
                        packing_value_bound=4.0)


@pytest.fixture(scope="module")
def packed_dj() -> DamgardJurikBackend:
    return DamgardJurikBackend(
        key_bits=192, degree=1, threshold=2, n_shares=4, encoding_scale=10**4,
        packing="auto", packing_value_bound=4.0, packing_weight_bits=20,
    )


class TestPackedBackends:
    @pytest.fixture(params=["plain", "damgard_jurik"])
    def backend(self, request, packed_plain, packed_dj):
        return packed_plain if request.param == "plain" else packed_dj

    def test_backend_reports_packing(self, backend):
        assert backend.is_packed
        assert backend.packing.slots >= 2
        assert backend.plaintext_capacity_bits == backend.packing.slot_bits

    def test_round_trip(self, backend):
        values = np.array([0.5, -1.25, 0.0, 2.5, -0.75, 1.125, 3.0, -2.0])
        vector = backend.encrypt_vector(values)
        assert len(vector) == values.size
        assert vector.n_ciphertexts == backend.packing.n_ciphertexts(values.size)
        assert vector.n_ciphertexts < values.size
        decoded = backend.decrypt_with_shares(vector, [1, 2])
        assert np.allclose(decoded, values, atol=1e-3)

    def test_integer_round_trip(self, backend):
        vector = backend.encrypt_integer_vector([0, 1, 5, -17, 123])
        decoded = backend.decrypt_with_shares(vector, [1, 2], integer=True)
        assert np.allclose(decoded, [0, 1, 5, -17, 123])

    def test_zero_vector(self, backend):
        vector = backend.encrypt_zero_vector(7)
        assert np.allclose(backend.decrypt_with_shares(vector, [1, 2]), 0.0)

    def test_addition_tracks_weight(self, backend):
        a = backend.encrypt_vector([1.0, -2.0, 3.0, 0.5])
        b = backend.encrypt_vector([0.5, 2.0, -1.0, -0.25])
        summed = backend.add(a, b)
        assert summed.weight == 2
        decoded = backend.decrypt_with_shares(summed, [1, 2])
        assert np.allclose(decoded, [1.5, 0.0, 2.0, 0.25], atol=1e-3)

    def test_scalar_multiplication_tracks_weight(self, backend):
        vector = backend.encrypt_vector([0.5, -1.0, 0.25])
        scaled = backend.multiply_scalar(vector, 4)
        assert scaled.weight == 4
        decoded = backend.decrypt_with_shares(scaled, [1, 2])
        assert np.allclose(decoded, [2.0, -4.0, 1.0], atol=1e-2)

    def test_zero_factor_rejected_when_packed(self, backend):
        vector = backend.encrypt_vector([1.0])
        with pytest.raises(CryptoError):
            backend.multiply_scalar(vector, 0)

    def test_unpacked_vector_rejected(self, backend):
        foreign = EncryptedVector(payload=(1, 2, 3), backend_name=backend.name)
        with pytest.raises(CryptoError):
            backend.add(foreign, foreign)

    def test_counters_count_ciphertexts_not_coordinates(self, backend):
        backend.counter.reset()
        vector = backend.encrypt_vector(np.linspace(-1.0, 1.0, 8))
        backend.add(vector, vector)
        counted = backend.counter.as_dict()
        assert counted["encryptions"] == vector.n_ciphertexts
        assert counted["additions"] == vector.n_ciphertexts
        backend.counter.reset()


class TestPackedGossip:
    def test_average_estimates_packed(self, packed_plain):
        first = fresh_estimate(packed_plain, [1.0, 3.0, -1.0])
        second = fresh_estimate(packed_plain, [3.0, 1.0, 2.0])
        averaged = average_estimates(packed_plain, first, second)
        decoded = decode_estimate(packed_plain, averaged, [1, 2])
        assert np.allclose(decoded, [2.0, 2.0, 0.5], atol=1e-5)

    def test_payload_bytes_shrink(self, packed_plain):
        unpacked = PlainBackend(threshold=2, n_shares=4, encoding_scale=10**6)
        values = np.linspace(0.0, 1.0, 64)
        packed_estimate = fresh_estimate(packed_plain, values)
        plain_estimate = fresh_estimate(unpacked, values)
        assert estimate_payload_bytes(packed_plain, packed_estimate) < (
            estimate_payload_bytes(unpacked, plain_estimate) / 4
        )

    def test_pair_sequence_matches_unpacked(self):
        """A fixed sequence of pairwise averages decodes bit-equal in both
        layouts, including averages of estimates at different exponents."""
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1.0, size=(8, 6))
        # (0, 2), (0, 3), (5, 0), (2, 5) and (0, 6) meet at different
        # exponents.
        pairs = [(0, 1), (0, 2), (3, 4), (0, 3), (5, 0), (6, 7),
                 (1, 6), (2, 5), (4, 7), (0, 6)]
        decoded = {}
        for packing in ("auto", "off"):
            backend = PlainBackend(threshold=2, n_shares=4, packing=packing)
            estimates = [fresh_estimate(backend, row) for row in values]
            for left, right in pairs:
                merged = average_estimates(backend, estimates[left], estimates[right])
                estimates[left] = estimates[right] = merged
            assert {e.halvings for e in estimates} == {2, 3, 5}
            decoded[packing] = np.vstack(
                [decode_estimate(backend, e, [1, 2]) for e in estimates]
            )
        assert np.array_equal(decoded["auto"], decoded["off"])
        clear = values.copy()
        for left, right in pairs:
            clear[left] = clear[right] = (clear[left] + clear[right]) / 2
        assert np.allclose(decoded["auto"], clear, atol=1e-5)


class TestAcceptanceRatio:
    def test_packed_2048_bit_key_cuts_operations_at_least_4x(self):
        """ISSUE acceptance: 64-point series, 2048-bit key, ≥ 4× fewer ops.

        The plain backend with packing widens its simulated plaintext to the
        2048-bit space of a 4096-bit degree-1 ciphertext, i.e. exactly the
        layout a 2048-bit-modulus real deployment would use.
        """
        series = np.linspace(0.0, 1.0, 64)
        packed = PlainBackend(threshold=2, n_shares=4, packing="auto")
        unpacked = PlainBackend(threshold=2, n_shares=4)
        assert packed.codec.modulus.bit_length() - 1 == 2048

        for backend in (packed, unpacked):
            backend.counter.reset()
            first = fresh_estimate(backend, series)
            second = fresh_estimate(backend, series[::-1])
            average_estimates(backend, first, second)
        packed_ops = packed.counter.as_dict()
        unpacked_ops = unpacked.counter.as_dict()
        assert packed_ops["encryptions"] * 4 <= unpacked_ops["encryptions"]
        assert packed_ops["additions"] * 4 <= unpacked_ops["additions"]

    def test_packed_dj_round_trip_through_gossip(self, packed_dj):
        """Real packed Damgård–Jurik survives averaging + threshold decryption."""
        first = fresh_estimate(packed_dj, [0.5, -1.5, 2.0, 0.0, 1.0])
        second = fresh_estimate(packed_dj, [1.5, 0.5, -1.0, 2.0, 0.0])
        averaged = average_estimates(packed_dj, first, second)
        decoded = decode_estimate(packed_dj, averaged, [1, 2])
        assert np.allclose(decoded, [1.0, -0.5, 0.5, 1.0, 0.5], atol=1e-3)


class TestPackedProtocolRun:
    @pytest.fixture(scope="class")
    def runs(self):
        collection = generate_gaussian_clusters(
            n_series=30, series_length=12, n_clusters=3, noise_std=0.05, seed=7
        )
        base = ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 3, "max_iterations": 3},
            privacy={"epsilon": 2.0, "noise_shares": 16},
            gossip={"cycles_per_aggregation": 6},
            simulation={"n_participants": 30},
        )
        return {
            mode: run_chiaroscuro(
                collection, base.with_overrides(crypto={"packing": mode})
            )
            for mode in ("off", "auto")
        }

    def test_packed_run_bit_identical_to_unpacked(self, runs):
        off, auto = runs["off"], runs["auto"]
        assert np.array_equal(off.profiles, auto.profiles)
        assert np.array_equal(off.assignments, auto.assignments)
        assert off.n_iterations == auto.n_iterations
        assert off.epsilon_spent == auto.epsilon_spent

    def test_packed_run_costs_less(self, runs):
        off, auto = runs["off"], runs["auto"]
        assert auto.metadata["packing"]["enabled"]
        assert auto.metadata["packing"]["slots"] >= 4
        assert auto.costs.encryptions * 4 <= off.costs.encryptions
        assert auto.costs.homomorphic_additions * 4 <= off.costs.homomorphic_additions
        assert auto.costs.bytes_sent * 2 <= off.costs.bytes_sent

    def test_the_layout_does_not_change_the_message_pattern(self, runs):
        """Fewer, wider ciphertexts; the same messages between the same
        devices.  The modelled bytes of the unpacked run are pinned at what
        the per-cluster decryption rounds this layout once had charged:
        one round of k estimates carries the same ciphertexts."""
        off, auto = runs["off"], runs["auto"]
        assert not off.metadata["packing"]["enabled"]
        assert off.costs.messages_sent == auto.costs.messages_sent == 1534
        assert off.costs.bytes_sent_modelled == 50539776
        assert off.costs.partial_decryptions == 10530
        priced = ProtocolWorkload(
            n_clusters=3, series_length=12, iterations=3, gossip_cycles=6,
            exchanges_per_cycle=1, threshold=3,
        ).messages_per_iteration
        for run in (off, auto):
            per_node_iteration = run.costs.messages_sent / (30 * run.n_iterations)
            assert abs(per_node_iteration - priced) < 1.0


class TestPlainSlabArithmetic:
    """The plain backend's arithmetic has two regimes: an int64 slab for small
    moduli, a loop over Python integers otherwise (named "object path" below
    after the object arrays it used to build).  Both must agree with the
    scalar maths."""

    @pytest.fixture()
    def small_modulus_backend(self) -> PlainBackend:
        # 48-bit modulus: additions and small-factor multiplications take the
        # int64 fast path.
        return PlainBackend(threshold=2, n_shares=4, encoding_scale=10**6,
                            modulus_bits=48)

    def test_int64_addition_round_trip(self, small_modulus_backend):
        backend = small_modulus_backend
        a = backend.encrypt_vector([1.5, -2.25, 0.0, 3.0])
        b = backend.encrypt_vector([-0.5, 2.25, -1.0, 0.125])
        decoded = backend.decrypt_with_shares(backend.add(a, b), [1, 2])
        assert np.allclose(decoded, [1.0, 0.0, -1.0, 3.125], atol=1e-5)

    def test_int64_small_factor_multiplication(self, small_modulus_backend):
        backend = small_modulus_backend
        vector = backend.encrypt_vector([0.5, -1.0])
        decoded = backend.decrypt_with_shares(backend.multiply_scalar(vector, 8), [1, 2])
        assert np.allclose(decoded, [4.0, -8.0], atol=1e-5)

    def test_large_factor_falls_back_to_object_path(self, small_modulus_backend):
        backend = small_modulus_backend
        # factor bits + modulus bits > 62: must leave the int64 slab and still
        # wrap correctly modulo 2^48.
        vector = backend.encrypt_integer_vector([3])
        scaled = backend.multiply_scalar(vector, 1 << 20)
        decoded = backend.decrypt_with_shares(scaled, [1, 2], integer=True)
        assert decoded.tolist() == [float(3 << 20)]


class TestMakeBackendPacking:
    def test_factory_passes_packing_through(self):
        backend = make_backend("plain", packing="auto")
        assert backend.is_packed
        backend = make_backend("plain", packing="off")
        assert not backend.is_packed

    def test_small_key_falls_back_to_unpacked(self):
        backend = make_backend(
            "damgard_jurik", key_bits=64, threshold=2, n_shares=3,
            encoding_scale=10**6, packing="auto",
        )
        assert not backend.is_packed

    def test_explicit_slot_cap(self):
        backend = make_backend("plain", packing=2)
        assert backend.is_packed
        assert backend.packing.slots == 2
