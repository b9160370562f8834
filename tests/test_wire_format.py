"""Conformance and fuzzing suite of the binary wire format.

Three layers of guarantees:

* **primitives** — canonical varints/bigints (exactly one encoding per
  value, redundant encodings rejected), strict booleans, bounds enforced
  before allocation;
* **round-trips** — ``deserialize(serialize(m)) == m`` for every message
  type, payload style (plain / Damgård–Jurik-sized / packed) and slot
  count, property-tested with Hypothesis;
* **adversarial decoding** — random bytes, truncated frames, bit-flipped
  frames and hostile length fields must raise
  :class:`~repro.exceptions.WireFormatError` and nothing else (no crashes,
  no hangs, no unbounded allocation).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backends import EncryptedVector, PartialVectorDecryption
from repro.crypto import wire
from repro.crypto.wire import (
    WireReader,
    read_encrypted_vector,
    read_partial_decryption,
    write_bigint,
    write_encrypted_vector,
    write_partial_decryption,
    write_varint,
)
from repro.exceptions import WireFormatError
from repro.gossip.encrypted_sum import EncryptedEstimate
from repro.gossip import messages
from repro.gossip.messages import (
    DecryptRequest,
    DecryptResponse,
    DiptychExchange,
    DiptychReply,
    KeyAnnouncement,
    MembershipAnnouncement,
    deserialize,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

WIDTHS = (1, 2, 8, 48, 64)

backend_names = st.sampled_from(("plain", "damgard_jurik", "paillier"))
weights = st.one_of(
    st.integers(min_value=1, max_value=1 << 16),
    st.integers(min_value=1 << 64, max_value=1 << 90),  # beyond the varint range
)


@st.composite
def encrypted_vectors(draw, width=None):
    """An EncryptedVector whose ciphertexts fit *width* bytes, plus the width."""
    if width is None:
        width = draw(st.sampled_from(WIDTHS))
    bound = (1 << (8 * width)) - 1
    packed = draw(st.booleans())
    if packed:
        length = draw(st.integers(min_value=1, max_value=40))
        slots = draw(st.integers(min_value=1, max_value=8))
        count = -(-length // slots)
    else:
        length = draw(st.integers(min_value=0, max_value=12))
        count = length
    payload = tuple(
        draw(st.integers(min_value=0, max_value=bound)) for _ in range(count)
    )
    vector = EncryptedVector(
        payload=payload, backend_name=draw(backend_names), length=length,
        packed=packed, weight=draw(weights),
    )
    return vector, width


@st.composite
def estimates(draw, width=None):
    vector, width = draw(encrypted_vectors(width=width))
    return EncryptedEstimate(vector=vector, halvings=draw(st.integers(0, 200))), width


@st.composite
def partial_decryptions(draw, width):
    vector, _ = draw(encrypted_vectors(width=width))
    return PartialVectorDecryption(
        share_index=draw(st.integers(1, 64)), payload=vector.payload,
        backend_name=vector.backend_name, length=len(vector),
        packed=vector.packed, weight=vector.weight,
    )


@st.composite
def wire_messages(draw):
    kind = draw(st.sampled_from(
        ("diptych", "diptych_rep", "dec_req", "dec_rep", "membership", "key")
    ))
    if kind in ("diptych", "diptych_rep"):
        width = draw(st.sampled_from(WIDTHS))
        k = draw(st.integers(1, 3))
        data = tuple(draw(estimates(width=width))[0] for _ in range(k))
        noise = tuple(draw(estimates(width=width))[0] for _ in range(k))
        cls = DiptychExchange if kind == "diptych" else DiptychReply
        return cls(iteration=draw(st.integers(0, 1000)), data_estimates=data,
                   noise_estimates=noise, ciphertext_bytes=width)
    if kind == "dec_req":
        width = draw(st.sampled_from(WIDTHS))
        ests = tuple(draw(estimates(width=width))[0]
                     for _ in range(draw(st.integers(1, 3))))
        return DecryptRequest(estimates=ests, ciphertext_bytes=width)
    if kind == "dec_rep":
        width = draw(st.sampled_from(WIDTHS))
        partials = tuple(draw(partial_decryptions(width))
                         for _ in range(draw(st.integers(1, 3))))
        return DecryptResponse(partials=partials, ciphertext_bytes=width)
    if kind == "membership":
        return MembershipAnnouncement(
            node_id=draw(st.integers(0, 1 << 30)), online=draw(st.booleans()),
            cycle=draw(st.integers(0, 1 << 30)),
        )
    return KeyAnnouncement(
        modulus=draw(st.integers(6, 1 << 256)), degree=draw(st.integers(1, 8)),
        threshold=draw(st.integers(1, 8)),
        n_shares=draw(st.integers(8, 16)),
    )


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

class TestPrimitives:
    @given(value=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=200)
    def test_varint_round_trip_and_size(self, value):
        out = bytearray()
        write_varint(out, value)
        assert len(out) == wire.varint_size(value)
        reader = WireReader(bytes(out))
        assert reader.read_varint() == value
        assert reader.remaining == 0

    def test_varint_rejects_out_of_range(self):
        out = bytearray()
        with pytest.raises(WireFormatError):
            write_varint(out, -1)
        with pytest.raises(WireFormatError):
            write_varint(out, 1 << 64)

    def test_varint_rejects_redundant_encoding(self):
        # 0x81 0x00 is a two-byte encoding of 1; only 0x01 is canonical.
        with pytest.raises(WireFormatError):
            WireReader(b"\x81\x00").read_varint()

    def test_varint_rejects_overlong(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\xff" * 11).read_varint()

    @given(value=st.integers(min_value=0, max_value=1 << 600))
    @settings(max_examples=200)
    def test_bigint_round_trip(self, value):
        out = bytearray()
        write_bigint(out, value)
        reader = WireReader(bytes(out))
        assert reader.read_bigint(max_bytes=100) == value
        assert reader.remaining == 0

    def test_bigint_rejects_leading_zero(self):
        # length 2, bytes 00 07: non-minimal encoding of 7.
        with pytest.raises(WireFormatError):
            WireReader(b"\x02\x00\x07").read_bigint()

    def test_bool_is_strict(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x02").read_bool()

    def test_ciphertext_must_fit_width(self):
        out = bytearray()
        with pytest.raises(WireFormatError):
            wire.write_ciphertext(out, 1 << 16, 2)

    def test_ciphertext_width_rounds_bits_up_to_bytes(self, plain_backend, dj_backend):
        assert wire.wire_ciphertext_bytes(plain_backend) == 4096 // 8
        bits = dj_backend.ciphertext_bits
        width = wire.wire_ciphertext_bytes(dj_backend)
        assert 8 * (width - 1) < bits <= 8 * width
        ciphertext = dj_backend.encrypt_vector([0.5]).payload[0]
        out = bytearray()
        wire.write_ciphertext(out, ciphertext, width)
        assert WireReader(bytes(out)).read_ciphertext(width) == ciphertext


class TestVectorBlocks:
    @given(data=encrypted_vectors())
    @settings(max_examples=200)
    def test_vector_round_trip(self, data):
        vector, width = data
        out = bytearray()
        write_encrypted_vector(out, vector, width)
        reader = WireReader(bytes(out))
        assert read_encrypted_vector(reader, width) == vector
        assert reader.remaining == 0

    @given(data=st.data(), width=st.sampled_from(WIDTHS))
    @settings(max_examples=100)
    def test_partial_decryption_round_trip(self, data, width):
        partial = data.draw(partial_decryptions(width))
        out = bytearray()
        write_partial_decryption(out, partial, width)
        reader = WireReader(bytes(out))
        assert read_partial_decryption(reader, width) == partial
        assert reader.remaining == 0

    def test_partial_decryption_share_index_limits(self):
        partial = PartialVectorDecryption(
            share_index=wire.MAX_SHARE_INDEX + 1, payload=(1,),
            backend_name="plain", length=1,
        )
        with pytest.raises(WireFormatError):
            write_partial_decryption(bytearray(), partial, 8)
        # A zero share index (varint 0x00) ahead of an otherwise valid block.
        valid = bytearray()
        write_partial_decryption(valid, PartialVectorDecryption(
            share_index=1, payload=(1,), backend_name="plain", length=1,
        ), 8)
        with pytest.raises(WireFormatError, match="1-based"):
            read_partial_decryption(WireReader(b"\x00" + bytes(valid[1:])), 8)

    def test_unpacked_count_must_match_length(self):
        vector = EncryptedVector(payload=(1, 2, 3), backend_name="plain",
                                 length=3, packed=False)
        out = bytearray()
        write_encrypted_vector(out, vector, 8)
        # Patch the logical length field (varint right after the name).
        corrupted = bytearray(out)
        corrupted[6] = 7  # name is 1+5 bytes; length varint at offset 6
        with pytest.raises(WireFormatError):
            read_encrypted_vector(WireReader(bytes(corrupted)), 8)

    def test_packed_slot_metadata_cannot_overflow(self):
        # A packed vector claiming more ciphertexts than coordinates.
        out = bytearray()
        wire.write_string(out, "plain")
        write_varint(out, 2)  # logical length
        wire.write_bool(out, True)  # packed
        write_bigint(out, 1)  # weight
        write_varint(out, 5)  # 5 ciphertexts for 2 coordinates: overflow
        out.extend(b"\x00" * 5)
        with pytest.raises(WireFormatError):
            read_encrypted_vector(WireReader(bytes(out)), 1)

    def test_declared_count_checked_before_allocation(self):
        # A tiny frame declaring 2**20 ciphertexts must fail fast.
        out = bytearray()
        wire.write_string(out, "plain")
        write_varint(out, 1 << 20)
        wire.write_bool(out, False)
        write_bigint(out, 1)
        write_varint(out, 1 << 20)
        with pytest.raises(WireFormatError):
            read_encrypted_vector(WireReader(bytes(out)), 64)


# ---------------------------------------------------------------------------
# framed messages
# ---------------------------------------------------------------------------

class TestMessageRoundTrips:
    @given(message=wire_messages())
    @settings(max_examples=300)
    def test_round_trip(self, message):
        assert deserialize(message.serialize()) == message

    @given(message=wire_messages())
    @settings(max_examples=50)
    def test_serialization_is_deterministic(self, message):
        assert message.serialize() == message.serialize()

    @given(slots=st.integers(1, 24), length=st.integers(1, 60))
    @settings(max_examples=100)
    def test_every_slot_count_round_trips(self, slots, length):
        count = -(-length // slots)
        vector = EncryptedVector(
            payload=tuple(range(1, count + 1)), backend_name="plain",
            length=length, packed=True, weight=1 << slots,
        )
        message = DecryptRequest(
            estimates=(EncryptedEstimate(vector=vector, halvings=slots),),
            ciphertext_bytes=8,
        )
        assert deserialize(message.serialize()) == message


class TestAdversarialDecoding:
    """Malformed input raises WireFormatError — never anything else."""

    MEMBERSHIP = MembershipAnnouncement(node_id=1, online=True, cycle=0)

    @given(data=st.binary(max_size=300))
    @settings(max_examples=400)
    def test_random_bytes_never_crash(self, data):
        try:
            deserialize(data)
        except WireFormatError:
            pass  # the only acceptable exception

    @given(message=wire_messages(), data=st.data())
    @settings(max_examples=200)
    def test_truncations_rejected(self, message, data):
        frame = message.serialize()
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(WireFormatError):
            deserialize(frame[:cut])

    @given(message=wire_messages(), data=st.data())
    @settings(max_examples=300)
    def test_bit_flips_rejected(self, message, data):
        frame = bytearray(message.serialize())
        position = data.draw(st.integers(0, len(frame) * 8 - 1))
        frame[position // 8] ^= 1 << (position % 8)
        with pytest.raises(WireFormatError):
            deserialize(bytes(frame))

    @given(message=wire_messages(), data=st.data())
    @settings(max_examples=100)
    def test_appended_garbage_rejected(self, message, data):
        frame = message.serialize()
        garbage = data.draw(st.binary(min_size=1, max_size=16))
        with pytest.raises(WireFormatError):
            deserialize(bytes(frame) + garbage)

    def test_wrong_version_rejected(self):
        frame = bytearray(self.MEMBERSHIP.serialize())
        frame[2] = 99
        with pytest.raises(WireFormatError):
            deserialize(bytes(frame))

    def test_unknown_type_rejected(self):
        frame = bytearray(self.MEMBERSHIP.serialize())
        frame[3] = 0xEE
        with pytest.raises(WireFormatError):
            deserialize(bytes(frame))

    def test_over_length_body_rejected(self):
        # A header declaring a body far beyond the frame limit.
        header = bytearray(b"CW")
        header.append(wire.WIRE_VERSION)
        header.append(MembershipAnnouncement.TYPE)
        write_varint(header, wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(WireFormatError):
            deserialize(bytes(header) + b"\x00" * 16)

    def test_non_bytes_rejected(self):
        with pytest.raises(WireFormatError):
            deserialize("not bytes")  # type: ignore[arg-type]


class TestWriteSideLimits:
    """serialize() enforces the decoder's limits: no unparseable frames."""

    def test_membership_fields_capped(self):
        with pytest.raises(WireFormatError):
            MembershipAnnouncement(node_id=1 << 33, online=True, cycle=0).serialize()

    def test_key_announcement_degree_capped(self):
        with pytest.raises(WireFormatError):
            KeyAnnouncement(modulus=1 << 64, degree=65, threshold=2,
                            n_shares=4).serialize()

    def test_key_announcement_consistency_enforced(self):
        with pytest.raises(WireFormatError):
            KeyAnnouncement(modulus=1 << 64, degree=1, threshold=5,
                            n_shares=4).serialize()

    def test_halvings_capped(self):
        vector = EncryptedVector(payload=(1,), backend_name="plain", length=1)
        message = DecryptRequest(
            estimates=(EncryptedEstimate(vector=vector, halvings=(1 << 20) + 1),),
            ciphertext_bytes=8,
        )
        with pytest.raises(WireFormatError):
            message.serialize()

    def test_share_index_must_be_positive(self):
        partial = PartialVectorDecryption(
            share_index=0, payload=(1,), backend_name="plain", length=1,
        )
        with pytest.raises(WireFormatError):
            DecryptResponse(partials=(partial,), ciphertext_bytes=8).serialize()

    def test_weight_must_be_positive(self):
        vector = EncryptedVector(payload=(1,), backend_name="plain", length=1,
                                 weight=0)
        out = bytearray()
        with pytest.raises(WireFormatError):
            write_encrypted_vector(out, vector, 8)

    @given(message=wire_messages())
    @settings(max_examples=150)
    def test_every_serializable_message_deserializes(self, message):
        # The strategies stay inside the documented field limits, so this
        # also pins the write-side checks to the decoder's bounds.
        assert deserialize(message.serialize()) == message
