"""The vector block codec against a straight-line oracle.

``WireReader.read_vector_block`` walks a block's header with a local offset
and cuts the payload in one pass; ``_write_vector_block`` joins the payload
in one pass.  The oracle below is the block codec as it was before that —
one public primitive accessor per field, one per ciphertext — and the two
must agree: same value and same reader position, or the same
:class:`WireFormatError` with the same text.

The named cases are the header shapes a hand-offset reader gets wrong
(two-byte varints, a two-byte weight length, the longest and a multi-byte
name, the widths at both limits, an empty vector, a cut or a redundant
varint byte at every header position); Hypothesis and the targeted-mutation
corpus of ``frame_mutations`` cover the rest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import wire
from repro.crypto.backends import EncryptedVector
from repro.crypto.wire import (
    MAX_CIPHERTEXT_BYTES,
    MAX_FRAME_BYTES,
    MAX_NAME_BYTES,
    MAX_VECTOR_COMPONENTS,
    WireReader,
    read_encrypted_vector,
    write_bigint,
    write_bool,
    write_encrypted_vector,
    write_string,
    write_varint,
)
from repro.exceptions import WireFormatError
from repro.gossip import messages
from repro.gossip.encrypted_sum import EncryptedEstimate
from repro.gossip.messages import DecryptRequest, deserialize
from test_net_faults import ALL_MUTATIONS, FRAMES, _mutation_id


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def oracle_write_vector_block(out, backend_name, length, packed, weight, payload,
                              ciphertext_bytes):
    if not 0 < ciphertext_bytes <= MAX_CIPHERTEXT_BYTES:
        raise WireFormatError(
            f"ciphertext width {ciphertext_bytes} outside (0, {MAX_CIPHERTEXT_BYTES}]"
        )
    if length > MAX_VECTOR_COMPONENTS:
        raise WireFormatError(f"vector length {length} exceeds the wire limit")
    if weight < 1:
        raise WireFormatError("homomorphic weight must be >= 1")
    write_string(out, backend_name)
    write_varint(out, length)
    write_bool(out, packed)
    write_bigint(out, weight)
    write_varint(out, len(payload))
    for ciphertext in payload:
        value = int(ciphertext)
        if value < 0:
            raise WireFormatError(f"ciphertexts are non-negative, got {value}")
        try:
            out.extend(value.to_bytes(ciphertext_bytes, "big"))
        except OverflowError as exc:
            raise WireFormatError(
                f"ciphertext needs {(value.bit_length() + 7) // 8} bytes but the "
                f"declared width is {ciphertext_bytes}"
            ) from exc


def oracle_read_vector_block(reader, ciphertext_bytes):
    backend_name = reader.read_string()
    length = reader.read_varint(limit=MAX_VECTOR_COMPONENTS)
    packed = reader.read_bool()
    weight = reader.read_bigint(max_bytes=MAX_CIPHERTEXT_BYTES)
    if weight < 1:
        raise WireFormatError("homomorphic weight must be >= 1")
    count = reader.read_varint(limit=MAX_VECTOR_COMPONENTS)
    if count * ciphertext_bytes > reader.remaining:
        raise WireFormatError(
            f"truncated vector: {count} ciphertexts of {ciphertext_bytes} bytes "
            f"declared, {reader.remaining} bytes available"
        )
    if packed:
        if count > length or (length > 0 and count == 0):
            raise WireFormatError(
                f"inconsistent packed layout: {count} ciphertexts for "
                f"{length} coordinates"
            )
    elif count != length:
        raise WireFormatError(
            f"unpacked vector must carry one ciphertext per coordinate "
            f"(length {length}, ciphertexts {count})"
        )
    payload = tuple(reader.read_ciphertext(ciphertext_bytes) for _ in range(count))
    return backend_name, length, packed, weight, payload


def outcome(function, *args):
    """What a call did: its value, or the class and text of what it raised."""
    try:
        return "value", function(*args)
    except Exception as exc:  # the comparison is the check on the class
        return type(exc), str(exc)


def read_both(data, width):
    """Both readers over *data*; asserts they agree and returns the outcome."""
    def read(block_reader):
        reader = WireReader(data)
        return block_reader(reader, width), reader.remaining

    new = outcome(read, WireReader.read_vector_block)
    assert new == outcome(read, oracle_read_vector_block)
    assert new[0] in ("value", WireFormatError)
    return new


def write_both(name, length, packed, weight, payload, width):
    """Both writers; asserts they agree and returns the outcome."""
    def write(block_writer):
        out = bytearray(b"\xaa")  # the writers append, never overwrite
        block_writer(out, name, length, packed, weight, payload, width)
        return bytes(out)

    new = outcome(write, wire._write_vector_block)
    assert new == outcome(write, oracle_write_vector_block)
    assert new[0] in ("value", WireFormatError)
    return new


def block(name=b"plain", length=2, packed=0, weight=b"\x01", count=2,
          payload=b"\x00\x07\x00\x09", *, varint=None):
    """A block from raw parts; *varint* names one varint field to write in
    its redundant two-byte form."""
    def field(key, value):
        if key == varint:
            return bytes([value | 0x80, 0x00])
        out = bytearray()
        write_varint(out, value)
        return bytes(out)

    return (field("name", len(name)) + name + field("length", length)
            + bytes([packed]) + field("weight", len(weight)) + weight
            + field("count", count) + payload)


# ---------------------------------------------------------------------------
# named header shapes
# ---------------------------------------------------------------------------

class TestHeaderShapes:
    @pytest.mark.parametrize("length, packed, count", [
        (127, False, 127), (128, False, 128), (300, False, 300),
        (20000, True, 130), (MAX_VECTOR_COMPONENTS, True, 1),
    ])
    def test_two_byte_length_and_count(self, length, packed, count):
        payload = tuple(range(1, count + 1))
        kind, data = write_both("plain", length, packed, 1, payload, 2)
        assert kind == "value"
        assert read_both(data[1:], 2) == (
            "value", (("plain", length, packed, 1, payload), 0))

    @pytest.mark.parametrize("bits, low", [
        (1015, 1),  # 127 bytes: the longest one-byte weight length
        (1016, 0),  # 128 bytes: the first two-byte one
        (4000, 5),
        (8 * MAX_CIPHERTEXT_BYTES - 1, 3),
    ])
    def test_wide_weight(self, bits, low):
        weight = (1 << bits) + low
        kind, data = write_both("plain", 1, False, weight, (3,), 1)
        assert kind == "value"
        assert read_both(data[1:], 1) == ("value", (("plain", 1, False, weight, (3,)), 0))

    def test_weight_over_the_limit(self):
        assert write_both("plain", 1, False, 1 << (8 * MAX_CIPHERTEXT_BYTES), (3,), 1)[0] \
            is WireFormatError

    @pytest.mark.parametrize("name", [
        "", "p", "x" * MAX_NAME_BYTES, "é" * (MAX_NAME_BYTES // 2), "密文-Ω-𝔭",
    ])
    def test_names(self, name):
        kind, data = write_both(name, 1, True, 2, (9,), 4)
        assert kind == "value"
        assert read_both(data[1:], 4) == ("value", ((name, 1, True, 2, (9,)), 0))

    @pytest.mark.parametrize("name", ["x" * (MAX_NAME_BYTES + 1), "é" * 33])
    def test_name_over_the_limit(self, name):
        assert write_both(name, 1, True, 2, (9,), 4)[0] is WireFormatError
        raw = name.encode("utf-8")
        assert read_both(block(name=raw), 2)[0] is WireFormatError

    @pytest.mark.parametrize("name", [b"\xff", b"pl\xc3", b"\xed\xa0\x80", b"a\x80b"])
    def test_invalid_utf8_name(self, name):
        assert read_both(block(name=name), 2) == (
            WireFormatError, "invalid UTF-8 in wire string")

    @pytest.mark.parametrize("width", [1, MAX_CIPHERTEXT_BYTES])
    def test_width_limits(self, width):
        payload = (0, (1 << (8 * width)) - 1, 1 << (8 * width - 1))
        kind, data = write_both("plain", 3, False, 1, payload, width)
        assert kind == "value" and len(data) == 1 + 11 + 3 * width
        assert read_both(data[1:], width) == (
            "value", (("plain", 3, False, 1, payload), 0))

    @pytest.mark.parametrize("width", [0, -1, MAX_CIPHERTEXT_BYTES + 1])
    def test_width_outside_the_limits_on_encode(self, width):
        assert write_both("plain", 1, False, 1, (1,), width)[0] is WireFormatError

    def test_empty_unpacked_vector(self):
        kind, data = write_both("plain", 0, False, 1, (), 8)
        assert kind == "value"
        assert read_both(data[1:], 8) == ("value", (("plain", 0, False, 1, ()), 0))
        assert read_both(data[1:] + b"rest", 8)[1][1] == 4

    @pytest.mark.parametrize("packed, length, count", [
        (1, 2, 3), (1, 2, 0), (0, 2, 1), (0, 1, 2), (1, 0, 1),
    ])
    def test_inconsistent_layouts(self, packed, length, count):
        data = block(length=length, packed=packed, count=count,
                     payload=b"\x00" * (2 * count))
        assert read_both(data, 2)[0] is WireFormatError

    def test_packed_empty_vector(self):
        assert read_both(block(length=0, packed=1, count=0, payload=b""), 2) == (
            "value", (("plain", 0, True, 1, ()), 0))

    @pytest.mark.parametrize("flag", [2, 0x80, 0xFF])
    def test_invalid_packed_flag(self, flag):
        assert read_both(block(packed=flag), 2) == (
            WireFormatError, f"invalid boolean byte 0x{flag:02x}")

    @pytest.mark.parametrize("weight", [b"", b"\x00", b"\x00\x05"])
    def test_zero_or_non_canonical_weight(self, weight):
        assert read_both(block(weight=weight), 2)[0] is WireFormatError

    @pytest.mark.parametrize("field", ["name", "length", "weight", "count"])
    def test_non_canonical_varint_at_each_header_varint(self, field):
        assert read_both(block(varint=field), 2) == (
            WireFormatError, "non-canonical varint (redundant byte)")

    @pytest.mark.parametrize("field", ["name", "length", "weight", "count"])
    def test_overlong_varint_at_each_header_varint(self, field):
        data = block()
        at = {"name": 0, "length": 6, "weight": 8, "count": 10}[field]
        assert data[at] < 0x80
        assert read_both(data[:at] + b"\xff" * 11 + data[at + 1:], 2) == (
            WireFormatError, "varint longer than 10 bytes")

    @pytest.mark.parametrize("data", [
        block(),
        block(name="é".encode() * 20, length=200, packed=1, weight=b"\x01" * 130,
              count=129, payload=b"\x05" * 129),
    ], ids=["short-header", "two-byte-varints"])
    def test_truncation_at_every_position(self, data):
        width = 2 if len(data) < 40 else 1
        assert read_both(data, width)[0] == "value"
        for cut in range(len(data)):
            assert read_both(data[:cut], width)[0] is WireFormatError, cut

    def test_fields_over_their_limits(self):
        over = bytearray()
        write_varint(over, MAX_VECTOR_COMPONENTS + 1)
        head = b"\x05plain"
        assert read_both(head + bytes(over) + b"\x00\x01\x01\x00", 2)[0] is WireFormatError
        assert read_both(head + b"\x01\x01\x01\x01" + bytes(over), 2)[0] is WireFormatError
        wide = bytearray()
        write_varint(wide, MAX_CIPHERTEXT_BYTES + 1)
        assert read_both(head + b"\x01\x00" + bytes(wide), 2)[0] is WireFormatError

    def test_declared_count_is_checked_before_the_payload_is_cut(self):
        huge = bytearray()
        write_varint(huge, MAX_VECTOR_COMPONENTS)
        data = b"\x05plain" + bytes(huge) + b"\x00\x01\x01" + bytes(huge) + b"\x00" * 64
        kind, text = read_both(data, MAX_CIPHERTEXT_BYTES)
        assert kind is WireFormatError and text.startswith("truncated vector")

    def test_a_block_is_read_in_place(self):
        """The reader starts where the previous field ended and stops at the
        block's last byte."""
        data = b"\x03" + block() + b"\x7f"
        for block_reader in (WireReader.read_vector_block, oracle_read_vector_block):
            reader = WireReader(data)
            assert reader.read_varint() == 3
            assert block_reader(reader, 2) == ("plain", 2, False, 1, (7, 9))
            assert reader.read_varint() == 0x7F
            assert reader.remaining == 0


class TestInputTypes:
    @pytest.mark.parametrize("convert", [bytes, bytearray, memoryview],
                             ids=["bytes", "bytearray", "memoryview"])
    def test_block_and_frame(self, convert):
        assert read_both(convert(block()), 2) == (
            "value", (("plain", 2, False, 1, (7, 9)), 0))
        frame = FRAMES["diptych"]
        assert deserialize(convert(bytes(frame))) == deserialize(frame)
        mutated = bytearray(frame)
        mutated[9] ^= 0x10
        with pytest.raises(WireFormatError):
            deserialize(convert(mutated))

    @pytest.mark.parametrize("frame", [None, "CW", 7, [67, 87], np.zeros(8, np.uint8)],
                             ids=["None", "str", "int", "list", "ndarray"])
    def test_anything_else_is_refused(self, frame):
        with pytest.raises(WireFormatError, match="wire frames are bytes"):
            deserialize(frame)

    @pytest.mark.parametrize("frame", [
        bytearray(MAX_FRAME_BYTES + 14),
        memoryview(bytearray(MAX_FRAME_BYTES + 14)),
        memoryview(bytearray(MAX_FRAME_BYTES + 16)).cast("Q"),  # 8 bytes an item
    ], ids=["bytearray", "memoryview", "memoryview-of-words"])
    def test_over_limit_frame_is_refused_before_it_is_copied(self, frame, monkeypatch):
        """``WireReader`` copies a ``bytearray`` or a ``memoryview``; the frame
        limit is checked first, on the byte size."""
        def no_reader(data):
            raise AssertionError("the over-limit frame reached the reader")

        monkeypatch.setattr(messages, "WireReader", no_reader)
        with pytest.raises(WireFormatError, match="exceeds the wire limit"):
            deserialize(frame)


class TestPayloadElementsOnEncode:
    def test_numpy_integers_encode_as_their_values(self):
        payload = (np.int64(7), np.uint8(9), np.int32(258))
        assert write_both("plain", 3, False, 1, payload, 2) \
            == write_both("plain", 3, False, 1, (7, 9, 258), 2)

    @pytest.mark.parametrize("payload, text", [
        ((1, 1 << 16), "ciphertext needs 3 bytes but the declared width is 2"),
        ((1 << 16, -1), "ciphertext needs 3 bytes but the declared width is 2"),
        ((1, -1, 1 << 16), "ciphertexts are non-negative, got -1"),
        ((np.int64(-5),), "ciphertexts are non-negative, got -5"),
        ((np.int64(1 << 40), 1), "ciphertext needs 6 bytes but the declared width is 2"),
    ])
    def test_the_first_unfit_element_is_named(self, payload, text):
        assert write_both("plain", len(payload), False, 1, payload, 2) \
            == (WireFormatError, text)
        vector = EncryptedVector(payload=payload, backend_name="plain")
        with pytest.raises(WireFormatError, match=text):
            write_encrypted_vector(bytearray(), vector, 2)
        with pytest.raises(WireFormatError, match=text):
            DecryptRequest(estimates=(EncryptedEstimate(vector=vector),),
                           ciphertext_bytes=2).serialize()


# ---------------------------------------------------------------------------
# differential: Hypothesis and the targeted-mutation corpus
# ---------------------------------------------------------------------------

WIDTHS = (1, 2, 8, 64, 130)

names = st.one_of(
    st.sampled_from(("plain", "damgard_jurik", "paillier", "")),
    st.text(max_size=40),
)
weights = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1 << 1000, max_value=1 << 1100),
)


@st.composite
def block_arguments(draw):
    width = draw(st.sampled_from(WIDTHS))
    packed = draw(st.booleans())
    count = draw(st.one_of(st.integers(0, 4), st.integers(120, 140)))
    length = count if draw(st.integers(0, 9)) else draw(st.integers(0, 300))
    if packed and draw(st.booleans()):
        length = count + draw(st.integers(0, 20000))
    top = 1 << (8 * width)
    element = st.integers(0, top - 1) if draw(st.integers(0, 9)) \
        else st.integers(-2, top + 2)
    payload = tuple(draw(st.lists(element, min_size=count, max_size=count)))
    return draw(names), length, packed, draw(weights), payload, width


@st.composite
def damaged_blocks(draw):
    """An encoded block, cut, overwritten or extended somewhere."""
    arguments = draw(block_arguments())
    out = bytearray()
    try:
        oracle_write_vector_block(out, *arguments)
    except WireFormatError:
        out = bytearray(block())
    data = bytearray(out)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        kind = draw(st.sampled_from(("cut", "set", "insert")))
        if kind == "cut":
            del data[at:]
        elif kind == "set" and data:
            data[at] = draw(st.integers(0, 255))
        else:
            data[at:at] = draw(st.binary(max_size=3))
    return bytes(data), draw(st.sampled_from((arguments[5],) + WIDTHS))


class TestAgainstTheOracle:
    @given(block_arguments())
    @settings(max_examples=400, deadline=None)
    def test_writers_agree_and_the_readers_read_it_back(self, arguments):
        kind, data = write_both(*arguments)
        if kind == "value":
            name, length, packed, weight, payload, width = arguments
            count = len(payload)
            read = read_both(data[1:], width)
            # The writer does not check the layout; the readers do.
            if count == length or (packed and 0 < count < length):
                assert read == ("value", ((name, length, packed, weight, payload), 0))
            else:
                assert read[0] is WireFormatError

    @given(block_arguments())
    @settings(max_examples=200, deadline=None)
    def test_the_size_twin_agrees_with_the_writer(self, arguments):
        """``_vector_block_size`` is the writer's length, or its error."""
        kind, data = write_both(*arguments)
        size = outcome(wire._vector_block_size, *arguments)
        assert size == (("value", len(data) - 1) if kind == "value" else (kind, data))

    @given(damaged_blocks())
    @settings(max_examples=600, deadline=None)
    def test_readers_agree_on_damaged_blocks(self, case):
        read_both(*case)

    @given(st.binary(max_size=48), st.sampled_from(WIDTHS))
    @settings(max_examples=400, deadline=None)
    def test_readers_agree_on_arbitrary_bytes(self, data, width):
        read_both(data, width)

    @pytest.mark.parametrize("case", ALL_MUTATIONS, ids=_mutation_id)
    def test_decoders_agree_on_the_targeted_mutation_corpus(self, case, monkeypatch):
        _, mutation = case
        new = outcome(deserialize, mutation.frame)
        monkeypatch.setattr(WireReader, "read_vector_block", oracle_read_vector_block)
        assert new == outcome(deserialize, mutation.frame)
        assert new[0] is WireFormatError

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_decoders_agree_on_the_corpus_originals(self, name, monkeypatch):
        new = outcome(deserialize, FRAMES[name])
        monkeypatch.setattr(WireReader, "read_vector_block", oracle_read_vector_block)
        assert new == outcome(deserialize, FRAMES[name])
        assert new[0] == "value" and new[1].serialize() == FRAMES[name]

    def test_read_encrypted_vector_is_the_block_reader(self):
        vector = read_encrypted_vector(WireReader(block(packed=1)), 2)
        assert vector == EncryptedVector(payload=(7, 9), backend_name="plain",
                                         length=2, packed=True, weight=1)
        assert vector.packed is True  # a bool as before, not the flag byte
        assert read_encrypted_vector(WireReader(block()), 2).packed is False
