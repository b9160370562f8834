"""Canonical binary wire encoding of the cryptographic payloads.

The simulation historically shipped Python object references between nodes
and *estimated* message sizes with a formula; this module gives every
cryptographic value an actual, versioned byte representation so that the
transport layer can move real frames and the cost analysis can report
*measured* bytes (see :mod:`repro.gossip.messages` for the framed message
types built on top of these primitives).

Design rules, chosen so that encodings are deterministic, bit-exact across
backends and safe to decode from untrusted bytes:

* **Varints** (unsigned LEB128) encode small non-negative integers — lengths,
  counts, indices, exponents.  Encodings are *canonical*: a redundant
  trailing zero continuation byte is rejected, so every integer has exactly
  one byte representation.
* **Bigints** (varint byte-length + minimal big-endian magnitude) encode
  unbounded non-negative integers — homomorphic weights, public moduli.
  The magnitude must not have a leading zero byte (canonical again).
* **Ciphertexts** are encoded *fixed-width*: every ciphertext of a vector
  occupies exactly ``ciphertext_bytes`` big-endian bytes, the width of the
  backend's ciphertext space.  This is what a real deployment sends (elements
  of Z_{n^{s+1}} have a fixed size; a value-dependent width would leak
  information and defeat byte-accurate cost accounting).
* **Floats** are IEEE-754 big-endian doubles, so cleartext gossip payloads
  round-trip bit-exactly.
* Every decoding error raises :class:`~repro.exceptions.WireFormatError`
  and nothing else; decoders validate declared sizes *before* allocating,
  so hostile length fields cannot balloon memory.

:data:`WIRE_VERSION` stamps every frame.  Changing any encoding rule in an
incompatible way requires bumping it (and committing a new golden vector
file ``tests/vectors/wire_v<N>.json`` — existing vector files are immutable,
which CI enforces).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from ..exceptions import WireFormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .backends import CipherBackend, EncryptedVector, PartialVectorDecryption

#: Version byte stamped on every frame (and the suffix of the golden vector
#: file name).  Bump on any incompatible encoding change.
WIRE_VERSION = 1

#: Fixed frame-envelope bytes outside the body: magic (2) + version (1) +
#: type (1) + CRC32 (4).  The body-length varint adds 1-4 more depending on
#: the body size.  (The framing itself lives in
#: :mod:`repro.gossip.messages`; the constant sits here, in the leaf
#: module, so the cost model can import it without the gossip package.)
FRAME_FIXED_OVERHEAD_BYTES = 8

#: Hard decoder limits.  Anything declaring more raises
#: :class:`WireFormatError` before any allocation happens.
MAX_FRAME_BYTES = 1 << 26  # 64 MiB per frame
MAX_VECTOR_COMPONENTS = 1 << 20  # logical coordinates per vector
MAX_CIPHERTEXT_BYTES = 1 << 16  # bytes per ciphertext (32k-bit moduli)
MAX_NAME_BYTES = 64  # backend-name strings
MAX_VARINT_BYTES = 10  # varints hold values < 2**64

_VARINT_LIMIT = 1 << 64


def wire_ciphertext_bytes(backend: "CipherBackend") -> int:
    """Fixed on-wire width of one of *backend*'s ciphertexts, in bytes."""
    return (backend.ciphertext_bits + 7) // 8


# ---------------------------------------------------------------------------
# primitive writers (appending to a bytearray)
# ---------------------------------------------------------------------------

def varint_size(value: int) -> int:
    """Number of bytes :func:`write_varint` will use for *value*."""
    if not 0 <= value < _VARINT_LIMIT:
        raise WireFormatError(f"varint out of range: {value}")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def write_varint(out: bytearray, value: int) -> None:
    """Append the canonical unsigned-LEB128 encoding of *value*."""
    if not 0 <= value < _VARINT_LIMIT:
        raise WireFormatError(f"varint out of range: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def write_bigint(out: bytearray, value: int,
                 max_bytes: int = MAX_CIPHERTEXT_BYTES) -> None:
    """Append a length-prefixed minimal big-endian non-negative integer.

    *max_bytes* mirrors the decoder's :meth:`WireReader.read_bigint` cap, so
    a serializable integer is always decodable.
    """
    value = int(value)
    if value < 0:
        raise WireFormatError(f"bigints are non-negative, got {value}")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    if len(raw) > max_bytes:
        raise WireFormatError(
            f"bigint of {len(raw)} bytes exceeds the wire limit {max_bytes}"
        )
    write_varint(out, len(raw))
    out.extend(raw)


def write_string(out: bytearray, text: str) -> None:
    """Append a length-prefixed UTF-8 string (short identifiers only)."""
    raw = text.encode("utf-8")
    if len(raw) > MAX_NAME_BYTES:
        raise WireFormatError(f"string too long for the wire: {len(raw)} bytes")
    write_varint(out, len(raw))
    out.extend(raw)


def write_bool(out: bytearray, value: bool) -> None:
    """Append a strict one-byte boolean (0x00 or 0x01)."""
    out.append(0x01 if value else 0x00)


def write_float(out: bytearray, value: float) -> None:
    """Append an IEEE-754 big-endian double (bit-exact round-trip)."""
    out.extend(struct.pack(">d", value))


def write_ciphertext(out: bytearray, value: int, width: int) -> None:
    """Append one ciphertext as exactly *width* big-endian bytes."""
    value = int(value)
    if value < 0:
        raise WireFormatError(f"ciphertexts are non-negative, got {value}")
    try:
        out.extend(value.to_bytes(width, "big"))
    except OverflowError as exc:
        raise WireFormatError(
            f"ciphertext needs {(value.bit_length() + 7) // 8} bytes but the "
            f"declared width is {width}"
        ) from exc


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

class WireReader:
    """Sequential decoder over one byte buffer.

    Every accessor validates bounds and canonicality and raises
    :class:`WireFormatError` on any malformed input; the caller finishes
    with :meth:`expect_end` so trailing garbage is rejected too.
    """

    def __init__(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise WireFormatError(
                f"wire frames are bytes, got {type(data).__name__}"
            )
        self._data = bytes(data)
        self._offset = 0

    @property
    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return len(self._data) - self._offset

    def read_bytes(self, count: int) -> bytes:
        """Consume exactly *count* raw bytes."""
        if count < 0 or count > self.remaining:
            raise WireFormatError(
                f"truncated frame: need {count} bytes, have {self.remaining}"
            )
        start = self._offset
        self._offset += count
        return self._data[start:self._offset]

    def read_varint(self, limit: int = _VARINT_LIMIT - 1) -> int:
        """Consume a canonical varint and check it against *limit*."""
        value = 0
        shift = 0
        for position in range(MAX_VARINT_BYTES):
            byte = self.read_bytes(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if position > 0 and byte == 0:
                    raise WireFormatError("non-canonical varint (redundant byte)")
                if value >= _VARINT_LIMIT:
                    raise WireFormatError(f"varint out of range: {value}")
                if value > limit:
                    raise WireFormatError(
                        f"varint {value} exceeds the field limit {limit}"
                    )
                return value
            shift += 7
        raise WireFormatError("varint longer than 10 bytes")

    def read_bigint(self, max_bytes: int = MAX_CIPHERTEXT_BYTES) -> int:
        """Consume a canonical length-prefixed big-endian integer."""
        length = self.read_varint(limit=max_bytes)
        raw = self.read_bytes(length)
        if length and raw[0] == 0:
            raise WireFormatError("non-canonical bigint (leading zero byte)")
        return int.from_bytes(raw, "big")

    def read_string(self) -> str:
        """Consume a length-prefixed UTF-8 string."""
        length = self.read_varint(limit=MAX_NAME_BYTES)
        raw = self.read_bytes(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid UTF-8 in wire string") from exc

    def read_bool(self) -> bool:
        """Consume a strict one-byte boolean."""
        byte = self.read_bytes(1)[0]
        if byte not in (0, 1):
            raise WireFormatError(f"invalid boolean byte 0x{byte:02x}")
        return byte == 1

    def read_float(self) -> float:
        """Consume an IEEE-754 big-endian double."""
        return struct.unpack(">d", self.read_bytes(8))[0]

    def read_ciphertext(self, width: int) -> int:
        """Consume one fixed-width big-endian ciphertext."""
        return int.from_bytes(self.read_bytes(width), "big")

    def expect_end(self) -> None:
        """Raise unless the buffer was consumed exactly."""
        if self.remaining:
            raise WireFormatError(f"{self.remaining} trailing bytes after the payload")


# ---------------------------------------------------------------------------
# cryptographic payload blocks
# ---------------------------------------------------------------------------

def _write_vector_block(
    out: bytearray,
    backend_name: str,
    length: int,
    packed: bool,
    weight: int,
    payload: tuple[int, ...],
    ciphertext_bytes: int,
) -> None:
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
        write_ciphertext(out, ciphertext, ciphertext_bytes)


def _read_vector_block(
    reader: WireReader, ciphertext_bytes: int
) -> tuple[str, int, bool, int, tuple[int, ...]]:
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
        # A packed vector never carries more ciphertexts than coordinates —
        # a frame claiming otherwise has overflowing slot metadata.
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


def write_encrypted_vector(
    out: bytearray, vector: "EncryptedVector", ciphertext_bytes: int
) -> None:
    """Append the wire block of an :class:`~repro.crypto.backends.EncryptedVector`."""
    _write_vector_block(
        out, vector.backend_name, len(vector), vector.packed, vector.weight,
        vector.payload, ciphertext_bytes,
    )


def read_encrypted_vector(reader: WireReader, ciphertext_bytes: int) -> "EncryptedVector":
    """Decode one encrypted-vector block."""
    from .backends import EncryptedVector

    backend_name, length, packed, weight, payload = _read_vector_block(
        reader, ciphertext_bytes
    )
    return EncryptedVector(
        payload=payload, backend_name=backend_name, length=length,
        packed=packed, weight=weight,
    )


#: Largest share index the wire accepts (decoder limit; enforced on write
#: too so every serializable message deserializes).
MAX_SHARE_INDEX = 1 << 20


def write_partial_decryption(
    out: bytearray, partial: "PartialVectorDecryption", ciphertext_bytes: int
) -> None:
    """Append the wire block of a partial vector decryption."""
    if not 1 <= partial.share_index <= MAX_SHARE_INDEX:
        raise WireFormatError(
            f"share index {partial.share_index} outside [1, {MAX_SHARE_INDEX}]"
        )
    write_varint(out, partial.share_index)
    _write_vector_block(
        out, partial.backend_name, len(partial), partial.packed, partial.weight,
        partial.payload, ciphertext_bytes,
    )


def read_partial_decryption(
    reader: WireReader, ciphertext_bytes: int
) -> "PartialVectorDecryption":
    """Decode one partial-vector-decryption block."""
    from .backends import PartialVectorDecryption

    share_index = reader.read_varint(limit=MAX_SHARE_INDEX)
    if share_index < 1:
        raise WireFormatError("share indices are 1-based")
    backend_name, length, packed, weight, payload = _read_vector_block(
        reader, ciphertext_bytes
    )
    return PartialVectorDecryption(
        share_index=share_index, payload=payload, backend_name=backend_name,
        length=length, packed=packed, weight=weight,
    )
