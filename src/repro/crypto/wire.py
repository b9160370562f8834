"""Canonical binary wire encoding of the cryptographic payloads.

Every message of every engine travels as a byte frame (cycle mode through
:class:`~repro.net.transport.LoopbackTransport`, live mode over sockets);
this module gives each cryptographic value in those frames its versioned
byte representation, so that ``bytes_sent`` is a measured figure and the
modelled size a computed one beside it (see :mod:`repro.gossip.messages`
for the framed message types built on top of these primitives).

A frame is mostly vector blocks — a backend name, the logical length, the
packed flag, the homomorphic weight, a count and that many fixed-width
ciphertexts — so the block codec is the hot path of a run that is not
dominated by modular exponentiation: :meth:`WireReader.read_vector_block`
and :func:`_write_vector_block` handle one block in one pass instead of one
primitive call per field.

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
* Every decoding error raises :class:`~repro.exceptions.WireFormatError`
  and nothing else; decoders validate declared sizes *before* allocating,
  so hostile length fields cannot balloon memory.

:data:`WIRE_VERSION` stamps every frame.  Changing any encoding rule in an
incompatible way requires bumping it (and committing a new golden vector
file ``tests/vectors/wire_v<N>.json`` — existing vector files are immutable,
which CI enforces).
"""

from __future__ import annotations

from ..exceptions import WireFormatError
from .backends import CipherBackend, EncryptedVector, PartialVectorDecryption
from .damgard_jurik import DamgardJurikPublicKey

#: Version byte stamped on every frame (and the suffix of the golden vector
#: file name).  Bump on any incompatible encoding change.
WIRE_VERSION = 2

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


def wire_ciphertext_bytes(holder: CipherBackend | DamgardJurikPublicKey) -> int:
    """Fixed on-wire width of one ciphertext of *holder* (a backend or a
    Damgård–Jurik public key), in bytes: ``ciphertext_bits`` rounded up.

    The one width definition: the frame codec writes it, and the modelled
    byte count and the cost model charge it.
    """
    return (holder.ciphertext_bits + 7) // 8


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
    if 0 <= value < 0x80:
        out.append(value)
        return
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


def _unfit_ciphertext(value: int, width: int) -> WireFormatError:
    """Why ``value.to_bytes(width)`` refused *value*."""
    if value < 0:
        return WireFormatError(f"ciphertexts are non-negative, got {value}")
    return WireFormatError(
        f"ciphertext needs {(value.bit_length() + 7) // 8} bytes but the "
        f"declared width is {width}"
    )


def write_ciphertext(out: bytearray, value: int, width: int) -> None:
    """Append one ciphertext as exactly *width* big-endian bytes."""
    value = int(value)
    try:
        out.extend(value.to_bytes(width, "big"))
    except OverflowError as exc:
        raise _unfit_ciphertext(value, width) from exc


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

def _truncated(need: int, have: int) -> WireFormatError:
    return WireFormatError(f"truncated frame: need {need} bytes, have {have}")


class WireReader:
    """Sequential decoder over one byte buffer.

    Every accessor validates bounds and canonicality and raises
    :class:`WireFormatError` on any malformed input; the caller checks
    :attr:`remaining` at the end so trailing garbage is rejected too.
    """

    __slots__ = ("_data", "_offset", "_end")

    def __init__(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise WireFormatError(
                f"wire frames are bytes, got {type(data).__name__}"
            )
        self._data = bytes(data)
        self._offset = 0
        self._end = len(self._data)

    @property
    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return self._end - self._offset

    def read_bytes(self, count: int) -> bytes:
        """Consume exactly *count* raw bytes."""
        start = self._offset
        if count < 0 or count > self._end - start:
            raise _truncated(count, self._end - start)
        self._offset = start + count
        return self._data[start:start + count]

    def read_varint(self, limit: int = _VARINT_LIMIT - 1) -> int:
        """Consume a canonical varint and check it against *limit*."""
        data = self._data
        end = self._end
        offset = self._offset
        value = 0
        shift = 0
        for position in range(MAX_VARINT_BYTES):
            if offset >= end:
                raise _truncated(1, 0)
            byte = data[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                if position > 0 and byte == 0:
                    raise WireFormatError("non-canonical varint (redundant byte)")
                if value >= _VARINT_LIMIT:
                    raise WireFormatError(f"varint out of range: {value}")
                if value > limit:
                    raise WireFormatError(
                        f"varint {value} exceeds the field limit {limit}"
                    )
                self._offset = offset
                return value
            shift += 7
        raise WireFormatError("varint longer than 10 bytes")

    def _varint_at(self, offset: int, limit: int) -> tuple[int, int]:
        """The varint at *offset* and the offset after it.

        The slow half of :meth:`read_vector_block`, which reads one-byte
        varints itself and comes here for anything else: longer ones, a
        value over its limit, the end of the buffer.
        """
        self._offset = offset
        return self.read_varint(limit), self._offset

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

    def read_ciphertext(self, width: int) -> int:
        """Consume one fixed-width big-endian ciphertext."""
        return int.from_bytes(self.read_bytes(width), "big")

    def read_vector_block(
        self, ciphertext_bytes: int
    ) -> tuple[str, int, bool, int, tuple[int, ...]]:
        """Consume one vector block: name, length, packed flag, weight, payload.

        This runs once per estimate of every frame, so it walks the header
        with a local offset (a one-byte varint is the byte itself; anything
        else goes through :meth:`_varint_at`) and cuts the payload with one
        bounds check and one slice per ciphertext.  It accepts and rejects
        exactly what ``read_string``, ``read_varint``, ``read_bool``,
        ``read_bigint``, ``read_varint`` and *count* ``read_ciphertext``
        calls would.
        """
        data = self._data
        end = self._end
        offset = self._offset

        name_length = data[offset] if offset < end else 0x80
        offset += 1
        if name_length >= 0x80 or name_length > MAX_NAME_BYTES:
            name_length, offset = self._varint_at(offset - 1, MAX_NAME_BYTES)
        raw = data[offset:offset + name_length]
        if len(raw) < name_length:
            raise _truncated(name_length, end - offset)
        offset += name_length
        try:
            backend_name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid UTF-8 in wire string") from exc

        length = data[offset] if offset < end else 0x80
        offset += 1
        if length >= 0x80:
            length, offset = self._varint_at(offset - 1, MAX_VECTOR_COMPONENTS)

        if offset >= end:
            raise _truncated(1, 0)
        packed = data[offset]
        offset += 1
        if packed > 1:
            raise WireFormatError(f"invalid boolean byte 0x{packed:02x}")

        weight_length = data[offset] if offset < end else 0x80
        offset += 1
        if weight_length >= 0x80:
            weight_length, offset = self._varint_at(offset - 1, MAX_CIPHERTEXT_BYTES)
        raw = data[offset:offset + weight_length]
        if len(raw) < weight_length:
            raise _truncated(weight_length, end - offset)
        offset += weight_length
        if weight_length and raw[0] == 0:
            raise WireFormatError("non-canonical bigint (leading zero byte)")
        weight = int.from_bytes(raw, "big")
        if weight < 1:
            raise WireFormatError("homomorphic weight must be >= 1")

        count = data[offset] if offset < end else 0x80
        offset += 1
        if count >= 0x80:
            count, offset = self._varint_at(offset - 1, MAX_VECTOR_COMPONENTS)
        stop = offset + count * ciphertext_bytes
        if stop > end:
            raise WireFormatError(
                f"truncated vector: {count} ciphertexts of {ciphertext_bytes} bytes "
                f"declared, {end - offset} bytes available"
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
        from_bytes = int.from_bytes
        payload = tuple([
            from_bytes(data[start:start + ciphertext_bytes], "big")
            for start in range(offset, stop, ciphertext_bytes)
        ])
        self._offset = stop
        return backend_name, length, packed == 1, weight, payload


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
    try:
        out += b"".join([
            int(ciphertext).to_bytes(ciphertext_bytes, "big") for ciphertext in payload
        ])
    except OverflowError as exc:
        limit = 1 << (8 * ciphertext_bytes)
        raise next(
            _unfit_ciphertext(value, ciphertext_bytes)
            for value in map(int, payload) if not 0 <= value < limit
        ) from exc


def _vector_block_size(
    backend_name: str,
    length: int,
    packed: bool,
    weight: int,
    payload: tuple[int, ...],
    ciphertext_bytes: int,
) -> int:
    """The byte length :func:`_write_vector_block` would write, no bytes built.

    It raises what the writer raises, in the writer's order and with its
    text.  The ciphertexts are range-checked with one ``min`` and one
    ``max``; only a payload that fails it (or cannot be ordered) is walked
    element by element, so the first unfit ciphertext is the one named.
    """
    if not 0 < ciphertext_bytes <= MAX_CIPHERTEXT_BYTES:
        raise WireFormatError(
            f"ciphertext width {ciphertext_bytes} outside (0, {MAX_CIPHERTEXT_BYTES}]"
        )
    if length > MAX_VECTOR_COMPONENTS:
        raise WireFormatError(f"vector length {length} exceeds the wire limit")
    if weight < 1:
        raise WireFormatError("homomorphic weight must be >= 1")
    name_bytes = len(backend_name.encode("utf-8"))
    if name_bytes > MAX_NAME_BYTES:
        raise WireFormatError(f"string too long for the wire: {name_bytes} bytes")
    weight_bytes = (int(weight).bit_length() + 7) // 8
    if weight_bytes > MAX_CIPHERTEXT_BYTES:
        raise WireFormatError(
            f"bigint of {weight_bytes} bytes exceeds the wire limit "
            f"{MAX_CIPHERTEXT_BYTES}"
        )
    count = len(payload)
    if count:
        limit = 1 << (8 * ciphertext_bytes)
        try:
            fits = 0 <= min(payload) and max(payload) < limit
        except TypeError:
            fits = False
        if not fits:
            for value in map(int, payload):
                if not 0 <= value < limit:
                    raise _unfit_ciphertext(value, ciphertext_bytes)
    # Every field is in range by now, so its varint takes (bits + 6) // 7
    # bytes, one for zero (varint_size without the call: this runs once per
    # estimate); a name of at most MAX_NAME_BYTES has a one-byte length.
    return (1 + name_bytes + ((length.bit_length() + 6) // 7 or 1) + 1
            + ((weight_bytes.bit_length() + 6) // 7 or 1) + weight_bytes
            + ((count.bit_length() + 6) // 7 or 1) + count * ciphertext_bytes)


def write_encrypted_vector(
    out: bytearray, vector: EncryptedVector, ciphertext_bytes: int
) -> None:
    """Append the wire block of an :class:`~repro.crypto.backends.EncryptedVector`."""
    _write_vector_block(
        out, vector.backend_name, len(vector), vector.packed, vector.weight,
        vector.payload, ciphertext_bytes,
    )


def encrypted_vector_size(vector: EncryptedVector, ciphertext_bytes: int) -> int:
    """Bytes :func:`write_encrypted_vector` appends; raises what it raises."""
    return _vector_block_size(
        vector.backend_name, len(vector), vector.packed, vector.weight,
        vector.payload, ciphertext_bytes,
    )


def read_encrypted_vector(reader: WireReader, ciphertext_bytes: int) -> EncryptedVector:
    """Decode one encrypted-vector block."""
    backend_name, length, packed, weight, payload = reader.read_vector_block(
        ciphertext_bytes
    )
    return EncryptedVector(
        payload=payload, backend_name=backend_name, length=length,
        packed=packed, weight=weight,
    )


#: Largest share index the wire accepts (decoder limit; enforced on write
#: too so every serializable message deserializes).
MAX_SHARE_INDEX = 1 << 20


def _check_share_index(share_index: int) -> None:
    if not 1 <= share_index <= MAX_SHARE_INDEX:
        raise WireFormatError(
            f"share index {share_index} outside [1, {MAX_SHARE_INDEX}]"
        )


def write_partial_decryption(
    out: bytearray, partial: PartialVectorDecryption, ciphertext_bytes: int
) -> None:
    """Append the wire block of a partial vector decryption."""
    _check_share_index(partial.share_index)
    write_varint(out, partial.share_index)
    _write_vector_block(
        out, partial.backend_name, len(partial), partial.packed, partial.weight,
        partial.payload, ciphertext_bytes,
    )


def partial_decryption_size(
    partial: PartialVectorDecryption, ciphertext_bytes: int
) -> int:
    """Bytes :func:`write_partial_decryption` appends; raises what it raises."""
    _check_share_index(partial.share_index)
    return varint_size(partial.share_index) + _vector_block_size(
        partial.backend_name, len(partial), partial.packed, partial.weight,
        partial.payload, ciphertext_bytes,
    )


def read_partial_decryption(
    reader: WireReader, ciphertext_bytes: int
) -> PartialVectorDecryption:
    """Decode one partial-vector-decryption block."""
    share_index = reader.read_varint(limit=MAX_SHARE_INDEX)
    if share_index < 1:
        raise WireFormatError("share indices are 1-based")
    backend_name, length, packed, weight, payload = reader.read_vector_block(
        ciphertext_bytes
    )
    return PartialVectorDecryption(
        share_index=share_index, payload=payload, backend_name=backend_name,
        length=length, packed=packed, weight=weight,
    )
