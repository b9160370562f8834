"""Versioned, framed wire messages for every protocol exchange.

Every message Chiaroscuro puts on the network — diptych exchanges,
committee decryption rounds, membership announcements and key
announcements — has a framed binary representation here, built on the
canonical primitives of :mod:`repro.crypto.wire`, plus the
:class:`BatchEnvelope` that carries several of them in one socket record.
Those seven are the only types :data:`MESSAGE_TYPES` registers; the type
bytes wire version 1 gave to frames no run sent (0x01, 0x02, 0x07–0x09) are
refused as unknown.

Frame layout (all integers big-endian)::

    offset  size  field
    0       2     magic  b"CW"  (Chiaroscuro Wire)
    2       1     version (WIRE_VERSION)
    3       1     message type
    4       var   body length  (canonical varint)
    ...     len   body         (message-specific, see each dataclass)
    end     4     CRC32 (IEEE 802.3) of every preceding byte

The trailing CRC makes *corruption* detectable deterministically: flipping
any bit of a frame changes the checksum, so the decoder raises
:class:`~repro.exceptions.WireFormatError` instead of silently decoding a
damaged ciphertext (which would otherwise be indistinguishable from a valid
one — any byte string is *some* bigint).  Truncation, over-length, unknown
versions or types, trailing bytes and inconsistent slot/weight metadata are
likewise rejected with :class:`WireFormatError` and never anything else.

``deserialize(serialize(message)) == message`` holds bit-exactly for every
message type: bigints and fixed-width ciphertexts round-trip exactly, and
the encoders are canonical (one byte representation per value), so frames
are deterministic functions of the message alone — identical across cipher
backends, platforms and runs.

The ``Frame`` invariant: ``serialize()`` runs every encoder check and
returns a :class:`Frame` whose ``.message`` is the frozen message it
encodes and whose ``len()`` is the exact length of its bytes, computed
without writing them (ciphertexts are fixed-width, so a frame's length is a
sum of varint sizes and widths).  The bytes are written once, on the first
``bytes(frame)`` — a socket record, a batch, a corruption that fires — and
that never raises.  :func:`deserialize` returns the carried message for an
intact ``Frame`` instead of decoding it — exact by the round-trip property
above.  Only a ``Frame`` object itself takes this path; every byte string
that arrived from elsewhere (a socket payload, a batch's inner frame,
``bytes(frame)``, a slice, the fault model's corrupted copy) is plain
``bytes`` and meets the full decoder and its checksum.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import ClassVar, Sequence

from ..crypto.wire import (
    FRAME_FIXED_OVERHEAD_BYTES,
    MAX_CIPHERTEXT_BYTES,
    MAX_FRAME_BYTES,
    MAX_SHARE_INDEX,
    WIRE_VERSION,
    WireReader,
    encrypted_vector_size,
    partial_decryption_size,
    read_encrypted_vector,
    read_partial_decryption,
    varint_size,
    write_bigint,
    write_bool,
    write_encrypted_vector,
    write_partial_decryption,
    write_varint,
)
from ..exceptions import WireFormatError
from .encrypted_sum import EncryptedEstimate

#: Frame magic: "CW" for Chiaroscuro Wire.
FRAME_MAGIC = b"CW"

_MAX_ESTIMATES = 1 << 12
_MAX_ITERATION = (1 << 32) - 1
_MAX_HALVINGS = 1 << 20
_MAX_KEY_DEGREE = 64
#: Most frames one ``BatchEnvelope`` may carry; senders split longer logs.
MAX_BATCH_FRAMES = 1 << 10


def _check_field(value: int, limit: int, field: str) -> int:
    """Write-side twin of the decoder's field limits.

    Encoders enforce exactly the bounds the decoder enforces, so
    ``serialize()`` can never emit a frame that a conformant
    ``deserialize()`` must reject.
    """
    if not 0 <= value <= limit:
        raise WireFormatError(f"{field} {value} outside [0, {limit}]")
    return value


def _write_estimate(out: bytearray, estimate: EncryptedEstimate, width: int) -> None:
    write_varint(out, _check_field(estimate.halvings, _MAX_HALVINGS, "halvings"))
    write_encrypted_vector(out, estimate.vector, width)


def _estimate_size(estimate: EncryptedEstimate, width: int) -> int:
    return (varint_size(_check_field(estimate.halvings, _MAX_HALVINGS, "halvings"))
            + encrypted_vector_size(estimate.vector, width))


def _read_estimate(reader: WireReader, width: int) -> EncryptedEstimate:
    halvings = reader.read_varint(limit=_MAX_HALVINGS)
    vector = read_encrypted_vector(reader, width)
    return EncryptedEstimate(vector=vector, halvings=halvings)


def _check_width(width: int) -> int:
    if not 1 <= width <= MAX_CIPHERTEXT_BYTES:
        raise WireFormatError(
            f"ciphertext width {width} outside [1, {MAX_CIPHERTEXT_BYTES}]"
        )
    return width


def _write_width(out: bytearray, width: int) -> None:
    write_varint(out, _check_width(width))


def _read_width(reader: WireReader) -> int:
    width = reader.read_varint(limit=MAX_CIPHERTEXT_BYTES)
    if width < 1:
        raise WireFormatError("ciphertext width must be >= 1")
    return width


class WireMessage:
    """Base class of every framed message (provides the frame envelope)."""

    #: One-byte message type; unique across the registry below.
    TYPE: ClassVar[int] = 0x00

    def _write_body(self, out: bytearray) -> None:
        raise NotImplementedError

    def _body_size(self) -> int | None:
        """The exact length :meth:`_write_body` writes, raising what it raises.

        ``None`` (the default) means the type has no size arithmetic:
        :meth:`serialize` then encodes the body at once and the frame holds
        its bytes from the start.
        """
        return None

    @classmethod
    def _read_body(cls, reader: WireReader) -> "WireMessage":
        raise NotImplementedError

    def serialize(self) -> "Frame":
        """Check this message and size its frame; the bytes come on demand.

        Every encoder check runs here, so this raises exactly where an eager
        encoding would and the frame's bytes can always be written later.
        """
        body_size = self._body_size()
        body = None
        if body_size is None:
            body = bytearray()
            self._write_body(body)
            body_size = len(body)
        if body_size > MAX_FRAME_BYTES:
            raise WireFormatError(
                f"message body of {body_size} bytes exceeds the frame limit"
            )
        length = FRAME_FIXED_OVERHEAD_BYTES + varint_size(body_size) + body_size
        return Frame(self, length, None if body is None else self._encode(body))

    def _encode(self, body: bytearray | None = None) -> bytes:
        """The frame's bytes around *body* (written here when not given)."""
        if body is None:
            body = bytearray()
            self._write_body(body)
        header = bytearray(FRAME_MAGIC)
        header.append(WIRE_VERSION)
        header.append(self.TYPE)
        write_varint(header, len(body))
        checksum = zlib.crc32(body, zlib.crc32(header))
        return b"".join((header, body, checksum.to_bytes(4, "big")))


class Frame:
    """A serialized message: its exact length now, its bytes when read.

    ``len(frame)`` is known without encoding.  ``bytes(frame)`` (and
    indexing, slicing, ``hex()``, hashing or comparing with a byte string,
    which go through it) writes the bytes once and caches them; every check
    already ran in ``serialize()``, so this never raises.  Messages are
    frozen and ``deserialize(m.serialize()) == m``, so :func:`deserialize`
    hands back ``.message`` instead of decoding.  Every derived byte string —
    ``bytes(frame)``, a slice, a corrupted copy, a socket payload, a
    batch's inner frame — is plain ``bytes`` and is decoded in full.
    """

    __slots__ = ("message", "_length", "_bytes")

    def __init__(self, message: "WireMessage", length: int,
                 data: bytes | None = None) -> None:
        self.message = message
        self._length = length
        self._bytes = data

    def __len__(self) -> int:
        return self._length

    def __bytes__(self) -> bytes:
        if self._bytes is None:
            self._bytes = self.message._encode()
        return self._bytes

    def __getitem__(self, index: int | slice) -> int | bytes:
        return bytes(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Frame):
            other = bytes(other)
        elif not isinstance(other, (bytes, bytearray, memoryview)):
            return NotImplemented
        return bytes(self) == other

    def __hash__(self) -> int:
        return hash(bytes(self))

    def __repr__(self) -> str:
        return f"<Frame of {type(self.message).__name__}, {self._length} bytes>"


@dataclass(frozen=True)
class _DiptychEnvelope(WireMessage):
    """Shared body codec of the diptych exchange/reply pair."""

    iteration: int
    data_estimates: tuple[EncryptedEstimate, ...]
    noise_estimates: tuple[EncryptedEstimate, ...]
    ciphertext_bytes: int

    def _check_counts(self) -> None:
        if len(self.data_estimates) != len(self.noise_estimates):
            raise WireFormatError(
                "a diptych message carries one noise estimate per data estimate"
            )
        if len(self.data_estimates) > _MAX_ESTIMATES:
            raise WireFormatError("too many estimates for one diptych frame")

    def _write_body(self, out: bytearray) -> None:
        self._check_counts()
        _write_width(out, self.ciphertext_bytes)
        write_varint(out, _check_field(self.iteration, _MAX_ITERATION, "iteration"))
        write_varint(out, len(self.data_estimates))
        for estimate in self.data_estimates:
            _write_estimate(out, estimate, self.ciphertext_bytes)
        for estimate in self.noise_estimates:
            _write_estimate(out, estimate, self.ciphertext_bytes)

    def _body_size(self) -> int:
        self._check_counts()
        width = _check_width(self.ciphertext_bytes)
        size = (varint_size(width)
                + varint_size(_check_field(self.iteration, _MAX_ITERATION, "iteration"))
                + varint_size(len(self.data_estimates)))
        for estimate in self.data_estimates:
            size += _estimate_size(estimate, width)
        for estimate in self.noise_estimates:
            size += _estimate_size(estimate, width)
        return size

    @classmethod
    def _read_body(cls, reader: WireReader) -> "_DiptychEnvelope":
        width = _read_width(reader)
        iteration = reader.read_varint(limit=_MAX_ITERATION)
        count = reader.read_varint(limit=_MAX_ESTIMATES)
        data = tuple(_read_estimate(reader, width) for _ in range(count))
        noise = tuple(_read_estimate(reader, width) for _ in range(count))
        return cls(iteration=iteration, data_estimates=data,
                   noise_estimates=noise, ciphertext_bytes=width)


class DiptychExchange(_DiptychEnvelope):
    """A participant's full encrypted diptych, pushed to a gossip peer."""

    TYPE: ClassVar[int] = 0x03


class DiptychReply(_DiptychEnvelope):
    """The pulled diptych a peer returns during one gossip exchange."""

    TYPE: ClassVar[int] = 0x04


@dataclass(frozen=True)
class DecryptRequest(WireMessage):
    """Ciphertexts sent to one committee member for partial decryption."""

    estimates: tuple[EncryptedEstimate, ...]
    ciphertext_bytes: int
    TYPE: ClassVar[int] = 0x05

    def _check_count(self) -> None:
        if len(self.estimates) > _MAX_ESTIMATES:
            raise WireFormatError("too many estimates for one decryption frame")

    def _write_body(self, out: bytearray) -> None:
        self._check_count()
        _write_width(out, self.ciphertext_bytes)
        write_varint(out, len(self.estimates))
        for estimate in self.estimates:
            _write_estimate(out, estimate, self.ciphertext_bytes)

    def _body_size(self) -> int:
        self._check_count()
        width = _check_width(self.ciphertext_bytes)
        return varint_size(width) + varint_size(len(self.estimates)) + sum(
            _estimate_size(estimate, width) for estimate in self.estimates
        )

    @classmethod
    def _read_body(cls, reader: WireReader) -> "DecryptRequest":
        width = _read_width(reader)
        count = reader.read_varint(limit=_MAX_ESTIMATES)
        estimates = tuple(_read_estimate(reader, width) for _ in range(count))
        return cls(estimates=estimates, ciphertext_bytes=width)


@dataclass(frozen=True)
class DecryptResponse(WireMessage):
    """One committee member's partial decryptions of a request's estimates."""

    partials: tuple  # of PartialVectorDecryption
    ciphertext_bytes: int
    TYPE: ClassVar[int] = 0x06

    def _check_count(self) -> None:
        if len(self.partials) > _MAX_ESTIMATES:
            raise WireFormatError("too many partials for one decryption frame")

    def _write_body(self, out: bytearray) -> None:
        self._check_count()
        _write_width(out, self.ciphertext_bytes)
        write_varint(out, len(self.partials))
        for partial in self.partials:
            write_partial_decryption(out, partial, self.ciphertext_bytes)

    def _body_size(self) -> int:
        self._check_count()
        width = _check_width(self.ciphertext_bytes)
        return varint_size(width) + varint_size(len(self.partials)) + sum(
            partial_decryption_size(partial, width) for partial in self.partials
        )

    @classmethod
    def _read_body(cls, reader: WireReader) -> "DecryptResponse":
        width = _read_width(reader)
        count = reader.read_varint(limit=_MAX_ESTIMATES)
        partials = tuple(read_partial_decryption(reader, width) for _ in range(count))
        return cls(partials=partials, ciphertext_bytes=width)


@dataclass(frozen=True)
class MembershipAnnouncement(WireMessage):
    """A node announcing that it came online or went offline.

    The cycle-driven simulation applies churn directly (no messages), but a
    real deployment gossips join/leave events.  The live runner's bootstrap
    sends one per node (:class:`~repro.net.bootstrap.MembershipDirectory`
    is fed with them), and the corruption/loss scenarios exercise
    membership traffic through the same conformance-tested wire format.
    """

    node_id: int
    online: bool
    cycle: int
    TYPE: ClassVar[int] = 0x0A

    def _write_body(self, out: bytearray) -> None:
        write_varint(out, _check_field(self.node_id, _MAX_ITERATION, "node_id"))
        write_bool(out, self.online)
        write_varint(out, _check_field(self.cycle, _MAX_ITERATION, "cycle"))

    @classmethod
    def _read_body(cls, reader: WireReader) -> "MembershipAnnouncement":
        node_id = reader.read_varint(limit=_MAX_ITERATION)
        online = reader.read_bool()
        cycle = reader.read_varint(limit=_MAX_ITERATION)
        return cls(node_id=node_id, online=online, cycle=cycle)


@dataclass(frozen=True)
class KeyAnnouncement(WireMessage):
    """The threshold public key broadcast at protocol bootstrap.

    Carries everything a joining participant needs to encrypt: the public
    modulus *n*, the Damgård–Jurik degree *s*, and the committee parameters.
    """

    modulus: int
    degree: int
    threshold: int
    n_shares: int
    TYPE: ClassVar[int] = 0x0B

    def _write_body(self, out: bytearray) -> None:
        if self.modulus < 6:
            raise WireFormatError(f"implausible public modulus {self.modulus}")
        if self.degree < 1 or self.threshold < 1 or self.n_shares < self.threshold:
            raise WireFormatError(
                "inconsistent key announcement (degree/threshold/shares)"
            )
        write_bigint(out, self.modulus)
        write_varint(out, _check_field(self.degree, _MAX_KEY_DEGREE, "degree"))
        write_varint(out, _check_field(self.threshold, MAX_SHARE_INDEX, "threshold"))
        write_varint(out, _check_field(self.n_shares, MAX_SHARE_INDEX, "n_shares"))

    @classmethod
    def _read_body(cls, reader: WireReader) -> "KeyAnnouncement":
        modulus = reader.read_bigint()
        degree = reader.read_varint(limit=_MAX_KEY_DEGREE)
        threshold = reader.read_varint(limit=MAX_SHARE_INDEX)
        n_shares = reader.read_varint(limit=MAX_SHARE_INDEX)
        if modulus < 6:
            raise WireFormatError(f"implausible public modulus {modulus}")
        if degree < 1 or threshold < 1 or n_shares < threshold:
            raise WireFormatError(
                "inconsistent key announcement (degree/threshold/shares)"
            )
        return cls(modulus=modulus, degree=degree, threshold=threshold,
                   n_shares=n_shares)


@dataclass(frozen=True)
class BatchEnvelope(WireMessage):
    """Several complete frames packed into one outer frame.

    The live runner's committee decryption sends one identical request to
    every helper a remote worker hosts; batching lets all of those travel
    in a single socket record instead of one record per helper.  The body
    is a flags byte (always 0x00; the decoder refuses any other value), the
    frame count, then each inner frame length-prefixed.  Inner frames are
    the ordinary serialized bytes of any registered message type — including,
    recursively, nothing: a ``BatchEnvelope`` must not contain another
    ``BatchEnvelope``, and the decoder rejects nesting.
    """

    frames: tuple[bytes, ...]
    TYPE: ClassVar[int] = 0x0C

    def __post_init__(self) -> None:
        # The body holds the inner frames' bytes, so hold bytes, not Frames.
        object.__setattr__(self, "frames", tuple(
            bytes(frame) if isinstance(frame, Frame) else frame
            for frame in self.frames
        ))

    def _write_body(self, out: bytearray) -> None:
        if len(self.frames) > MAX_BATCH_FRAMES:
            raise WireFormatError(
                f"batch of {len(self.frames)} frames exceeds {MAX_BATCH_FRAMES}"
            )
        out.append(0x00)
        write_varint(out, len(self.frames))
        for frame in self.frames:
            if len(frame) > MAX_FRAME_BYTES:
                raise WireFormatError("inner frame exceeds the frame limit")
            if len(frame) >= 4 and frame[3] == self.TYPE:
                raise WireFormatError("a batch must not contain another batch")
            write_varint(out, len(frame))
            out.extend(frame)

    @classmethod
    def _read_body(cls, reader: WireReader) -> "BatchEnvelope":
        flags = reader.read_bytes(1)[0]
        if flags != 0x00:
            raise WireFormatError(f"unknown batch flags 0x{flags:02x}")
        section = WireReader(reader.read_bytes(reader.remaining - 4))
        count = section.read_varint(limit=MAX_BATCH_FRAMES)
        frames = []
        for _ in range(count):
            length = section.read_varint(limit=MAX_FRAME_BYTES)
            frame = section.read_bytes(length)
            if len(frame) >= 4 and frame[3] == cls.TYPE:
                raise WireFormatError("a batch must not contain another batch")
            frames.append(frame)
        if section.remaining:
            raise WireFormatError(
                f"{section.remaining} trailing bytes after the batched frames"
            )
        return cls(frames=tuple(frames))

    def messages(self) -> tuple["WireMessage", ...]:
        """Decode every inner frame through the ordinary entry point."""
        return tuple(deserialize(frame) for frame in self.frames)


def batch_frames(frames: Sequence[bytes]) -> bytes:
    """Pack already-serialized frames into one ``BatchEnvelope`` frame."""
    return BatchEnvelope(frames=tuple(frames)).serialize()


#: Registry of every frame type, keyed by the type byte.
MESSAGE_TYPES: dict[int, type[WireMessage]] = {
    cls.TYPE: cls
    for cls in (
        DiptychExchange, DiptychReply,
        DecryptRequest, DecryptResponse,
        MembershipAnnouncement, KeyAnnouncement,
        BatchEnvelope,
    )
}


def deserialize(frame: bytes) -> WireMessage:
    """Decode one framed message; raise :class:`WireFormatError` otherwise.

    This is the single entry point transport code uses on received bytes;
    it performs every structural check (magic, version, type, declared
    length, CRC32, full-body consumption) before handing the body to the
    message-specific decoder.  An intact in-process :class:`Frame` is the
    one input it does not decode (nor write): it returns the message the
    frame was serialized from.
    """
    if type(frame) is Frame:
        return frame.message
    if isinstance(frame, memoryview):
        size = frame.nbytes
    elif isinstance(frame, (bytes, bytearray)):
        size = len(frame)
    else:
        raise WireFormatError(f"wire frames are bytes, got {type(frame).__name__}")
    if size > MAX_FRAME_BYTES + FRAME_FIXED_OVERHEAD_BYTES + 5:
        raise WireFormatError(f"frame of {size} bytes exceeds the wire limit")
    frame = bytes(frame)
    reader = WireReader(frame)
    if reader.read_bytes(2) != FRAME_MAGIC:
        raise WireFormatError("bad frame magic")
    version = reader.read_bytes(1)[0]
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )
    type_byte = reader.read_bytes(1)[0]
    message_cls = MESSAGE_TYPES.get(type_byte)
    if message_cls is None:
        raise WireFormatError(f"unknown message type 0x{type_byte:02x}")
    body_length = reader.read_varint(limit=MAX_FRAME_BYTES)
    if body_length + 4 != reader.remaining:
        raise WireFormatError(
            f"declared body of {body_length} bytes does not match the frame "
            f"({reader.remaining - 4} bytes before the checksum)"
        )
    checksum = int.from_bytes(frame[-4:], "big")
    if zlib.crc32(memoryview(frame)[:-4]) != checksum:
        raise WireFormatError("frame checksum mismatch (corrupted frame)")
    message = message_cls._read_body(reader)
    if reader.remaining != 4:
        raise WireFormatError(
            f"{reader.remaining - 4} trailing bytes after the message body"
        )
    return message
