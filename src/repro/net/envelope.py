"""Socket records: the envelope the live runner puts around wire frames.

A TCP stream has no message boundaries, so every record the multi-process
runner exchanges — protocol frames, control commands, bootstrap metadata —
travels inside a length-prefixed envelope::

    offset  size  field
    0       4     record length L (big-endian, excluding these 4 bytes)
    4       1     kind: 0x01 control, 0x02 frame
    5       8     correlation id (big-endian; pairs a reply with its request)
    13      1     flags (bit 0: reply; bit 1: payload is a BatchEnvelope)
    14      4     header length H (big-endian)
    18      H     header: canonical JSON object (UTF-8)
    18+H    ...   payload: for ``frame`` records, one serialized wire frame
                  (see :mod:`repro.gossip.messages`); empty or opaque bytes
                  for ``control`` records

The envelope is deliberately *not* part of the protocol wire format: the
frames it carries are the exact bytes the cycle simulation transports, and
only those frame bytes are charged to the protocol's traffic accounting.
Envelope and control bytes are runner overhead, reported separately by the
live runner's socket statistics.

Python's ``json`` round-trips finite floats exactly (``repr``-based
encoding), which the live runner relies on when centroids or profiles
travel in control headers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..crypto.wire import MAX_FRAME_BYTES
from ..exceptions import ReproError

#: Record kinds.
KIND_CONTROL = 0x01
KIND_FRAME = 0x02

_KINDS = (KIND_CONTROL, KIND_FRAME)

#: Flag bits.
FLAG_REPLY = 0x01
#: The payload is a :class:`~repro.gossip.messages.BatchEnvelope` frame
#: packing several protocol frames.  Decoders ignore unknown flag bits, so
#: this bit is backward compatible: a record without it is byte-identical
#: to what the unbatched runner has always produced.
FLAG_BATCH = 0x02

#: Upper bound on one record: any frame the protocol wire format accepts
#: must fit, plus generous room for the envelope fields and JSON header —
#: a maximum-size frame must never be transportable in cycle mode but not
#: over a socket.
MAX_RECORD_BYTES = MAX_FRAME_BYTES + (1 << 20)

#: Default high-water mark (bytes) on a record connection's transport write
#: buffer: a writer racing ahead of a slow reader parks in ``drain()`` once
#: this much is queued, instead of buffering records without bound.  64 KiB
#: holds a handful of typical diptych frames — deep enough to pipeline,
#: shallow enough that backpressure engages before memory does.
DEFAULT_WRITE_BUFFER_LIMIT = 1 << 16

_PREFIX_BYTES = 4
_FIXED_BYTES = 1 + 8 + 1 + 4  # kind + correlation id + flags + header length


class EnvelopeError(ReproError):
    """A malformed socket record (bad kind, length, or header encoding)."""


@dataclass(frozen=True)
class Envelope:
    """One socket record: kind, correlation id, JSON header, byte payload."""

    kind: int
    correlation_id: int = 0
    header: dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""
    is_reply: bool = False
    is_batch: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise EnvelopeError(f"unknown record kind 0x{self.kind:02x}")
        if not 0 <= self.correlation_id < 1 << 64:
            raise EnvelopeError(f"correlation id {self.correlation_id} outside 64 bits")
        # A record is where a serialized Frame's bytes get written.
        if not isinstance(self.payload, bytes):
            object.__setattr__(self, "payload", bytes(self.payload))


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialize an envelope, length prefix included."""
    header_bytes = json.dumps(
        envelope.header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    body_length = _FIXED_BYTES + len(header_bytes) + len(envelope.payload)
    if body_length > MAX_RECORD_BYTES:
        raise EnvelopeError(f"record of {body_length} bytes exceeds the record limit")
    out = bytearray()
    out.extend(body_length.to_bytes(_PREFIX_BYTES, "big"))
    out.append(envelope.kind)
    out.extend(envelope.correlation_id.to_bytes(8, "big"))
    flags = (FLAG_REPLY if envelope.is_reply else 0) | (
        FLAG_BATCH if envelope.is_batch else 0
    )
    out.append(flags)
    out.extend(len(header_bytes).to_bytes(4, "big"))
    out.extend(header_bytes)
    out.extend(envelope.payload)
    return bytes(out)


def decode_envelope(body: bytes) -> Envelope:
    """Decode one record *body* (the bytes after the length prefix)."""
    if len(body) < _FIXED_BYTES:
        raise EnvelopeError(f"record body of {len(body)} bytes is too short")
    kind = body[0]
    if kind not in _KINDS:
        raise EnvelopeError(f"unknown record kind 0x{kind:02x}")
    correlation_id = int.from_bytes(body[1:9], "big")
    flags = body[9]
    header_length = int.from_bytes(body[10:14], "big")
    if _FIXED_BYTES + header_length > len(body):
        raise EnvelopeError(
            f"declared header of {header_length} bytes exceeds the record "
            f"({len(body) - _FIXED_BYTES} bytes available)"
        )
    header_bytes = body[_FIXED_BYTES:_FIXED_BYTES + header_length]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EnvelopeError(f"undecodable record header: {exc}") from exc
    if not isinstance(header, dict):
        raise EnvelopeError("record headers must be JSON objects")
    payload = body[_FIXED_BYTES + header_length:]
    return Envelope(
        kind=kind,
        correlation_id=correlation_id,
        header=header,
        payload=payload,
        is_reply=bool(flags & FLAG_REPLY),
        is_batch=bool(flags & FLAG_BATCH),
    )


def read_length_prefix(prefix: bytes) -> int:
    """Validate and decode a 4-byte record length prefix."""
    if len(prefix) != _PREFIX_BYTES:
        raise EnvelopeError(f"length prefix must be {_PREFIX_BYTES} bytes")
    length = int.from_bytes(prefix, "big")
    if not _FIXED_BYTES <= length <= MAX_RECORD_BYTES:
        raise EnvelopeError(f"record length {length} outside the accepted range")
    return length
