"""Targeted (adversarial, non-random) wire-frame mutations.

The corruption fault model flips one *random* bit per frame and relies on
the CRC to catch it.  An adversary is not random: they aim at specific
fields, and — crucially — they can recompute the trailing CRC after
mutating, so the checksum alone is no defence.  This module builds exactly
those mutations, for the conformance suite to assert that the decoder
rejects every one of them with :class:`~repro.exceptions.WireFormatError`
and nothing else, on both transports:

* **version byte** — bumped or zeroed, CRC fixed up: the structural version
  check must reject it;
* **type byte** — unknown message type, CRC fixed up;
* **length varint** — declared body length off by one in either direction,
  CRC fixed up: the length/actual-body consistency check must reject it;
* **CRC** — one bit of the checksum flipped (the classic integrity case);
* **truncation** — body shortened but *declared length and CRC fixed up*,
  so only full-body consumption checks can catch it;
* **slot metadata** — for ciphertext-bearing frames: the ciphertext-width
  varint zeroed or inflated past the wire limit, and the halvings varint
  inflated past its field limit, all with the envelope re-framed (valid
  length + CRC): only the decoder's field validation stands between a
  forged slot layout and a misdecoded ciphertext;
* **batch section** — for batch frames: the flags byte set to the retired
  compression flag, the frame count off by one in either direction or past
  its limit, the first inner length past the frame limit, and a batch nested
  in a batch, all re-framed (valid length + CRC): only the batch decoder's
  section checks stand between a forged section and misaligned inner frames.

A mutation that *fixes up* the CRC models a man-in-the-middle; one that
does not models line noise.  Both must fail closed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.crypto.wire import MAX_FRAME_BYTES, WIRE_VERSION, WireReader, write_varint
from repro.exceptions import WireFormatError
from repro.gossip.messages import FRAME_MAGIC

#: Frame types whose body starts with a ciphertext-width varint followed by
#: estimate metadata (see :mod:`repro.gossip.messages`).
_ESTIMATE_FRAME_TYPES = frozenset({0x03, 0x04, 0x05, 0x06})

#: Type byte of the batch frame (``BatchEnvelope``).
_BATCH_FRAME_TYPE = 0x0C

#: Limits mirrored from the decoder (kept literal on purpose: the mutations
#: must track what the *wire* rejects, not what the encoder emits).
_WIDTH_LIMIT = 1 << 16
_HALVINGS_LIMIT = 1 << 20
_BATCH_FRAMES_LIMIT = 1024


@dataclass(frozen=True)
class TargetedMutation:
    """One adversarial variant of a frame, aimed at a named field."""

    target: str
    frame: bytes
    crc_fixed: bool


def _split_frame(frame: bytes) -> tuple[bytes, bytes]:
    """Split a well-formed frame into (envelope prefix, body); checksum dropped.

    The prefix is magic + version + type (the body-length varint is
    re-encoded by :func:`reframe_body`).
    """
    frame = bytes(frame)
    reader = WireReader(frame)
    if reader.read_bytes(2) != FRAME_MAGIC:
        raise WireFormatError("not a Chiaroscuro wire frame")
    reader.read_bytes(2)  # version + type
    body_length = reader.read_varint(limit=MAX_FRAME_BYTES)
    body_start = len(frame) - reader.remaining
    if body_length + 4 != reader.remaining:
        raise WireFormatError("refusing to mutate an already-inconsistent frame")
    return frame[:4], frame[body_start:body_start + body_length]


def reframe_body(frame: bytes, body: bytes, *, version: int | None = None,
                 type_byte: int | None = None,
                 declared_length: int | None = None) -> bytes:
    """Rebuild a frame around *body* with a *valid* trailing CRC.

    This is the adversary's toolbox: swap in a forged body (or forged
    envelope fields) and recompute the checksum so that only structural
    validation can reject the result.  *declared_length* overrides the
    body-length varint (defaults to the actual body length).
    """
    prefix, _ = _split_frame(frame)
    out = bytearray(FRAME_MAGIC)
    out.append(WIRE_VERSION if version is None else version)
    out.append(prefix[3] if type_byte is None else type_byte)
    write_varint(out, len(body) if declared_length is None else declared_length)
    out.extend(body)
    out.extend(zlib.crc32(out).to_bytes(4, "big"))
    return bytes(out)


def _mutate_leading_varints(frame: bytes, body: bytes) -> list[TargetedMutation]:
    """Slot-metadata mutations for estimate-bearing frames.

    The body of every estimate frame starts with the ciphertext-width
    varint; the halvings varint follows after the frame-specific prelude.
    Rather than tracking each layout, the mutations rewrite the *first*
    varint (always the width) and append a canonical over-limit varint
    where the decoder expects more metadata — both forged layouts must die
    in field validation, whatever the message type.
    """
    mutations: list[TargetedMutation] = []
    reader = WireReader(body)
    try:
        reader.read_varint(limit=_WIDTH_LIMIT)
    except WireFormatError:
        return mutations
    width_end = len(body) - reader.remaining
    rest = body[width_end:]

    zero_width = bytearray()
    write_varint(zero_width, 0)
    mutations.append(TargetedMutation(
        target="slot-width-zero",
        frame=reframe_body(frame, bytes(zero_width) + rest),
        crc_fixed=True,
    ))
    huge_width = bytearray()
    write_varint(huge_width, _WIDTH_LIMIT + 1)
    mutations.append(TargetedMutation(
        target="slot-width-over-limit",
        frame=reframe_body(frame, bytes(huge_width) + rest),
        crc_fixed=True,
    ))
    # Replace everything after the width with one huge halvings varint: the
    # decoder reads halvings right after the frame prelude, and the field
    # limit must reject it before any ciphertext bytes are interpreted.
    huge_halvings = bytearray(body[:width_end])
    write_varint(huge_halvings, _HALVINGS_LIMIT + 1)
    mutations.append(TargetedMutation(
        target="slot-halvings-over-limit",
        frame=reframe_body(frame, bytes(huge_halvings)),
        crc_fixed=True,
    ))
    return mutations


def _mutate_batch_section(frame: bytes, body: bytes) -> list[TargetedMutation]:
    """Section mutations for batch frames.

    The body is a flags byte, the frame count, then each inner frame
    length-prefixed.  Every mutation keeps the outer envelope valid, so the
    batch decoder's own checks must reject it.
    """
    reader = WireReader(body[1:])
    count = reader.read_varint(limit=_BATCH_FRAMES_LIMIT)
    section = body[len(body) - reader.remaining:]

    def with_count(value: int, rest: bytes = section) -> bytes:
        return reframe_body(frame, body[:1] + _varint(value) + rest)

    mutations = [
        TargetedMutation(
            target="batch-flags-compressed",
            frame=reframe_body(frame, b"\x01" + body[1:]),
            crc_fixed=True,
        ),
        TargetedMutation(
            target="batch-count-over",
            frame=with_count(count + 1),
            crc_fixed=True,
        ),
        TargetedMutation(
            target="batch-count-over-limit",
            frame=with_count(_BATCH_FRAMES_LIMIT + 1),
            crc_fixed=True,
        ),
        # The original batch as the only frame of a new one.
        TargetedMutation(
            target="batch-nested",
            frame=with_count(1, _varint(len(frame)) + frame),
            crc_fixed=True,
        ),
    ]
    if count:
        inner = WireReader(section)
        inner.read_varint(limit=MAX_FRAME_BYTES)
        first_frame_onwards = section[len(section) - inner.remaining:]
        mutations.append(TargetedMutation(
            target="batch-count-under",
            frame=with_count(count - 1),
            crc_fixed=True,
        ))
        mutations.append(TargetedMutation(
            target="batch-inner-length-over-limit",
            frame=with_count(count, _varint(MAX_FRAME_BYTES + 1)
                             + first_frame_onwards),
            crc_fixed=True,
        ))
    return mutations


def _varint(value: int) -> bytes:
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


def targeted_mutations(frame: bytes) -> list[TargetedMutation]:
    """Every field-aimed mutation of one well-formed frame.

    Each returned frame must be rejected by
    :func:`repro.gossip.messages.deserialize` with
    :class:`~repro.exceptions.WireFormatError` — never decoded, never any
    other exception.
    """
    frame = bytes(frame)
    _, body = _split_frame(frame)
    mutations = [
        TargetedMutation(
            target="magic",
            frame=b"XX" + frame[2:],
            crc_fixed=False,
        ),
        TargetedMutation(
            target="version-bumped",
            frame=reframe_body(frame, body, version=WIRE_VERSION + 1),
            crc_fixed=True,
        ),
        TargetedMutation(
            target="version-zero",
            frame=reframe_body(frame, body, version=0),
            crc_fixed=True,
        ),
        TargetedMutation(
            target="type-unknown",
            frame=reframe_body(frame, body, type_byte=0xEE),
            crc_fixed=True,
        ),
        TargetedMutation(
            target="length-over",
            frame=reframe_body(frame, body, declared_length=len(body) + 1),
            crc_fixed=True,
        ),
        TargetedMutation(
            target="crc-bit-flip",
            frame=frame[:-1] + bytes([frame[-1] ^ 0x01]),
            crc_fixed=False,
        ),
        TargetedMutation(
            target="truncated-reframed",
            frame=reframe_body(frame, body[:-1]) if body else
            reframe_body(frame, body, declared_length=1),
            crc_fixed=True,
        ),
    ]
    if body:
        mutations.append(TargetedMutation(
            target="length-under",
            frame=reframe_body(frame, body, declared_length=len(body) - 1),
            crc_fixed=True,
        ))
    if frame[3] in _ESTIMATE_FRAME_TYPES:
        mutations.extend(_mutate_leading_varints(frame, body))
    if frame[3] == _BATCH_FRAME_TYPE:
        mutations.extend(_mutate_batch_section(frame, body))
    return mutations
