"""Golden wire vectors for the batched frame format (``BatchEnvelope``).

``tests/vectors/wire_batch_v1.json`` holds serialized ``BatchEnvelope``
frames — plain and zlib-compressed — built from the same deterministic
inner messages the ``wire_v1.json`` vectors commit.  As with the base
vectors, committed files are immutable: any byte change to the batched
encoding is an incompatible wire change and needs a new version and a new
vector file (CI rejects edits to existing ``wire_batch_v*.json``).

Regenerate (only ever for a NEW version)::

    PYTHONPATH=src python tests/test_wire_batch_vectors.py vectors/wire_batch_v<N>.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.crypto.wire import WIRE_VERSION
from repro.exceptions import WireFormatError
from repro.gossip.messages import (
    BatchEnvelope,
    FRAME_MAGIC,
    batch_frames,
    deserialize,
)

from test_wire_vectors import golden_messages

VECTOR_FILE = Path(__file__).parent / "vectors" / f"wire_batch_v{WIRE_VERSION}.json"


def _inner_frames() -> dict[str, bytes]:
    return {name: message.serialize() for name, message in golden_messages()}


def golden_batches() -> list[tuple[str, BatchEnvelope]]:
    """Deterministic batches: empty, mixed plain, and compressed repeats."""
    frames = _inner_frames()
    return [
        ("batch_empty", BatchEnvelope(frames=())),
        ("batch_mixed_plain", BatchEnvelope(frames=(
            frames["gossip_avg_request"],
            frames["push_sum"],
            frames["membership_announcement"],
        ))),
        # Identical decryption requests to several committee helpers: the
        # live runner's actual batching shape, and the case where zlib
        # pays off the most.
        ("batch_decrypt_requests_zlib", BatchEnvelope(frames=(
            frames["decrypt_request_packed"],
            frames["decrypt_request_packed"],
            frames["decrypt_request_packed"],
        ), compress=True)),
    ]


def _load_vectors() -> dict:
    with VECTOR_FILE.open() as handle:
        return json.load(handle)


class TestGoldenBatchVectors:
    def test_vector_file_matches_wire_version(self):
        assert _load_vectors()["version"] == WIRE_VERSION

    @pytest.mark.parametrize("name,message", golden_batches(),
                             ids=[name for name, _ in golden_batches()])
    def test_serialization_is_byte_stable(self, name, message):
        vectors = {entry["name"]: entry for entry in _load_vectors()["vectors"]}
        assert name in vectors, f"no committed vector for {name}; regenerate"
        frame = message.serialize()
        assert bytes(frame).hex() == vectors[name]["frame_hex"], (
            f"frame bytes of {name} changed: this is an incompatible wire "
            "change — bump WIRE_VERSION and commit a new vector file"
        )

    @pytest.mark.parametrize("name,message", golden_batches(),
                             ids=[name for name, _ in golden_batches()])
    def test_committed_frames_decode_unchanged(self, name, message):
        vectors = {entry["name"]: entry for entry in _load_vectors()["vectors"]}
        frame = bytes.fromhex(vectors[name]["frame_hex"])
        assert frame[:2] == FRAME_MAGIC
        assert frame[2] == WIRE_VERSION
        decoded = deserialize(frame)
        assert decoded == message
        # Inner frames must still decode to the exact original messages.
        by_name = _inner_frames()
        originals = {v: k for k, v in by_name.items()}
        for inner, original in zip(decoded.messages(), message.frames):
            assert inner == deserialize(original)
            assert original in originals

    def test_no_stale_vectors(self):
        committed = {entry["name"] for entry in _load_vectors()["vectors"]}
        assert committed == {name for name, _ in golden_batches()}


class TestBatchEnvelope:
    def test_round_trip_preserves_frames(self):
        frames = tuple(_inner_frames().values())
        decoded = deserialize(batch_frames(frames))
        assert decoded.frames == frames

    def test_compression_only_when_smaller(self):
        # Three identical large frames compress well: flag bit must be set
        # and the batched frame must be smaller than the plain batch.
        frame = _inner_frames()["decrypt_request_packed"]
        plain = batch_frames([frame] * 3, compress=False)
        packed = batch_frames([frame] * 3, compress=True)
        assert len(packed) < len(plain)
        assert deserialize(packed).frames == (frame,) * 3
        # A single tiny frame does not compress: the encoder falls back to
        # the plain section, byte-identical to compress=False.
        tiny = _inner_frames()["membership_announcement"]
        assert batch_frames([tiny], compress=True) == batch_frames([tiny])

    def test_compress_flag_not_part_of_identity(self):
        tiny = _inner_frames()["membership_announcement"]
        assert BatchEnvelope(frames=(tiny,), compress=True) == BatchEnvelope(
            frames=(tiny,), compress=False
        )

    def test_rejects_nested_batches(self):
        inner = batch_frames([_inner_frames()["push_sum"]])
        with pytest.raises(WireFormatError, match="another batch"):
            batch_frames([inner])

    def test_rejects_unknown_flags(self):
        frame = bytearray(batch_frames([_inner_frames()["push_sum"]]))
        # Body starts after magic(2) + version(1) + type(1) + length varint.
        offset = 4
        while frame[offset] & 0x80:
            offset += 1
        offset += 1
        frame[offset] = 0x02
        import zlib

        frame[-4:] = zlib.crc32(bytes(frame[:-4])).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="batch flags"):
            deserialize(bytes(frame))

    def test_rejects_trailing_bytes_in_section(self):
        import zlib

        body = bytearray(b"\x00")
        body.extend(b"\x00")  # zero frames
        body.extend(b"\xff")  # trailing garbage in the section
        frame = bytearray(FRAME_MAGIC)
        frame.append(WIRE_VERSION)
        frame.append(BatchEnvelope.TYPE)
        frame.append(len(body))
        frame.extend(body)
        frame.extend(zlib.crc32(bytes(frame)).to_bytes(4, "big"))
        with pytest.raises(WireFormatError, match="trailing"):
            deserialize(bytes(frame))

    def test_rejects_too_many_frames(self):
        tiny = _inner_frames()["membership_announcement"]
        with pytest.raises(WireFormatError, match="exceeds"):
            batch_frames([tiny] * 1025)

    def test_rejects_corrupt_zlib_stream(self):
        import zlib

        body = bytearray(b"\x01")  # compressed flag with garbage payload
        body.extend(b"not a zlib stream")
        frame = bytearray(FRAME_MAGIC)
        frame.append(WIRE_VERSION)
        frame.append(BatchEnvelope.TYPE)
        frame.append(len(body))
        frame.extend(body)
        frame.extend(zlib.crc32(bytes(frame)).to_bytes(4, "big"))
        with pytest.raises(WireFormatError, match="zlib"):
            deserialize(bytes(frame))


def _regenerate(path: Path) -> None:
    entries = [
        {
            "name": name,
            "type": type(message).__name__,
            "frame_hex": bytes(message.serialize()).hex(),
        }
        for name, message in golden_batches()
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump({"version": WIRE_VERSION, "vectors": entries}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(entries)} vectors to {path}")


if __name__ == "__main__":
    import sys

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else VECTOR_FILE
    _regenerate(target)
