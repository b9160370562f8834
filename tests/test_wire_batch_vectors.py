"""Golden wire vectors for the batched frame format (``BatchEnvelope``).

``tests/vectors/wire_batch_v<WIRE_VERSION>.json`` holds serialized
``BatchEnvelope`` frames built from the same deterministic inner messages
the ``wire_v<N>.json`` vectors commit.  As with the base vectors, committed
files are immutable: any byte change to the batched encoding is an
incompatible wire change and needs a new version and a new vector file (CI
rejects edits to existing ``wire_batch_v*.json``).

``wire_batch_v1.json`` stays as a refusal fixture: the decoder refuses its
frames by their version byte, and its zlib-compressed batch (flags 0x01,
which version 2 retired), re-framed under the current version, by its
flags byte.

Write the file of a NEW version (the script refuses to overwrite a file)::

    PYTHONPATH=src python tests/test_wire_batch_vectors.py
"""

from __future__ import annotations

import json
import sys
import zlib
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
from frame_mutations import _split_frame, reframe_body
from test_wire_vectors import VECTORS, golden_messages, write_vector_file

VECTOR_FILE = VECTORS / f"wire_batch_v{WIRE_VERSION}.json"
V1_FILE = VECTORS / "wire_batch_v1.json"


def _inner_frames() -> dict[str, bytes]:
    return {name: message.serialize() for name, message in golden_messages()}


def golden_batches() -> list[tuple[str, BatchEnvelope]]:
    """Deterministic batches: empty, mixed types, and repeated requests."""
    frames = _inner_frames()
    return [
        ("batch_empty", BatchEnvelope(frames=())),
        ("batch_mixed", BatchEnvelope(frames=(
            frames["diptych_reply_dj"],
            frames["membership_announcement"],
            frames["key_announcement"],
        ))),
        # Identical decryption requests to several committee helpers: the
        # live runner's actual batching shape.
        ("batch_decrypt_requests", BatchEnvelope(frames=(
            frames["decrypt_request_packed"],
            frames["decrypt_request_packed"],
            frames["decrypt_request_packed"],
        ))),
    ]


def _load_vectors(path: Path = VECTOR_FILE) -> dict:
    with path.open() as handle:
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
        originals = {bytes(v): k for k, v in by_name.items()}
        for inner, original in zip(decoded.frames, message.frames):
            assert deserialize(inner) == deserialize(original)
            assert bytes(original) in originals

    def test_no_stale_vectors(self):
        committed = {entry["name"] for entry in _load_vectors()["vectors"]}
        assert committed == {name for name, _ in golden_batches()}


class TestBatchEnvelope:
    def test_round_trip_preserves_frames(self):
        frames = tuple(_inner_frames().values())
        decoded = deserialize(batch_frames(frames))
        assert decoded.frames == frames

    def test_rejects_nested_batches(self):
        inner = batch_frames([_inner_frames()["membership_announcement"]])
        with pytest.raises(WireFormatError, match="another batch"):
            batch_frames([inner])

    def test_rejects_unknown_flags(self):
        frame = bytearray(bytes(batch_frames([_inner_frames()["membership_announcement"]])))
        # Body starts after magic(2) + version(1) + type(1) + length varint.
        offset = 4
        while frame[offset] & 0x80:
            offset += 1
        offset += 1
        frame[offset] = 0x02
        frame[-4:] = zlib.crc32(bytes(frame[:-4])).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="batch flags"):
            deserialize(bytes(frame))

    def test_rejects_trailing_bytes_in_section(self):
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


class TestVersionOneBatches:
    """``wire_batch_v1.json`` is a refusal fixture of the current decoder."""

    V1 = _load_vectors(V1_FILE)["vectors"]

    @pytest.mark.parametrize("entry", V1, ids=[entry["name"] for entry in V1])
    def test_refused_by_version(self, entry):
        with pytest.raises(WireFormatError, match="unsupported wire version 1 "):
            deserialize(bytes.fromhex(entry["frame_hex"]))

    def test_a_compressed_batch_is_refused_by_its_flags(self):
        """The v1 zlib batch re-framed under the current version, with a
        valid length and checksum: only its flags byte stops it."""
        (entry,) = [e for e in self.V1 if e["name"] == "batch_decrypt_requests_zlib"]
        frame = bytes.fromhex(entry["frame_hex"])
        body = _split_frame(frame)[1]
        assert body[0] == 0x01
        with pytest.raises(WireFormatError, match="unknown batch flags 0x01"):
            deserialize(reframe_body(frame, body))


if __name__ == "__main__":
    write_vector_file(Path(sys.argv[1]) if len(sys.argv) > 1 else VECTOR_FILE,
                      golden_batches())
