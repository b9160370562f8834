"""Golden wire vectors: byte-for-byte regression of the frame format.

``tests/vectors/wire_v<WIRE_VERSION>.json`` holds the serialized frames of
deterministically-built messages of every frame type, each
ciphertext-bearing type in both the Damgård–Jurik and the packed payload
style.  The tests assert that today's
encoder reproduces every committed frame byte for byte and that every
committed frame still decodes to the original message — any codec change
that breaks either is an incompatible wire change and must come with a
``WIRE_VERSION`` bump and a *new* vector file (committed vector files are
immutable; CI rejects modifications to existing ``wire_v*.json``).

Older vector files stay as refusal fixtures: the decoder refuses each of
their frames by its version byte.  ``wire_v1.json`` also pins five frame
types that version 2 retired (no run sent them); re-framed under the
current version, each is refused as an unknown type.

Write the file of a NEW version (the script refuses to overwrite a file)::

    PYTHONPATH=src python tests/test_wire_vectors.py
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

import pytest

from repro.crypto.backends import EncryptedVector, PartialVectorDecryption
from repro.crypto.wire import WIRE_VERSION, WireReader, write_varint
from repro.exceptions import WireFormatError
from repro.gossip.encrypted_sum import EncryptedEstimate
from repro.gossip.messages import (
    DecryptRequest,
    DecryptResponse,
    DiptychExchange,
    DiptychReply,
    FRAME_MAGIC,
    KeyAnnouncement,
    MembershipAnnouncement,
    MESSAGE_TYPES,
    deserialize,
)
from frame_mutations import _split_frame, reframe_body

VECTORS = Path(__file__).parent / "vectors"
VECTOR_FILE = VECTORS / f"wire_v{WIRE_VERSION}.json"
V1_FILE = VECTORS / "wire_v1.json"

#: Type bytes of the frames wire version 1 defined and version 2 retired:
#: the encrypted-avg request/reply, the cleartext push-pull request/reply and
#: the push-sum transfer.
RETIRED_TYPES = {0x01, 0x02, 0x07, 0x08, 0x09}

# A fixed 384-bit "ciphertext modulus" stand-in for the Damgård–Jurik
# payload style.  The wire format is oblivious to where the integers come
# from (encryption randomness is not reproducible across runs), so the
# golden payloads are deterministic pseudo-ciphertexts below this modulus.
_DJ_MODULUS = (1 << 383) + 1405695061

_DJ_WIDTH = 48  # ceil(384 / 8)
_PACKED_WIDTH = 64  # 512-bit packed plaintexts


def _pseudo_ciphertexts(count: int, modulus: int, salt: int) -> tuple[int, ...]:
    """Deterministic pseudo-ciphertexts: pow(3, salt + i, modulus)."""
    return tuple(pow(3, 1_000_003 * salt + 17 * i + 5, modulus) for i in range(count))


def _dj_vector(count: int, salt: int, weight: int = 1) -> EncryptedVector:
    return EncryptedVector(
        payload=_pseudo_ciphertexts(count, _DJ_MODULUS, salt),
        backend_name="damgard_jurik", length=count, packed=False, weight=weight,
    )


def _packed_vector(length: int, slots: int, salt: int, weight: int) -> EncryptedVector:
    count = -(-length // slots)
    return EncryptedVector(
        payload=_pseudo_ciphertexts(count, 1 << 511, salt),
        backend_name="plain", length=length, packed=True, weight=weight,
    )


def golden_messages() -> list[tuple[str, object]]:
    """Deterministic messages of every frame type; each ciphertext-bearing
    type in both payload styles, the membership announcement both ways."""
    packed_weight = (1 << 66) + 123_456_789  # > 2**64: exercises the bigint path
    return [
        ("diptych_exchange_packed", DiptychExchange(
            iteration=4,
            data_estimates=(
                EncryptedEstimate(_packed_vector(13, 7, salt=3, weight=packed_weight), 5),
                EncryptedEstimate(_packed_vector(13, 7, salt=4, weight=packed_weight), 5),
            ),
            noise_estimates=(
                EncryptedEstimate(_packed_vector(13, 7, salt=5, weight=packed_weight), 5),
                EncryptedEstimate(_packed_vector(13, 7, salt=6, weight=packed_weight), 5),
            ),
            ciphertext_bytes=_PACKED_WIDTH,
        )),
        ("diptych_exchange_dj", DiptychExchange(
            iteration=7,
            data_estimates=(
                EncryptedEstimate(_dj_vector(4, salt=13, weight=3), 6),
                EncryptedEstimate(_dj_vector(4, salt=14, weight=3), 6),
            ),
            noise_estimates=(
                EncryptedEstimate(_dj_vector(4, salt=15, weight=3), 6),
                EncryptedEstimate(_dj_vector(4, salt=16, weight=3), 6),
            ),
            ciphertext_bytes=_DJ_WIDTH,
        )),
        ("diptych_reply_dj", DiptychReply(
            iteration=2,
            data_estimates=(EncryptedEstimate(_dj_vector(3, salt=7, weight=4), 2),),
            noise_estimates=(EncryptedEstimate(_dj_vector(3, salt=8, weight=4), 2),),
            ciphertext_bytes=_DJ_WIDTH,
        )),
        ("diptych_reply_packed", DiptychReply(
            iteration=3,
            data_estimates=(
                EncryptedEstimate(_packed_vector(13, 7, salt=17, weight=packed_weight), 4),
            ),
            noise_estimates=(
                EncryptedEstimate(_packed_vector(13, 7, salt=18, weight=packed_weight), 4),
            ),
            ciphertext_bytes=_PACKED_WIDTH,
        )),
        ("decrypt_request_packed", DecryptRequest(
            estimates=(
                EncryptedEstimate(_packed_vector(9, 7, salt=9, weight=1 << 20), 11),
                EncryptedEstimate(_packed_vector(9, 7, salt=10, weight=1 << 20), 11),
            ),
            ciphertext_bytes=_PACKED_WIDTH,
        )),
        ("decrypt_request_dj", DecryptRequest(
            estimates=(EncryptedEstimate(_dj_vector(3, salt=19, weight=2), 9),),
            ciphertext_bytes=_DJ_WIDTH,
        )),
        ("decrypt_response_dj", DecryptResponse(
            partials=(
                PartialVectorDecryption(
                    share_index=1, payload=_pseudo_ciphertexts(3, _DJ_MODULUS, 11),
                    backend_name="damgard_jurik", length=3, packed=False, weight=2,
                ),
                PartialVectorDecryption(
                    share_index=3, payload=_pseudo_ciphertexts(3, _DJ_MODULUS, 12),
                    backend_name="damgard_jurik", length=3, packed=False, weight=2,
                ),
            ),
            ciphertext_bytes=_DJ_WIDTH,
        )),
        ("decrypt_response_packed", DecryptResponse(
            partials=(
                PartialVectorDecryption(
                    share_index=2, payload=_pseudo_ciphertexts(2, 1 << 511, 20),
                    backend_name="plain", length=9, packed=True, weight=1 << 20,
                ),
            ),
            ciphertext_bytes=_PACKED_WIDTH,
        )),
        ("membership_announcement", MembershipAnnouncement(
            node_id=1337, online=True, cycle=90,
        )),
        ("membership_departure", MembershipAnnouncement(
            node_id=4242, online=False, cycle=91,
        )),
        ("key_announcement", KeyAnnouncement(
            modulus=(1 << 192) + 133_333_333, degree=2, threshold=3, n_shares=8,
        )),
    ]


def _load_vectors(path: Path = VECTOR_FILE) -> dict:
    with path.open() as handle:
        return json.load(handle)


class TestGoldenVectors:
    def test_vector_file_matches_wire_version(self):
        vectors = _load_vectors()
        assert vectors["version"] == WIRE_VERSION

    def test_every_message_type_is_covered(self):
        vectors = _load_vectors()
        covered = {entry["type"] for entry in vectors["vectors"]}
        # BatchEnvelope's golden vectors live in their own file,
        # tests/vectors/wire_batch_v<N>.json (see test_wire_batch_vectors.py).
        expected = {cls.__name__ for cls in MESSAGE_TYPES.values()}
        expected -= {"BatchEnvelope"}
        assert covered == expected

    @pytest.mark.parametrize("name,message", golden_messages(),
                             ids=[name for name, _ in golden_messages()])
    def test_serialization_is_byte_stable(self, name, message):
        vectors = {entry["name"]: entry for entry in _load_vectors()["vectors"]}
        assert name in vectors, f"no committed vector for {name}; regenerate"
        entry = vectors[name]
        frame = message.serialize()
        assert bytes(frame).hex() == entry["frame_hex"], (
            f"frame bytes of {name} changed: this is an incompatible wire "
            "change — bump WIRE_VERSION and commit a new vector file"
        )
        assert entry["type"] == type(message).__name__

    @pytest.mark.parametrize("name,message", golden_messages(),
                             ids=[name for name, _ in golden_messages()])
    def test_committed_frames_decode_unchanged(self, name, message):
        vectors = {entry["name"]: entry for entry in _load_vectors()["vectors"]}
        frame = bytes.fromhex(vectors[name]["frame_hex"])
        assert frame[:2] == FRAME_MAGIC
        assert frame[2] == WIRE_VERSION
        assert deserialize(frame) == message

    def test_no_stale_vectors(self):
        vectors = _load_vectors()
        built = {name for name, _ in golden_messages()}
        committed = {entry["name"] for entry in vectors["vectors"]}
        assert committed == built


def _with_extra_body_byte(frame: bytes) -> bytes:
    """*frame* with one zero byte appended to its body; the declared length
    and the checksum are rewritten so that only the body reader can object."""
    reader = WireReader(frame)
    header = reader.read_bytes(4)
    body_length = reader.read_varint()
    body_start = len(frame) - reader.remaining
    rebuilt = bytearray(header)
    write_varint(rebuilt, body_length + 1)
    rebuilt += frame[body_start:-4] + b"\x00"
    return bytes(rebuilt) + zlib.crc32(rebuilt).to_bytes(4, "big")


class TestTrailingBodyBytes:
    """Every frame type's body reader consumes its body exactly, and the
    decoder refuses a well-framed body with a byte left over."""

    @pytest.mark.parametrize("name,message", golden_messages(),
                             ids=[name for name, _ in golden_messages()])
    def test_rejected(self, name, message):
        frame = _with_extra_body_byte(bytes(message.serialize()))
        with pytest.raises(WireFormatError, match="1 trailing bytes after the message body"):
            deserialize(frame)

class TestVersionOneFrames:
    """``wire_v1.json`` is a refusal fixture of the current decoder."""

    V1 = _load_vectors(V1_FILE)["vectors"]

    @pytest.mark.parametrize("entry", V1, ids=[entry["name"] for entry in V1])
    def test_refused_by_version(self, entry):
        with pytest.raises(WireFormatError, match="unsupported wire version 1 "):
            deserialize(bytes.fromhex(entry["frame_hex"]))

    RETIRED = [entry for entry in V1
               if bytes.fromhex(entry["frame_hex"])[3] in RETIRED_TYPES]

    def test_v1_defined_the_retired_and_the_current_types(self):
        v1_types = {bytes.fromhex(entry["frame_hex"])[3] for entry in self.V1}
        current = {type(message).TYPE for _, message in golden_messages()}
        assert v1_types == RETIRED_TYPES | current
        assert not RETIRED_TYPES & MESSAGE_TYPES.keys()

    @pytest.mark.parametrize("entry", RETIRED, ids=[entry["name"] for entry in RETIRED])
    def test_a_retired_type_is_refused_as_unknown(self, entry):
        """The frame re-framed under the current version, with a valid
        length and checksum: only its type byte stops it."""
        frame = bytes.fromhex(entry["frame_hex"])
        reframed = reframe_body(frame, _split_frame(frame)[1])
        assert reframed[2] == WIRE_VERSION
        with pytest.raises(WireFormatError,
                           match=f"unknown message type 0x{frame[3]:02x}"):
            deserialize(reframed)

    SURVIVING = [entry["name"] for entry in V1
                 if bytes.fromhex(entry["frame_hex"])[3] not in RETIRED_TYPES]

    @pytest.mark.parametrize("name", SURVIVING)
    def test_a_surviving_frame_changed_only_its_version_and_checksum(self, name):
        old = bytes.fromhex({e["name"]: e for e in self.V1}[name]["frame_hex"])
        new = bytes(dict(golden_messages())[name].serialize())
        assert (old[2], new[2]) == (1, WIRE_VERSION)
        assert len(old) == len(new)
        assert old[:2] == new[:2] and old[3:-4] == new[3:-4]
        assert old[-4:] != new[-4:]


def write_vector_file(path: Path, named_messages: list[tuple[str, object]]) -> None:
    """Write a new golden vector file; refuse (exit 1) if *path* exists."""
    if path.exists():
        sys.exit(f"refusing to overwrite {path}: committed vector files are "
                 "immutable; a new encoding needs a new WIRE_VERSION")
    entries = [
        {
            "name": name,
            "type": type(message).__name__,
            "frame_hex": bytes(message.serialize()).hex(),
        }
        for name, message in named_messages
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump({"version": WIRE_VERSION, "vectors": entries}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(entries)} vectors to {path}")


def test_the_writer_refuses_to_overwrite_a_vector_file(tmp_path):
    target = tmp_path / "wire_v99.json"
    target.write_text("{}")
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        write_vector_file(target, golden_messages())
    assert target.read_text() == "{}"


if __name__ == "__main__":
    write_vector_file(Path(sys.argv[1]) if len(sys.argv) > 1 else VECTOR_FILE,
                      golden_messages())
