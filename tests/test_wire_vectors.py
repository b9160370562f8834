"""Golden wire vectors: byte-for-byte regression of the frame format.

``tests/vectors/wire_v1.json`` holds the serialized frame of one
deterministically-built message per frame type, covering the plain,
Damgård–Jurik and packed payload styles.  The tests assert that today's
encoder reproduces every committed frame byte for byte and that every
committed frame still decodes to the original message — any codec change
that breaks either is an incompatible wire change and must come with a
``WIRE_VERSION`` bump and a *new* vector file (committed vector files are
immutable; CI rejects modifications to existing ``wire_v*.json``).

Regenerate (only ever for a NEW version)::

    PYTHONPATH=src python tests/test_wire_vectors.py vectors/wire_v<N>.json
"""

from __future__ import annotations

import json
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
    EncryptedAvgReply,
    EncryptedAvgRequest,
    FRAME_MAGIC,
    GossipAvgReply,
    GossipAvgRequest,
    KeyAnnouncement,
    MembershipAnnouncement,
    MESSAGE_TYPES,
    PushSumMessage,
    deserialize,
)

VECTOR_FILE = Path(__file__).parent / "vectors" / f"wire_v{WIRE_VERSION}.json"

# A fixed 384-bit "ciphertext modulus" stand-in for the Damgård–Jurik
# payload style.  The wire format is oblivious to where the integers come
# from (encryption randomness is not reproducible across runs), so the
# golden payloads are deterministic pseudo-ciphertexts below this modulus.
_DJ_MODULUS = (1 << 383) + 1405695061

_DJ_WIDTH = 48  # ceil(384 / 8)
_PLAIN_WIDTH = 8  # 64-bit simulated plaintext space
_PACKED_WIDTH = 64  # 512-bit packed plaintexts


def _pseudo_ciphertexts(count: int, modulus: int, salt: int) -> tuple[int, ...]:
    """Deterministic pseudo-ciphertexts: pow(3, salt + i, modulus)."""
    return tuple(pow(3, 1_000_003 * salt + 17 * i + 5, modulus) for i in range(count))


def _plain_vector(count: int, salt: int) -> EncryptedVector:
    return EncryptedVector(
        payload=_pseudo_ciphertexts(count, 1 << 62, salt),
        backend_name="plain", length=count, packed=False, weight=1,
    )


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
    """One deterministic message per frame type (three payload styles)."""
    packed_weight = (1 << 66) + 123_456_789  # > 2**64: exercises the bigint path
    return [
        ("encrypted_avg_request_plain", EncryptedAvgRequest(
            estimate=EncryptedEstimate(vector=_plain_vector(5, salt=1), halvings=0),
            ciphertext_bytes=_PLAIN_WIDTH,
        )),
        ("encrypted_avg_reply_dj", EncryptedAvgReply(
            estimate=EncryptedEstimate(
                vector=_dj_vector(4, salt=2, weight=8), halvings=3
            ),
            ciphertext_bytes=_DJ_WIDTH,
        )),
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
        ("diptych_reply_dj", DiptychReply(
            iteration=2,
            data_estimates=(EncryptedEstimate(_dj_vector(3, salt=7, weight=4), 2),),
            noise_estimates=(EncryptedEstimate(_dj_vector(3, salt=8, weight=4), 2),),
            ciphertext_bytes=_DJ_WIDTH,
        )),
        ("decrypt_request_packed", DecryptRequest(
            estimates=(
                EncryptedEstimate(_packed_vector(9, 7, salt=9, weight=1 << 20), 11),
                EncryptedEstimate(_packed_vector(9, 7, salt=10, weight=1 << 20), 11),
            ),
            ciphertext_bytes=_PACKED_WIDTH,
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
        ("gossip_avg_request", GossipAvgRequest(
            values=(0.0, 1.0, -2.5, 3.141592653589793, 1e-300),
        )),
        ("gossip_avg_reply", GossipAvgReply(values=(42.0, -0.125))),
        ("push_sum", PushSumMessage(values=(0.5, 0.25, -1.75), weight=0.5)),
        ("membership_announcement", MembershipAnnouncement(
            node_id=1337, online=True, cycle=90,
        )),
        ("key_announcement", KeyAnnouncement(
            modulus=(1 << 192) + 133_333_333, degree=2, threshold=3, n_shares=8,
        )),
    ]


def _load_vectors() -> dict:
    with VECTOR_FILE.open() as handle:
        return json.load(handle)


class TestGoldenVectors:
    def test_vector_file_matches_wire_version(self):
        vectors = _load_vectors()
        assert vectors["version"] == WIRE_VERSION

    def test_every_message_type_is_covered(self):
        vectors = _load_vectors()
        covered = {entry["type"] for entry in vectors["vectors"]}
        # BatchEnvelope postdates wire_v1.json; its golden vectors live in
        # tests/vectors/wire_batch_v1.json (see test_wire_batch_vectors.py).
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

def _regenerate(path: Path) -> None:
    entries = [
        {
            "name": name,
            "type": type(message).__name__,
            "frame_hex": bytes(message.serialize()).hex(),
        }
        for name, message in golden_messages()
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
