"""The ``Frame``: sized at once, written on demand, never decoded in process.

``WireMessage.serialize()`` returns a :class:`~repro.gossip.messages.Frame`
that carries the message it encodes and its exact length; its bytes are
written only when something reads them, and ``deserialize`` hands the
message back instead of decoding the frame.  Four things must hold for that
to be invisible:

* the length is exact — ``len(frame) == len(bytes(frame))`` for every
  golden message, every message shape Hypothesis draws and every frame of
  whole object-engine runs;
* ``serialize()`` raises where the eager encoder raised, with the same
  text, so writing the bytes later can never fail;
* the short-circuit is exact — the carried message equals the full decode
  of the same bytes, field for field and type for type (tuples and Python
  ``int``, never lists or numpy scalars), on every golden message and
  across whole runs of the object engine;
* every byte string that did not come straight out of ``serialize()`` —
  a copy, a slice, the fault model's corrupted frame, a socket envelope's
  payload, a decoded batch's inner frames — is plain ``bytes`` and meets
  the full decoder and its checksum.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import ChiaroscuroConfig
from repro.core.runner import run_chiaroscuro
from repro.crypto.backends import EncryptedVector, PartialVectorDecryption
from repro.datasets import load_dataset
from repro.exceptions import WireFormatError
from repro.gossip import messages as wire_messages
from repro.gossip.encrypted_sum import EncryptedEstimate
from repro.gossip.messages import (
    BatchEnvelope,
    DecryptRequest,
    DecryptResponse,
    DiptychExchange,
    DiptychReply,
    Frame,
    batch_frames,
    deserialize,
)
from repro.net.envelope import KIND_FRAME, Envelope, decode_envelope, encode_envelope
from repro.simulation.network import Network

from test_wire_batch_vectors import golden_batches
from test_wire_format import wire_messages as message_shapes
from test_wire_vectors import golden_messages

_SCALARS = (int, float, str, bool, bytes)


def assert_strictly_equal(ours, theirs, path: str = "message") -> None:
    """Equal, and built from the same types all the way down."""
    assert type(ours) is type(theirs), (
        f"{path}: {type(ours).__name__} != {type(theirs).__name__}"
    )
    if dataclasses.is_dataclass(ours):
        for field in dataclasses.fields(ours):
            if field.compare:
                assert_strictly_equal(getattr(ours, field.name),
                                      getattr(theirs, field.name),
                                      f"{path}.{field.name}")
    elif isinstance(ours, tuple):
        assert len(ours) == len(theirs), path
        for index, (mine, other) in enumerate(zip(ours, theirs)):
            assert_strictly_equal(mine, other, f"{path}[{index}]")
    else:
        assert type(ours) in _SCALARS, f"{path}: unexpected {type(ours).__name__}"
        assert ours == theirs, path


_GOLDEN = golden_messages() + golden_batches()


@pytest.mark.parametrize("name,message", _GOLDEN, ids=[name for name, _ in _GOLDEN])
class TestShortCircuitIsExact:
    def test_a_fresh_frame_hands_back_its_message(self, name, message):
        frame = message.serialize()
        assert type(frame) is Frame
        assert deserialize(frame) is message

    def test_its_length_is_the_length_of_its_bytes(self, name, message):
        frame = message.serialize()
        assert len(frame) == len(bytes(frame))

    def test_the_full_decode_of_its_bytes_is_the_same_message(self, name, message):
        frame = message.serialize()
        decoded = deserialize(bytes(frame))
        assert decoded is not message
        assert decoded == message
        assert_strictly_equal(decoded, message)


@given(message_shapes())
@settings(max_examples=200, deadline=None)
def test_a_frame_knows_its_exact_length(message):
    assert len(message.serialize()) == len(bytes(message.serialize()))


class TestBytesOnDemand:
    MESSAGES = {name: message for name, message in golden_messages()}

    @pytest.mark.parametrize("name", ["diptych_exchange_packed", "diptych_reply_dj",
                                      "decrypt_request_packed", "decrypt_response_dj"])
    def test_serialize_writes_no_byte_of_the_sized_types(self, name, monkeypatch):
        message = self.MESSAGES[name]
        expected = bytes(message.serialize())

        def no_writing(self, out):
            raise AssertionError("serialize() wrote the body")

        monkeypatch.setattr(type(message), "_write_body", no_writing)
        frame = message.serialize()
        assert len(frame) == len(expected)
        monkeypatch.undo()
        assert frame == expected and bytes(frame) is bytes(frame)

    def test_a_frame_compares_and_hashes_as_its_bytes(self):
        message = self.MESSAGES["diptych_exchange_packed"]
        frame, twin = message.serialize(), message.serialize()
        data = bytes(twin)
        assert frame == data and data == frame and frame == twin
        assert not frame != data
        assert frame != data[:-1] and frame != bytearray(data[:-1])
        assert hash(frame) == hash(data)
        assert frame[3] == data[3] and frame[2:5] == data[2:5]
        assert frame != message and frame != len(data)


def _vector(payload=(1, 2), backend_name="plain", **fields):
    return EncryptedVector(payload=payload, backend_name=backend_name, **fields)


def _estimate(halvings=0, **fields):
    return EncryptedEstimate(vector=_vector(**fields), halvings=halvings)


def _partial(share_index=1, payload=(1, 2)):
    return PartialVectorDecryption(share_index=share_index, payload=payload,
                                   backend_name="plain")


def _diptych(data=(_estimate(),), noise=None, iteration=0, width=2):
    return DiptychExchange(iteration=iteration, data_estimates=tuple(data),
                           noise_estimates=tuple(data if noise is None else noise),
                           ciphertext_bytes=width)


#: A vector block of 1025 ciphertexts at the widest width: 64 KiB + 16 bytes
#: over the frame limit once it is one estimate of a frame.
_OVER_LIMIT = dict(payload=(0,) * 1025)
_WIDEST = 1 << 16

#: (message, the text the eager encoder raised it with).  Each bound the
#: encoder checks, and two messages with two faults: the first fault in
#: writing order wins, and a field fault wins over the frame limit.
_REFUSED = {
    "width-zero": (DecryptRequest(estimates=(_estimate(),), ciphertext_bytes=0),
                   "ciphertext width 0 outside [1, 65536]"),
    "width-over": (_diptych(width=_WIDEST + 1),
                   "ciphertext width 65537 outside [1, 65536]"),
    "iteration": (_diptych(iteration=1 << 32),
                  "iteration 4294967296 outside [0, 4294967295]"),
    "halvings": (DecryptRequest(estimates=(_estimate(halvings=(1 << 20) + 1),),
                                ciphertext_bytes=2),
                 "halvings 1048577 outside [0, 1048576]"),
    "diptych-halves": (_diptych(noise=()),
                       "a diptych message carries one noise estimate per data estimate"),
    "estimate-count-diptych": (_diptych(data=(_estimate(),) * 4097),
                               "too many estimates for one diptych frame"),
    "estimate-count-request": (DecryptRequest(estimates=(_estimate(),) * 4097,
                                              ciphertext_bytes=2),
                               "too many estimates for one decryption frame"),
    "partial-count": (DecryptResponse(partials=(_partial(),) * 4097, ciphertext_bytes=2),
                      "too many partials for one decryption frame"),
    "share-index": (DecryptResponse(partials=(_partial(share_index=0),),
                                    ciphertext_bytes=2),
                    "share index 0 outside [1, 1048576]"),
    "name-length": (_diptych(data=(_estimate(backend_name="n" * 65),)),
                    "string too long for the wire: 65 bytes"),
    "vector-length": (_diptych(data=(_estimate(length=(1 << 20) + 1),)),
                      "vector length 1048577 exceeds the wire limit"),
    "weight": (_diptych(data=(_estimate(weight=0),)),
               "homomorphic weight must be >= 1"),
    "weight-width": (_diptych(data=(_estimate(weight=1 << (8 * _WIDEST)),)),
                     "bigint of 65537 bytes exceeds the wire limit 65536"),
    "unfit-ciphertext": (_diptych(data=(_estimate(payload=(1, 1 << 16)),)),
                         "ciphertext needs 3 bytes but the declared width is 2"),
    "body-over-frame-limit": (
        DecryptRequest(estimates=(_estimate(**_OVER_LIMIT),), ciphertext_bytes=_WIDEST),
        "message body of 67174418 bytes exceeds the frame limit"),
    "first-fault-wins": (
        DecryptRequest(estimates=(_estimate(payload=(-1,)), _estimate(halvings=1 << 21)),
                       ciphertext_bytes=2),
        "ciphertexts are non-negative, got -1"),
    "field-fault-before-frame-limit": (
        DecryptResponse(partials=(_partial(**_OVER_LIMIT), _partial(share_index=0)),
                        ciphertext_bytes=_WIDEST),
        "share index 0 outside [1, 1048576]"),
}


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_serialize_raises_what_the_eager_encoder_raised(name):
    message, text = _REFUSED[name]
    with pytest.raises(WireFormatError) as refused:
        message.serialize()
    assert str(refused.value) == text


def test_the_diptych_reply_is_checked_like_the_exchange():
    message, text = _REFUSED["iteration"]
    reply = DiptychReply(**{field.name: getattr(message, field.name)
                            for field in dataclasses.fields(message)})
    with pytest.raises(WireFormatError) as refused:
        reply.serialize()
    assert str(refused.value) == text


class TestOutsideBytesMeetTheDecoder:
    MESSAGE = dict(golden_messages())["diptych_exchange_packed"]

    def test_copies_and_slices_are_plain_bytes(self):
        frame = self.MESSAGE.serialize()
        for derived in (bytes(frame), frame[:], frame[:-4], frame[4:]):
            assert type(derived) is bytes
        assert deserialize(bytes(frame)) is not self.MESSAGE
        with pytest.raises(WireFormatError):
            deserialize(frame[:-1])

    def test_a_corrupted_frame_is_plain_bytes_and_fails_to_decode(self):
        frame = self.MESSAGE.serialize()
        network = Network(n_nodes=2, corruption_probability=1.0,
                          corruption_rng=np.random.default_rng(5))
        for _ in range(64):
            corrupted = network.maybe_corrupt(frame, sender=0)
            assert type(corrupted) is bytes
            assert corrupted != frame
            with pytest.raises(WireFormatError):
                deserialize(corrupted)
        assert network.total.messages_corrupted == 64

    def test_an_envelope_payload_is_plain_bytes(self):
        frame = self.MESSAGE.serialize()
        record = encode_envelope(Envelope(kind=KIND_FRAME, correlation_id=3,
                                          header={"op": "x"}, payload=frame))
        payload = decode_envelope(record[4:]).payload
        assert type(payload) is bytes
        assert_strictly_equal(deserialize(payload), self.MESSAGE)

    def test_the_inner_frames_of_a_decoded_batch_are_plain_bytes(self):
        frames = [message.serialize() for _, message in golden_messages()]
        assert all(type(inner) is bytes
                   for inner in BatchEnvelope(frames=tuple(frames)).frames)
        batch = deserialize(bytes(batch_frames(frames)))
        assert isinstance(batch, BatchEnvelope)
        assert all(type(inner) is bytes for inner in batch.frames)
        for decoded, frame in zip(batch.messages(), frames):
            assert decoded is not frame.message
            assert_strictly_equal(decoded, frame.message)


# --------------------------------------------------------------------- run-wide
class _CheckedDeserialize:
    """``deserialize`` that, for every ``Frame`` it receives, checks that its
    length is that of its bytes, decodes ``bytes(frame)`` in full and
    compares the two messages type-strictly."""

    def __init__(self, original) -> None:
        self.original = original
        self.frames = 0
        self.plain = 0
        self.rejected = 0

    def __call__(self, frame):
        if type(frame) is Frame:
            self.frames += 1
            assert len(frame) == len(bytes(frame))
            assert_strictly_equal(frame.message, self.original(bytes(frame)))
            return self.original(frame)
        self.plain += 1
        try:
            return self.original(frame)
        except WireFormatError:
            self.rejected += 1
            raise


@pytest.fixture
def checked_deserialize(monkeypatch):
    """Route every ``repro`` module's ``deserialize`` through the check."""
    original = wire_messages.deserialize
    checked = _CheckedDeserialize(original)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "deserialize", None) is original:
            monkeypatch.setattr(module, "deserialize", checked)
    return checked


_RUNS = {
    "plain_packed": {},
    "plain_unpacked": {"crypto": {"packing": "off"}},
    "damgard_jurik_128": {"crypto": {"backend": "damgard_jurik", "key_bits": 128}},
    "corrupted": {"network": {"corruption_rate": 0.05}},
}


@pytest.mark.parametrize("variant", sorted(_RUNS))
def test_every_frame_of_an_object_engine_run_decodes_to_its_message(
        variant, checked_deserialize):
    config = ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 2, "max_iterations": 2},
        privacy={"epsilon": 2.0, "noise_shares": 4},
        gossip={"cycles_per_aggregation": 4},
        crypto={"backend": "plain", "threshold": 3, "n_key_shares": 4},
        simulation={"n_participants": 10, "seed": 1},
    ).with_overrides(**_RUNS[variant])
    collection = load_dataset("gaussian", n_series=10, series_length=6,
                              n_clusters=2, seed=3)
    run_chiaroscuro(collection, config)
    assert checked_deserialize.frames > 0
    # In cycle mode only the fault model's output is ever plain bytes, and
    # the checksum rejects every one of them.
    assert checked_deserialize.rejected == checked_deserialize.plain
    assert (checked_deserialize.plain > 0) == (variant == "corrupted")
