"""The ``Frame`` short-circuit: only bytes from elsewhere are decoded.

``WireMessage.serialize()`` returns a :class:`~repro.gossip.messages.Frame`
that carries the message it encodes, and ``deserialize`` hands that message
back instead of decoding the frame.  Two things must hold for that to be
invisible:

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

from repro.config import ChiaroscuroConfig
from repro.core.runner import run_chiaroscuro
from repro.datasets import load_dataset
from repro.exceptions import WireFormatError
from repro.gossip import messages as wire_messages
from repro.gossip.messages import BatchEnvelope, Frame, batch_frames, deserialize
from repro.net.envelope import KIND_FRAME, Envelope, decode_envelope, encode_envelope
from repro.simulation.network import Network

from test_wire_batch_vectors import golden_batches
from test_wire_vectors import golden_messages

_SCALARS = (int, float, str, bool)


def assert_strictly_equal(ours, theirs, path: str = "message") -> None:
    """Equal, and built from the same types all the way down.

    Byte strings only need to be ``bytes`` on both sides: a batch built in
    process holds ``Frame`` inner frames, its decode plain ``bytes``.
    """
    if isinstance(ours, bytes) and isinstance(theirs, bytes):
        assert bytes(ours) == bytes(theirs), path
        return
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

    def test_the_full_decode_of_its_bytes_is_the_same_message(self, name, message):
        frame = message.serialize()
        decoded = deserialize(bytes(frame))
        assert decoded is not message
        assert decoded == message
        assert_strictly_equal(decoded, message)


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
        for compress in (False, True):
            batch = deserialize(bytes(batch_frames(frames, compress=compress)))
            assert isinstance(batch, BatchEnvelope)
            assert all(type(inner) is bytes for inner in batch.frames)
            for decoded, frame in zip(batch.messages(), frames):
                assert decoded is not frame.message
                assert_strictly_equal(decoded, frame.message)


# --------------------------------------------------------------------- run-wide
class _CheckedDeserialize:
    """``deserialize`` that, for every ``Frame`` it receives, also decodes
    ``bytes(frame)`` in full and compares the two messages type-strictly."""

    def __init__(self, original) -> None:
        self.original = original
        self.frames = 0
        self.plain = 0
        self.rejected = 0

    def __call__(self, frame):
        if type(frame) is Frame:
            self.frames += 1
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
