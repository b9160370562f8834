"""The transport seam: loopback delivery, the exchange rule, envelopes,
byte accounting.

The refactor that pulled :class:`~repro.net.transport.LoopbackTransport` out
of the cycle engine must be invisible: identical delivery semantics and —
the regression this file pins down with golden numbers — identical byte
accounting.  The accounting rule ("one authoritative byte-count site in the
transport") is exercised at both the unit level (``account_send`` /
``account_receive`` split) and end to end (a seeded run's byte totals are
frozen against the pre-refactor values).  The cycle model's request/reply
policy lives in :meth:`LoopbackTransport.exchange` and is tested there, case
by case.
"""

from __future__ import annotations

import pytest

from repro.config import ChiaroscuroConfig
from repro.core.runner import run_chiaroscuro
from repro.datasets import load_dataset
from repro.exceptions import SimulationError, WireFormatError
from repro.net.envelope import (
    KIND_CONTROL,
    KIND_FRAME,
    Envelope,
    EnvelopeError,
    decode_envelope,
    encode_envelope,
    read_length_prefix,
)
from repro.gossip.messages import MembershipAnnouncement, deserialize
from repro.net.transport import LoopbackTransport
from repro.simulation.engine import CycleEngine
from repro.simulation.network import Message, Network
from repro.simulation.node import Node


class _EchoNode(Node):
    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.received: list = []

    def next_cycle(self, engine, cycle) -> None:  # pragma: no cover - unused
        pass

    def receive(self, engine, message) -> None:
        self.received.append(message)


def _tiny_config() -> ChiaroscuroConfig:
    return ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 2, "max_iterations": 3},
        privacy={"epsilon": 2.0, "noise_shares": 4},
        gossip={"cycles_per_aggregation": 4},
        crypto={"backend": "plain", "threshold": 3, "n_key_shares": 4},
        simulation={"n_participants": 8, "seed": 0},
    )


def _tiny_collection():
    return load_dataset("gaussian", n_series=8, series_length=6, n_clusters=2, seed=3)


class TestLoopbackTransport:
    def test_engine_delegates_to_a_loopback_transport(self):
        engine = CycleEngine([_EchoNode(0), _EchoNode(1)], seed=0)
        assert isinstance(engine.transport, LoopbackTransport)
        assert engine.transport.network is engine.network

    def test_transmit_delivers_and_accounts(self):
        nodes = [_EchoNode(0), _EchoNode(1)]
        engine = CycleEngine(nodes, seed=0)
        frame = b"\x01\x02\x03\x04"
        assert engine.transport.transmit(0, 1, "frame", frame, modelled_bytes=3) == frame
        assert [message.payload for message in nodes[1].received] == [frame]
        stats = engine.network.stats_for(0)
        assert stats.messages_sent == 1
        assert stats.bytes_sent == len(frame)
        assert stats.bytes_modelled == 3
        assert engine.network.total.messages_received == 1

    def test_transmit_hands_an_intact_frame_through(self):
        nodes = [_EchoNode(0), _EchoNode(1)]
        engine = CycleEngine(nodes, seed=0)
        frame = MembershipAnnouncement(node_id=1, online=True, cycle=2).serialize()
        assert engine.transport.transmit(0, 1, "frame", frame) is frame
        assert nodes[1].received[0].payload is frame
        # Only a bytearray is copied, into plain bytes.
        received = engine.transport.transmit(0, 1, "frame", bytearray(bytes(frame)))
        assert type(received) is bytes and received == frame

    def test_transmit_rejects_object_payloads(self):
        engine = CycleEngine([_EchoNode(0), _EchoNode(1)], seed=0)
        with pytest.raises(SimulationError):
            engine.transport.transmit(0, 1, "frame", {"not": "bytes"})  # type: ignore[arg-type]

    def test_offline_recipient_counts_as_sent_not_delivered(self):
        nodes = [_EchoNode(0), _EchoNode(1)]
        engine = CycleEngine(nodes, seed=0)
        nodes[1].online = False
        assert engine.transport.transmit(0, 1, "frame", b"abc") is None
        assert nodes[1].received == []
        assert engine.network.stats_for(0).messages_sent == 1
        # Reception was accounted (the network delivered; the node was off).
        assert engine.network.total.messages_received == 1


class _ScriptedFaults:
    """Stands in for a fault stream: yields the scripted draws, then 1.0.

    ``Network`` drops (or corrupts) a message when its draw is below the
    configured probability, so with probability 0.5 a scripted 0.0 is a
    fault and the trailing 1.0s are clean deliveries.
    """

    def __init__(self, *draws: float) -> None:
        self._draws = list(draws)

    def random(self) -> float:
        return self._draws.pop(0) if self._draws else 1.0

    def integers(self, low: int, high: int) -> int:
        return low  # which bit a corruption flips


class TestExchange:
    """The cycle model's pairwise-exchange policy, one case at a time."""

    REQUEST = MembershipAnnouncement(node_id=1, online=True, cycle=2).serialize()
    REPLY = MembershipAnnouncement(node_id=3, online=False, cycle=4)
    KINDS = ("request", "reply")

    def _exchange(self, drops=(), corruptions=(), **options):
        nodes = [_EchoNode(0), _EchoNode(1)]
        engine = CycleEngine(nodes, seed=0, drop_probability=0.5,
                             corruption_rate=0.5)
        engine.network._rng = _ScriptedFaults(*drops)
        engine.network._corruption_rng = _ScriptedFaults(*corruptions)
        served = []

        def serve(request):
            served.append(request)
            return self.REPLY.serialize()

        reply = engine.exchange(0, 1, self.KINDS, self.REQUEST, serve,
                                modelled_bytes=16, **options)
        return engine, nodes, served, reply

    def test_clean_round_trip(self):
        engine, nodes, served, reply = self._exchange()
        assert reply == self.REPLY
        assert served == [MembershipAnnouncement(node_id=1, online=True, cycle=2)]
        assert [message.kind for message in nodes[1].received] == ["request"]
        assert [message.kind for message in nodes[0].received] == ["reply"]
        total = engine.network.total
        assert (total.messages_sent, total.messages_dropped) == (2, 0)
        assert total.bytes_sent == len(self.REQUEST) + len(self.REPLY.serialize())
        assert total.bytes_modelled == 32

    def test_dropped_request_ends_the_exchange(self):
        engine, _, served, reply = self._exchange(drops=[0.0])
        assert reply is None
        assert served == []
        total = engine.network.total
        assert (total.messages_sent, total.messages_dropped) == (1, 1)

    def test_dropped_reply_is_still_decoded(self):
        engine, nodes, served, reply = self._exchange(drops=[1.0, 0.0])
        assert reply == self.REPLY
        assert len(served) == 1
        assert nodes[0].received == []  # the drop is real: nothing delivered
        total = engine.network.total
        assert (total.messages_sent, total.messages_dropped) == (2, 1)

    def test_corrupted_request_is_never_answered(self):
        engine, nodes, served, reply = self._exchange(corruptions=[0.0])
        assert reply is None
        assert served == []
        total = engine.network.total
        assert (total.messages_sent, total.messages_corrupted) == (1, 1)
        # The fault model delivers a new plain byte string, never the
        # sender's frame, so the full decoder sees it and rejects it.
        (delivered,) = nodes[1].received
        assert type(delivered.payload) is bytes
        with pytest.raises(WireFormatError):
            deserialize(delivered.payload)

    def test_corrupted_reply_counts_as_a_loss(self):
        engine, nodes, served, reply = self._exchange(corruptions=[1.0, 0.0])
        assert reply is None
        assert len(served) == 1
        total = engine.network.total
        assert (total.messages_sent, total.messages_corrupted) == (2, 1)
        assert nodes[1].received[0].payload is self.REQUEST
        (delivered,) = nodes[0].received
        assert type(delivered.payload) is bytes
        with pytest.raises(WireFormatError):
            deserialize(delivered.payload)

    def test_committee_rule_serves_a_dropped_request(self):
        engine, nodes, served, reply = self._exchange(drops=[0.0],
                                                      lossy_request=False)
        assert reply == self.REPLY
        assert served == [MembershipAnnouncement(node_id=1, online=True, cycle=2)]
        assert nodes[1].received == []
        total = engine.network.total
        assert (total.messages_sent, total.messages_dropped) == (2, 1)

    def test_offline_recipient_ends_the_exchange(self):
        nodes = [_EchoNode(0), _EchoNode(1)]
        nodes[1].online = False
        engine = CycleEngine(nodes, seed=0)
        assert engine.exchange(0, 1, self.KINDS, self.REQUEST,
                               lambda request: self.REPLY.serialize()) is None
        assert engine.network.total.messages_sent == 1


class TestAccountingSplit:
    """``Network.send`` is now ``account_send`` + ``account_receive``."""

    def test_send_composes_the_two_halves(self):
        network = Network(n_nodes=2)
        message = Message(sender=0, recipient=1, kind="x", payload=None,
                          size_bytes=7, modelled_bytes=5)
        assert network.send(message) is True
        assert network.stats_for(0).bytes_sent == 7
        assert network.stats_for(0).bytes_modelled == 5
        assert network.stats_for(1).bytes_received == 7
        assert network.total.messages_sent == network.total.messages_received == 1

    def test_account_send_alone_never_touches_the_recipient(self):
        network = Network(n_nodes=2)
        message = Message(sender=0, recipient=1, kind="x", payload=None,
                          size_bytes=7)
        assert network.account_send(message) is True
        assert network.stats_for(1).bytes_received == 0
        assert network.total.messages_received == 0

    def test_account_receive_alone_never_touches_the_sender(self):
        network = Network(n_nodes=2)
        message = Message(sender=0, recipient=1, kind="x", payload=None,
                          size_bytes=7)
        network.account_receive(message)
        assert network.stats_for(0).bytes_sent == 0
        assert network.stats_for(1).bytes_received == 7


class TestGoldenByteAccounting:
    """Cycle-mode byte totals are frozen against the pre-transport refactor.

    These constants were measured on the seed tree (before the transport
    seam existed); the refactor — and every future transport change — must
    keep cycle mode bit-identical to them.
    """

    GOLDEN = {
        "auto": {"messages_sent": 318, "bytes_sent": 520428,
                 "bytes_sent_modelled": 511680},
    }

    @pytest.mark.parametrize("wire", ["auto"])
    def test_cycle_mode_byte_totals_unchanged_vs_seed(self, wire):
        result = run_chiaroscuro(_tiny_collection(), _tiny_config())
        golden = self.GOLDEN[wire]
        assert result.costs.messages_sent == golden["messages_sent"]
        assert result.costs.bytes_sent == golden["bytes_sent"]
        assert result.costs.bytes_sent_modelled == golden["bytes_sent_modelled"]
        # The numeric protocol outcome is part of the same freeze.
        assert result.n_iterations == 3
        assert float(result.inertia) == pytest.approx(11.749138868081523, abs=0)


class TestEnvelope:
    def test_round_trip(self):
        envelope = Envelope(
            kind=KIND_FRAME, correlation_id=42,
            header={"op": "diptych-exchange", "sender": 3, "recipient": 1},
            payload=b"CW\x01...", is_reply=True,
        )
        record = encode_envelope(envelope)
        length = read_length_prefix(record[:4])
        assert length == len(record) - 4
        assert decode_envelope(record[4:]) == envelope

    def test_empty_header_and_payload(self):
        envelope = Envelope(kind=KIND_CONTROL, correlation_id=0)
        record = encode_envelope(envelope)
        assert decode_envelope(record[4:]) == envelope

    def test_batch_flag_round_trips(self):
        envelope = Envelope(kind=KIND_FRAME, correlation_id=7,
                            header={"op": "decrypt-request"},
                            payload=b"CW\x01...", is_batch=True)
        record = encode_envelope(envelope)
        decoded = decode_envelope(record[4:])
        assert decoded.is_batch is True
        assert decoded == envelope

    def test_batch_flag_off_keeps_the_record_byte_identical(self):
        """A record that is no batch (a diptych exchange, a control record)
        never sets the flag bit: the exact bytes earlier runner versions
        produced."""
        plain = Envelope(kind=KIND_FRAME, correlation_id=7,
                         header={"op": "x"}, payload=b"f")
        assert encode_envelope(plain)[13] == 0x00
        assert decode_envelope(encode_envelope(plain)[4:]).is_batch is False

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1e-17, 65536.8515625, -3.141592653589793]
        envelope = Envelope(kind=KIND_CONTROL, correlation_id=1,
                            header={"values": values})
        decoded = decode_envelope(encode_envelope(envelope)[4:])
        assert decoded.header["values"] == values

    def test_bad_kind_rejected(self):
        with pytest.raises(EnvelopeError):
            Envelope(kind=0x7F, correlation_id=0)
        record = bytearray(encode_envelope(Envelope(kind=KIND_CONTROL,
                                                    correlation_id=0)))
        record[4] = 0x7F
        with pytest.raises(EnvelopeError):
            decode_envelope(bytes(record[4:]))

    def test_header_length_beyond_record_rejected(self):
        record = bytearray(encode_envelope(Envelope(kind=KIND_CONTROL,
                                                    correlation_id=0)))
        record[14:18] = (1 << 20).to_bytes(4, "big")
        with pytest.raises(EnvelopeError):
            decode_envelope(bytes(record[4:]))

    def test_non_object_header_rejected(self):
        record = bytearray(encode_envelope(Envelope(kind=KIND_CONTROL,
                                                    correlation_id=0)))
        # Overwrite the header "{}" with "[]" (same length, not an object).
        assert bytes(record[-2:]) == b"{}"
        record[-2:] = b"[]"
        with pytest.raises(EnvelopeError):
            decode_envelope(bytes(record[4:]))

    def test_length_prefix_bounds(self):
        with pytest.raises(EnvelopeError):
            read_length_prefix(b"\x00\x00")
        with pytest.raises(EnvelopeError):
            read_length_prefix((1 << 31).to_bytes(4, "big"))
        with pytest.raises(EnvelopeError):
            read_length_prefix(b"\x00\x00\x00\x01")
