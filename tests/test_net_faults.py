"""Targeted (adversarial) corruption mutations.

The random-bit-flip fault model is covered by the wire fuzz suite; these
tests aim mutations at specific fields — version byte, length varint, CRC,
slot metadata — with the checksum *recomputed* where a man-in-the-middle
could recompute it, and assert that decoding rejects every one of them with
:class:`~repro.exceptions.WireFormatError` and nothing else, on both
transports (the in-process loopback and the live worker's frame service).
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.crypto.backends import EncryptedVector, PartialVectorDecryption
from repro.crypto.wire import wire_ciphertext_bytes
from repro.exceptions import WireFormatError
from repro.gossip.encrypted_sum import EncryptedEstimate
from repro.gossip.messages import (
    BatchEnvelope,
    DecryptRequest,
    DecryptResponse,
    DiptychExchange,
    DiptychReply,
    KeyAnnouncement,
    MESSAGE_TYPES,
    MembershipAnnouncement,
    batch_frames,
    deserialize,
)
from repro.net.envelope import KIND_FRAME, Envelope
from repro.simulation.engine import CycleEngine
from repro.simulation.network import TrafficStats
from repro.simulation.node import Node
from frame_mutations import (
    TargetedMutation, _split_frame, reframe_body, targeted_mutations,
)


def _estimate(width: int = 8, length: int = 3, halvings: int = 2) -> EncryptedEstimate:
    bound = (1 << (8 * width)) - 1
    payload = tuple((7919 * (i + 1)) % bound for i in range(length))
    vector = EncryptedVector(payload=payload, backend_name="plain", length=length)
    return EncryptedEstimate(vector=vector, halvings=halvings)


def _partial(width: int = 8, length: int = 3) -> PartialVectorDecryption:
    bound = (1 << (8 * width)) - 1
    payload = tuple((104729 * (i + 1)) % bound for i in range(length))
    return PartialVectorDecryption(share_index=2, payload=payload,
                                   backend_name="plain", length=length)


FRAMES = {
    "diptych": DiptychExchange(
        iteration=4,
        data_estimates=(_estimate(), _estimate()),
        noise_estimates=(_estimate(), _estimate()),
        ciphertext_bytes=8,
    ).serialize(),
    "diptych-reply": DiptychReply(
        iteration=4,
        data_estimates=(_estimate(),),
        noise_estimates=(_estimate(),),
        ciphertext_bytes=8,
    ).serialize(),
    "decrypt-request": DecryptRequest(
        estimates=(_estimate(),), ciphertext_bytes=8
    ).serialize(),
    "decrypt-response": DecryptResponse(
        partials=(_partial(),), ciphertext_bytes=8
    ).serialize(),
    "membership": MembershipAnnouncement(node_id=7, online=True, cycle=3).serialize(),
    "key": KeyAnnouncement(modulus=2**64 + 13, degree=2, threshold=3,
                           n_shares=5).serialize(),
}
# A committee fan-out record: the same decrypt request for two helpers.
FRAMES["batch"] = batch_frames([FRAMES["decrypt-request"]] * 2)

ALL_MUTATIONS = [
    (name, mutation)
    for name, frame in FRAMES.items()
    for mutation in targeted_mutations(frame)
]


def _mutation_id(case: tuple[str, TargetedMutation]) -> str:
    return f"{case[0]}-{case[1].target}"


class TestTargetedMutations:
    def test_the_corpus_holds_every_frame_type(self):
        assert {bytes(frame)[3] for frame in FRAMES.values()} == MESSAGE_TYPES.keys()

    def test_every_frame_gets_envelope_and_crc_mutations(self):
        for name, frame in FRAMES.items():
            targets = {mutation.target for mutation in targeted_mutations(frame)}
            assert {"magic", "version-bumped", "version-zero", "type-unknown",
                    "length-over", "crc-bit-flip"} <= targets, name
            assert any(m.crc_fixed for m in targeted_mutations(frame)), name

    def test_estimate_frames_get_slot_metadata_mutations(self):
        for name in ("diptych", "diptych-reply", "decrypt-request",
                     "decrypt-response"):
            targets = {m.target for m in targeted_mutations(FRAMES[name])}
            assert {"slot-width-zero", "slot-width-over-limit",
                    "slot-halvings-over-limit"} <= targets, name

    def test_batch_frames_get_section_mutations(self):
        targets = {m.target for m in targeted_mutations(FRAMES["batch"])}
        assert {"batch-flags-compressed", "batch-count-over", "batch-count-under",
                "batch-count-over-limit", "batch-inner-length-over-limit",
                "batch-nested"} <= targets

    @pytest.mark.parametrize("case", ALL_MUTATIONS, ids=_mutation_id)
    def test_mutations_differ_from_the_original(self, case):
        name, mutation = case
        assert mutation.frame != FRAMES[name]

    @pytest.mark.parametrize("case", ALL_MUTATIONS, ids=_mutation_id)
    def test_deserialize_rejects_with_wire_format_error_only(self, case):
        _, mutation = case
        with pytest.raises(WireFormatError):
            deserialize(mutation.frame)

    def test_reframe_body_round_trips_a_clean_frame(self):
        """The adversary toolbox itself is sound: re-framing the original
        body reproduces a decodable, equal message."""
        frame = FRAMES["membership"]
        _, body = _split_frame(frame)
        rebuilt = reframe_body(frame, body)
        assert rebuilt == frame
        assert deserialize(rebuilt) == deserialize(frame)


class _SinkNode(Node):
    """Records whatever the engine delivers (transport conformance probe)."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.received: list[bytes] = []

    def next_cycle(self, engine, cycle) -> None:  # pragma: no cover - unused
        pass

    def receive(self, engine, message) -> None:
        self.received.append(message.payload)


def _worker_hosting_node_zero(node_id: int = 0, packing: str = "auto"):
    """A live worker hosting node 0 (or *node_id*) of a 4-node run whose
    key shares nodes 0 and 1 hold; never connected, so only its frame
    service, probe answers and peer-record handler are used."""
    from repro.config import ChiaroscuroConfig
    from repro.core.runner import build_run_setup
    from repro.datasets import load_dataset
    from repro.net.live import LiveWorker

    config = ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 2, "max_iterations": 2},
        privacy={"noise_shares": 2},
        crypto={"backend": "plain", "threshold": 2, "n_key_shares": 2,
                "packing": packing},
        simulation={"n_participants": 4},
    )
    collection = load_dataset("gaussian", n_series=4, series_length=4,
                              n_clusters=2, seed=0)
    setup = build_run_setup(collection, config)
    return LiveWorker(node_id, setup, [node_id])


def _worker_with_node_zero_gossiping(packing: str = "auto"):
    """The same worker, node 0 past its first assignment: GOSSIP phase,
    iteration 1, a diptych of 2 + 2 estimates of length 5."""
    worker = _worker_hosting_node_zero(packing=packing)
    participant = worker.participants[0]
    assert list(participant.step(np.random.default_rng(0), tuple, 4)) == []
    assert participant.iteration == 1 and len(participant.diptych.data_estimates[0]) == 5
    return worker


def _peer_record(worker, header, payload, is_batch=False) -> Envelope:
    """The reply *worker* sends to a peer's frame record."""
    return asyncio.run(worker.handle_peer_record(Envelope(
        kind=KIND_FRAME, header=header, payload=payload, is_batch=is_batch)))


def _own_view_frame(worker, change=lambda estimate: estimate) -> bytes:
    """The bytes of a diptych exchange carrying node 0's own estimates, each
    passed through *change*."""
    diptych = worker.participants[0].diptych
    return bytes(DiptychExchange(
        iteration=1,
        data_estimates=tuple(map(change, diptych.data_estimates)),
        noise_estimates=tuple(map(change, diptych.noise_estimates)),
        ciphertext_bytes=wire_ciphertext_bytes(worker.setup.backend),
    ).serialize())


def _vector_with(**fields):
    """A *change* for :func:`_own_view_frame`: replace these vector fields."""
    return lambda estimate: replace(estimate, vector=replace(estimate.vector, **fields))


def _diptych_frame(message_type, count: int, length: int) -> bytes:
    estimates = tuple(_estimate(length=length) for _ in range(count))
    return message_type(iteration=1, data_estimates=estimates,
                        noise_estimates=estimates, ciphertext_bytes=8).serialize()


class TestRejectionOnBothTransports:
    @pytest.mark.parametrize("case", ALL_MUTATIONS, ids=_mutation_id)
    def test_loopback_transport_delivers_and_decoder_rejects(self, case):
        """The loopback transport is content-agnostic: the mutated bytes
        arrive verbatim and die in the decoder, nowhere else."""
        _, mutation = case
        nodes = [_SinkNode(0), _SinkNode(1)]
        engine = CycleEngine(nodes, seed=0)
        received = engine.transport.transmit(0, 1, "mutated", mutation.frame)
        assert received == mutation.frame
        assert nodes[1].received == [mutation.frame]
        with pytest.raises(WireFormatError):
            deserialize(received)

    @pytest.mark.parametrize("case", ALL_MUTATIONS, ids=_mutation_id)
    def test_live_worker_handler_degrades_to_loss(self, case):
        """The live worker's frame service answers an error header (the
        initiator treats it as a loss) and never raises."""
        _, mutation = case
        header, payload = _worker_hosting_node_zero().transport.serve(
            "diptych-exchange", 1, 0, None, mutation.frame,
        )
        assert header["error"] == "wire_format"
        assert payload == b""


class TestFramesForNodesHostedElsewhere:
    """A frame or probe naming a node this worker does not host is answered
    as a loss; raising instead would escape ``RequestChannel.pump``, close
    the peer link and fail every request in flight on it."""

    @pytest.mark.parametrize("op, frame, recipient", [
        ("diptych-exchange", FRAMES["diptych"], 5),
        # Node 1 holds a key share, but on another worker.
        ("decrypt-request", FRAMES["decrypt-request"], 1),
    ])
    def test_frame(self, op, frame, recipient):
        assert _worker_hosting_node_zero().transport.serve(
            op, 0, recipient, None, frame,
        ) == ({"error": "not_hosted"}, b"")

    def test_probe(self):
        assert _worker_hosting_node_zero().transport.answer_probe(
            {"op": "probe", "sender": 0, "recipient": 5, "iteration": 1},
        ) == {"status": "error", "error": "not_hosted"}

    @pytest.mark.parametrize("sender, recipient", [
        (1, 4), (1, 7), (1, -1),  # no node of the 4-node run
        (1, 2),                   # a node of the run, on another worker
        (4, 0), (-1, 0),          # node 0 is hosted here; the sender is no node
    ])
    def test_peer_record_never_reaches_the_ledger(self, sender, recipient):
        """The receive ledger raises ``SimulationError`` on an id outside
        ``[0, N)``; the frame service must answer before it is asked."""
        worker = _worker_with_node_zero_gossiping()
        frame = _diptych_frame(DiptychExchange, 2, 5)
        assert worker.transport.serve(
            "diptych-exchange", sender, recipient, None, frame,
        ) == ({"error": "not_hosted"}, b"")
        reply = _peer_record(worker, {"op": "diptych-exchange", "sender": sender,
                                      "recipient": recipient}, frame)
        assert (reply.header, reply.payload) == ({"error": "not_hosted"}, b"")
        assert worker.transport.ledger.total == TrafficStats()

    def test_batched_peer_record_is_answered_recipient_by_recipient(self):
        """A batch record is served one frame per recipient: the hosted one
        gets its reply, the others ``not_hosted``."""
        worker = _worker_with_node_zero_gossiping()
        frame = _diptych_frame(DiptychExchange, 2, 5)
        reply = _peer_record(
            worker, {"op": "diptych-exchange", "sender": 1, "recipients": [9, 0, 2]},
            batch_frames([frame] * 3), is_batch=True)
        assert reply.is_batch and reply.header["replies"] == [
            {"error": "not_hosted"}, {"error": "shape"}, {"error": "not_hosted"}]
        assert deserialize(reply.payload) == BatchEnvelope(frames=(b"", b"", b""))
        assert worker.transport.ledger.total.messages_received == 1

    @pytest.mark.parametrize("payload, error", [
        (b"not a frame", "wire_format"),
        (FRAMES["decrypt-request"], "batch_mismatch"),  # a frame, not a batch
        (batch_frames([FRAMES["decrypt-request"]]), "batch_mismatch"),  # 1 for 2
    ])
    def test_malformed_batched_peer_record_is_refused_whole(self, payload, error):
        worker = _worker_hosting_node_zero()
        reply = _peer_record(
            worker, {"op": "decrypt-request", "sender": 1, "recipients": [0, 2]},
            payload, is_batch=True)
        assert reply.is_batch and reply.header["error"] == error
        assert worker.transport.ledger.total == TrafficStats()


def _reply(header, payload=b"") -> Envelope:
    return Envelope(kind=KIND_FRAME, correlation_id=0, header=header,
                    payload=payload, is_reply=True, is_batch=True)


def _batch_reply(headers, frames) -> Envelope:
    return _reply({"replies": headers}, batch_frames(frames))


async def _fan_out_to_a_scripted_worker(transport, frame, reply):
    """Send *frame* from node 0 to helpers 1 and 3, both announced at one
    loopback server that answers every record with *reply*.  Returns the
    per-recipient results and the records the server read."""
    from repro.net.live import FrameConnection, RequestChannel, SocketStats

    seen = []

    async def handle(envelope):
        seen.append(envelope)
        return reply

    async def serve(reader, writer):
        channel = RequestChannel(FrameConnection(reader, writer, SocketStats()), handle)
        try:
            await channel.pump()
        finally:
            channel.connection.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    address = server.sockets[0].getsockname()[:2]
    for helper in (1, 3):
        transport.directory.announce(helper, online=True, cycle=0,
                                     address=address)
    try:
        results = await transport.batched_frame_requests(
            0, (1, 3), "decrypt-request", frame, modelled_bytes=24)
    finally:
        transport.close()
        server.close()
    return results, seen


class TestCommitteeFanOutOverOneRecord:
    """``batched_frame_requests``, the one way a decrypt request is fanned
    out: helpers hosted on one remote worker share a socket record, the
    ledger does not notice."""

    def test_two_helpers_on_one_worker_cost_one_record_each_way(self):
        transport = _worker_hosting_node_zero().transport
        request, response = FRAMES["decrypt-request"], FRAMES["decrypt-response"]
        results, seen = asyncio.run(_fan_out_to_a_scripted_worker(
            transport, request, _batch_reply([{}, {}], [response, response])))
        assert results == [({}, response), ({}, response)]
        (record,) = seen
        assert record.is_batch and record.header["recipients"] == [1, 3]
        assert deserialize(record.payload) == BatchEnvelope(frames=(request, request))
        socket = transport.socket_stats
        assert (socket.records_sent, socket.records_received) == (1, 1)
        assert (socket.batched_records, socket.batched_frames) == (1, 2)
        # The ledger is charged per helper, as two frame_request calls would.
        requester = transport.stats_for(0)
        assert (requester.messages_sent, requester.bytes_sent) == (2, 2 * len(request))
        assert (requester.messages_received, requester.bytes_received) \
            == (2, 2 * len(response))
        assert requester.bytes_modelled == 2 * 24

    @pytest.mark.parametrize("reply, error", [
        # one answer for two recipients
        (_batch_reply([{}], [FRAMES["decrypt-response"]]), "batch_mismatch"),
        # two headers, one frame
        (_batch_reply([{}, {}], [FRAMES["decrypt-response"]]), "batch_mismatch"),
        (_reply({}), "batch_mismatch"),
        (_reply({"replies": [{}, {}]}, b"not a frame"), "batch_mismatch"),
        # a frame, but not a batch of them
        (_reply({"replies": [{}, {}]}, FRAMES["decrypt-response"]), "batch_mismatch"),
        # the remote worker's own refusal of the whole record
        (_reply({"error": "bad_header"}), "bad_header"),
        # the right number of replies, but not JSON objects
        (_batch_reply(["ab", 7], [FRAMES["decrypt-response"]] * 2), "batch_mismatch"),
    ])
    def test_malformed_batched_reply_is_a_loss_per_recipient(self, reply, error):
        transport = _worker_hosting_node_zero().transport
        results, _ = asyncio.run(_fan_out_to_a_scripted_worker(
            transport, FRAMES["decrypt-request"], reply))
        assert results == [({"error": error}, b""), ({"error": error}, b"")]
        requester = transport.stats_for(0)
        assert (requester.messages_sent, requester.messages_received) == (2, 0)


class TestWellFormedFramesOfTheWrongShape:
    """A frame that passes its checksum but does not fit the hosted state —
    or whose header names no node — is answered as a loss too: raising would
    escape ``RequestChannel.pump``, close the peer link and fail every
    request in flight on it."""

    @pytest.mark.parametrize("count, length", [
        (3, 5),  # one estimate too many per side
        (2, 3),  # the right count, estimates of the wrong length
        (2, 5),  # the right count and length, unpacked for a packed backend
    ])
    def test_diptych_exchange(self, count, length):
        worker = _worker_with_node_zero_gossiping()
        diptych = worker.participants[0].diptych
        before = list(diptych.data_estimates), list(diptych.noise_estimates)
        assert worker.transport.serve(
            "diptych-exchange", 1, 0, None,
            _diptych_frame(DiptychExchange, count, length),
        ) == ({"error": "shape"}, b"")
        assert (diptych.data_estimates, diptych.noise_estimates) == before

    @pytest.mark.parametrize("change, packing", [
        pytest.param(change, packing, id=f"{name}-{packing}")
        for name, change, packings in [
            ("foreign_backend", _vector_with(backend_name="damgard_jurik"), ("auto", "off")),
            # beyond an honest weight's 2^(halvings + 1) and the packed
            # slots' headroom; unpacked, averaged in twice it would outgrow
            # the wire
            ("weight", _vector_with(weight=1 << 200), ("auto", "off")),
            ("wire_weight", _vector_with(weight=1 << 524287), ("auto", "off")),
            ("halvings", lambda estimate: replace(estimate, halvings=1 << 20),
             ("auto", "off")),  # a gap beyond the capacity
            # unpacked, the decoder refuses an extra ciphertext itself
            ("ciphertext_count", lambda estimate: replace(estimate, vector=replace(
                estimate.vector, payload=estimate.vector.payload + (1,))), ("auto",)),
        ]
        for packing in packings
    ])
    def test_diptych_exchange_the_stored_estimates_cannot_absorb(self, change, packing):
        """The frame decodes and has the diptych's count, length and
        packing, but averaging it into the stored estimates would raise, now
        or in the node's next frame."""
        worker = _worker_with_node_zero_gossiping(packing)
        assert worker.setup.backend.is_packed is (packing == "auto")
        diptych = worker.participants[0].diptych
        before = list(diptych.data_estimates), list(diptych.noise_estimates)
        assert worker.transport.serve(
            "diptych-exchange", 1, 0, None, _own_view_frame(worker, change),
        ) == ({"error": "shape"}, b"")
        assert (diptych.data_estimates, diptych.noise_estimates) == before
        assert bytes(worker.participants[0].exchange_frame(DiptychExchange))

    @pytest.mark.parametrize("packing", ["auto", "off"])
    def test_own_view_frame_is_absorbed(self, packing):
        """The control of the tests above: the unchanged view is served."""
        worker = _worker_with_node_zero_gossiping(packing)
        header, reply = worker.transport.serve(
            "diptych-exchange", 1, 0, None, _own_view_frame(worker))
        assert header == {} and reply

    def test_decrypt_request_in_another_packing_layout(self):
        """Node 0 holds a key share; the request's vector is unpacked, the
        backend packed."""
        assert _worker_hosting_node_zero().transport.serve(
            "decrypt-request", 1, 0, None, FRAMES["decrypt-request"],
        ) == ({"error": "bad_request"}, b"")

    @pytest.mark.parametrize("op, frame, error", [
        ("diptych-exchange", FRAMES["decrypt-request"],
         {"error": "unexpected_type", "detail": "DecryptRequest"}),
        ("decrypt-request", FRAMES["diptych"],
         {"error": "unexpected_type", "detail": "DiptychExchange"}),
        # Node 0 has not reached the gossip phase of iteration 4.
        ("diptych-exchange", FRAMES["diptych"], {"error": "state"}),
        ("gossip-push", FRAMES["diptych"], {"error": "unknown_op", "detail": "gossip-push"}),
    ])
    def test_frame_the_recipient_cannot_serve(self, op, frame, error):
        """Received, so charged, and answered as a loss."""
        worker = _worker_hosting_node_zero()
        assert worker.transport.serve(op, 1, 0, None, frame) == (error, b"")
        assert worker.transport.ledger.total.messages_received == 1

    def test_decrypt_request_to_a_node_without_a_key_share(self):
        worker = _worker_hosting_node_zero(node_id=3)
        assert worker.transport.serve(
            "decrypt-request", 1, 3, None, FRAMES["decrypt-request"],
        ) == ({"error": "no_share"}, b"")

    @pytest.mark.parametrize("header", [
        {"op": "diptych-exchange", "sender": 1},
        {"op": "diptych-exchange", "sender": 1, "recipient": "x"},
        {"op": "diptych-exchange", "recipient": 0},
        {"op": "diptych-exchange", "sender": None, "recipient": 0},
        {"op": "diptych-exchange", "sender": 1, "recipient": False},
        {"op": "diptych-exchange", "sender": True, "recipient": 0},
    ])
    def test_frame_header_with_missing_or_non_integer_node_ids(self, header):
        worker = _worker_with_node_zero_gossiping()
        reply = _peer_record(worker, header, _diptych_frame(DiptychExchange, 2, 5))
        assert (reply.header, reply.payload, reply.is_batch) \
            == ({"error": "bad_header"}, b"", False)
        assert worker.transport.ledger.total == TrafficStats()

    @pytest.mark.parametrize("header, replies", [
        ({"sender": 1, "recipients": [0, 2]},
         [{"error": "shape"}, {"error": "not_hosted"}]),
        ({"sender": 1}, None),
        ({"sender": 1, "recipients": 0}, None),
        ({"sender": 1, "recipients": [0, "x"]}, None),
        ({"sender": "1", "recipients": [0, 2]}, None),
        ({"sender": 1, "recipients": [0, True]}, None),
        ({"sender": True, "recipients": [0, 2]}, None),
    ])
    def test_batch_header_with_missing_or_non_integer_node_ids(self, header, replies):
        """What the worker's record handler checks before it serves a batch:
        a header that names no node list is answered ``bad_header`` for the
        whole record, a good one recipient by recipient."""
        worker = _worker_with_node_zero_gossiping()
        reply = _peer_record(
            worker, {"op": "diptych-exchange", **header},
            batch_frames([_diptych_frame(DiptychExchange, 2, 5)] * 2), is_batch=True)
        assert reply.is_batch
        if replies is None:
            assert reply.header == {"error": "bad_header"}
        else:
            assert reply.header == {"replies": replies}

    @pytest.mark.parametrize("is_batch", [False, True])
    @pytest.mark.parametrize("modelled", [-1, "x", True, 2.5])
    def test_header_with_a_malformed_modelled_size(self, modelled, is_batch):
        """A modelled byte count that is not a non-negative integer would
        raise in the ledger and close the peer link: it is answered
        ``bad_header`` before anything is charged."""
        worker = _worker_with_node_zero_gossiping()
        frame = _diptych_frame(DiptychExchange, 2, 5)
        header = {"op": "diptych-exchange", "sender": 1, "modelled": modelled}
        if is_batch:
            header["recipients"], frame = [0], batch_frames([frame])
        else:
            header["recipient"] = 0
        reply = _peer_record(worker, header, frame, is_batch=is_batch)
        assert (reply.header, reply.is_batch) == ({"error": "bad_header"}, is_batch)
        assert worker.transport.ledger.total == TrafficStats()

    @pytest.mark.parametrize("count, length", [(3, 5), (2, 3), (2, 5)])
    def test_initiator_treats_a_wrong_shape_reply_as_a_lost_exchange(
            self, count, length):
        from repro.net.live import LiveParticipantDriver

        worker = _worker_with_node_zero_gossiping()
        participant = worker.participants[0]

        class ScriptedTransport:
            async def control_request(self, node_id, header):
                return {"status": "merge"}

            async def frame_request(self, sender, recipient, kind, frame,
                                    modelled_bytes=None):
                return {}, _diptych_frame(DiptychReply, count, length)

        diptych = participant.diptych
        before = list(diptych.data_estimates), list(diptych.noise_estimates)
        driver = LiveParticipantDriver(
            worker.setup, worker.participants, ScriptedTransport()
        )
        assert asyncio.run(driver.step(0)) == {"done": False, "iteration": 1}
        assert (diptych.data_estimates, diptych.noise_estimates) == before
        assert participant.gossip_cycles_done == 1

    @pytest.mark.parametrize("header", [
        {"op": "probe", "recipient": 0},
        {"op": "probe"},
        {"op": "probe", "recipient": "0", "iteration": 1},
        {"op": "probe", "recipient": False, "iteration": 1},
    ])
    def test_probe_with_missing_or_non_integer_fields(self, header):
        assert _worker_hosting_node_zero().transport.answer_probe(header) \
            == {"status": "error", "error": "bad_probe"}
