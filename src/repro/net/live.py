"""The live runner: Chiaroscuro over real TCP sockets between OS processes.

``repro run --live --processes N`` executes the protocol with *N* worker
processes, each hosting a shard of the participants (round-robin by node
id).  Every protocol exchange — diptych gossip, committee decryption —
moves the exact serialized wire frames of :mod:`repro.gossip.messages` over
asyncio TCP connections between the workers; membership and the threshold
public key are bootstrapped by actually driving the
``MembershipAnnouncement``/``KeyAnnouncement`` frames through
:class:`~repro.net.bootstrap.MembershipDirectory`.

Architecture::

    coordinator (LiveRunner, parent process)
      - derives the RunSetup (data, backend+keys, seeds)
      - forks N workers, serves the control channel, and fails the run as
        soon as a worker process or its link dies
      - stepping="sequential": one run-sequential request per worker; the
        workers step among themselves and each reply carries the worker's
        collected state
      - stepping="concurrent": enforces iteration epochs only — one
        run-cycle request per worker per epoch, every worker advancing its
        whole shard with many exchanges in flight
      - collects each node's outcome_of/history_of + traffic, assembles the
        result

    worker i (LiveWorker, OS process)
      - hosts participants {id : id % N == i} and drives their protocol
        step: :meth:`ChiaroscuroParticipant.step` is a generator that
        decides and yields what needs another device (``Probe``,
        ``Exchange``, ``CommitteeRound``); :class:`LiveParticipantDriver`
        answers each over the sockets, as ``next_cycle`` does in memory
      - announces them with MembershipAnnouncement frames, verifies the
        KeyAnnouncement against its (fork-inherited) key material
      - stepping="sequential": replays the cycle engine's scheduler stream
        itself (:class:`_SequentialSchedule`) and steps its runs of
        consecutive owned nodes while it holds the one stepping token,
        which travels worker to worker over the peer links
      - serves every gossip/decrypt frame for a hosted node on one path,
        :meth:`WorkerTransport.serve`, whether a local node sent it or it
        arrived in a peer worker's record (whose JSON header is checked
        once, on arrival); a committee round's request travels as one
        socket record per destination worker (a ``BatchEnvelope`` of the
        helpers' frames), charged to the ledger per helper
      - accounts traffic for its own nodes only (the authoritative
        byte-count site of :mod:`repro.net.transport`)

Determinism: with the default ``runtime.stepping="sequential"``, only the
token holder steps, in the replayed scheduler order — the exact global
order the CycleEngine would use, without a coordinator round-trip per
step — peer sampling uses the same per-node streams, and homomorphic
averaging is commutative in the plaintexts, so a live run produces *the
same clustering results* as ``mode="cycle"`` with the same seed —
bit-identical for every backend, since threshold decryption is exact
integer arithmetic.  With
``runtime.stepping="concurrent"`` that one-step-at-a-time order is dropped
for throughput:
workers drive their shards with up to :data:`CONCURRENT_STEPS` node steps
in flight each, the interleaving becomes timing-dependent, and the run is
no longer bit-reproducible — the divergence from the deterministic
reference is measured and reported as the ``envelope`` field of the cost
summary (see :mod:`repro.analysis.envelope`).
The caveats (see README "Live runner"): the two sides of a gossip exchange
hold independently re-randomized ciphertexts rather than one shared
object (identical plaintexts), control-plane records (probes, stepping,
bootstrap) are runner overhead excluded from the protocol byte
accounting, and the fault models (churn, loss, corruption) are not
supported yet.  Per-iteration execution-log cost deltas cover
messages/bytes *and* the crypto-operation counters: each worker meters
its process-global counter around every unit of protocol work
(:class:`_CryptoMeter`), so live runs have the same per-iteration cost
records as cycle runs.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import sys
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Sequence

import numpy as np

from ..config import ChiaroscuroConfig
from ..core.collaborative import (
    build_decrypt_request,
    decode_decrypt_response,
    finalize_decryption,
    serve_decrypt_request,
    share_holder_ids,
)
from ..core.execution_log import ExecutionLog
from ..core.participant import (
    ChiaroscuroParticipant,
    CommitteeRound,
    Effect,
    Phase,
    Probe,
    peer_sampling_stream,
)
from ..analysis.envelope import nondeterminism_envelope
from ..core.runner import (
    NodeHistory,
    ParticipantOutcome,
    RunSetup,
    assemble_result,
    build_run_setup,
    history_of,
    iteration_record,
    outcome_of,
    plan_max_cycles,
    run_chiaroscuro,
    run_log_metadata,
)
from ..exceptions import CryptoError, ProtocolError, ThresholdError, WireFormatError
from ..gossip.encrypted_sum import EncryptedEstimate, estimate_payload_bytes
from ..gossip.messages import (
    MAX_BATCH_FRAMES,
    BatchEnvelope,
    DecryptRequest,
    DiptychExchange,
    DiptychReply,
    batch_frames,
    deserialize,
)
from ..simulation.network import Message, Network, TrafficStats
from ..simulation.rng import RngRegistry
from ..timeseries import TimeSeriesCollection
from .bootstrap import MembershipDirectory, key_announcement_for, verify_key_announcement
from .envelope import (
    DEFAULT_WRITE_BUFFER_LIMIT,
    KIND_CONTROL,
    KIND_FRAME,
    Envelope,
    decode_envelope,
    encode_envelope,
    read_length_prefix,
)


#: Per-worker limit on node steps in flight under ``stepping="concurrent"``.
CONCURRENT_STEPS = 8

#: Seconds a worker waits for a socket connection (to the coordinator at
#: bootstrap, to a peer worker on first use); never beyond ``run_timeout``.
CONNECT_TIMEOUT = 10.0


# ---------------------------------------------------------------------- sockets
@dataclass
class SocketStats:
    """Runner-level socket I/O of one worker (envelopes included).

    This is deliberately separate from the protocol's
    :class:`~repro.simulation.network.TrafficStats`: protocol accounting
    charges frame bytes only, while these counters measure everything that
    actually crossed the sockets (envelopes, control records, bootstrap).

    ``drain_waits`` counts the writes that found the transport buffer above
    its high-water mark and had to wait for the kernel to drain it — the
    observable signature of backpressure engaging against a slow reader.

    ``batched_records`` / ``batched_frames`` count the outgoing batched
    socket records of the committee fan-out and the protocol frames they
    carried: their ratio is the record amortisation of sending one record
    per destination worker instead of one per helper.
    """

    bytes_sent: int = 0
    bytes_received: int = 0
    records_sent: int = 0
    records_received: int = 0
    drain_waits: int = 0
    batched_records: int = 0
    batched_frames: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "records_sent": self.records_sent,
            "records_received": self.records_received,
            "drain_waits": self.drain_waits,
            "batched_records": self.batched_records,
            "batched_frames": self.batched_frames,
        }


class FrameConnection:
    """One TCP connection moving length-prefixed envelope records.

    Writes apply backpressure instead of buffering without bound: the
    transport's high-water mark is set to *write_buffer_limit* and every
    write drains after handing its record to the transport, so a writer
    racing ahead of a slow reader parks in ``drain()`` once the buffer
    crosses the mark (counted in ``SocketStats.drain_waits``).  Only the
    ``write()`` call itself is serialized under the lock — records stay
    whole and ordered — while the drain happens outside it, so concurrent
    senders pipeline their records back-to-back onto one connection
    instead of taking turns at full round-trips.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 stats: SocketStats,
                 write_buffer_limit: int | None = DEFAULT_WRITE_BUFFER_LIMIT) -> None:
        self._reader = reader
        self._writer = writer
        self._stats = stats
        self._write_lock = asyncio.Lock()
        self._high_water = write_buffer_limit
        if write_buffer_limit is not None:
            writer.transport.set_write_buffer_limits(high=write_buffer_limit)
        # Disable Nagle explicitly: asyncio only does it when sock.proto is
        # IPPROTO_TCP, which connections accepted from a manually created
        # listener (proto 0) fail — and a Nagle'd reply stream interacts
        # with delayed ACKs into ~40ms stalls whenever two small replies go
        # out back to back, which is the normal case under concurrent
        # stepping (sequential ping-pong never trips it).
        sock = writer.get_extra_info("socket")
        if sock is not None and sock.family in (socket.AF_INET, socket.AF_INET6):
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP or closed socket
                pass

    async def write(self, envelope: Envelope) -> None:
        record = encode_envelope(envelope)
        async with self._write_lock:
            self._writer.write(record)
            self._stats.bytes_sent += len(record)
            self._stats.records_sent += 1
        if (self._high_water is not None
                and self._writer.transport.get_write_buffer_size() > self._high_water):
            self._stats.drain_waits += 1
        await self._writer.drain()

    async def read(self) -> Envelope:
        prefix = await self._reader.readexactly(4)
        length = read_length_prefix(prefix)
        body = await self._reader.readexactly(length)
        self._stats.bytes_received += 4 + len(body)
        self._stats.records_received += 1
        return decode_envelope(body)

    def close(self) -> None:
        try:
            self._writer.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class RequestChannel:
    """Request/reply multiplexing over one :class:`FrameConnection`.

    Outgoing requests get a fresh correlation id and an awaitable future;
    incoming records are dispatched by :meth:`pump`: replies resolve their
    future, everything else goes to *handler* (which may return a reply
    envelope to send back, or ``None`` for notifications); the reply gets
    the request's correlation id and the reply flag here.
    """

    def __init__(
        self,
        connection: FrameConnection,
        handler: Callable[[Envelope], Awaitable[Envelope | None]] | None = None,
    ) -> None:
        self.connection = connection
        self._handler = handler
        self._pending: dict[int, asyncio.Future[Envelope]] = {}
        self._next_id = 1

    async def request(self, envelope: Envelope) -> Envelope:
        correlation_id = self._next_id
        self._next_id += 1
        envelope = replace(envelope, correlation_id=correlation_id, is_reply=False)
        future: asyncio.Future[Envelope] = asyncio.get_running_loop().create_future()
        self._pending[correlation_id] = future
        try:
            await self.connection.write(envelope)
            return await future
        finally:
            self._pending.pop(correlation_id, None)

    async def notify(self, envelope: Envelope) -> None:
        await self.connection.write(envelope)

    async def pump(self) -> None:
        """Read records until EOF, dispatching replies and requests.

        Whatever ends the loop — EOF, reset, a handler error — every
        in-flight request on this channel is failed immediately, so callers
        never hang on a dead connection.
        """
        error: BaseException | None = None
        try:
            while True:
                try:
                    envelope = await self.connection.read()
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                if envelope.is_reply:
                    future = self._pending.get(envelope.correlation_id)
                    if future is not None and not future.done():
                        future.set_result(envelope)
                    continue
                if self._handler is None:
                    raise ProtocolError(
                        f"unsolicited record {envelope.header!r} on a request-only link"
                    )
                reply = await self._handler(envelope)
                if reply is not None:
                    await self.connection.write(replace(
                        reply, correlation_id=envelope.correlation_id, is_reply=True))
        except BaseException as exc:
            error = exc
            raise
        finally:
            self.fail_pending(error or ProtocolError("connection closed"))

    def fail_pending(self, error: BaseException) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)


# ---------------------------------------------------------------------- transport
class WorkerTransport:
    """The asyncio TCP transport of one worker: delivery, service, accounting.

    The live counterpart of :class:`~repro.net.transport.LoopbackTransport`:
    requests carry one serialized wire frame to a participant (local or on
    a peer worker) and await the frame-carrying reply.  Every frame for a
    node this worker hosts — from one of its own nodes or out of a peer
    worker's record — is served by :meth:`serve`.  The authoritative
    accounting rule is the transport contract: ``bytes_sent`` of a node is
    charged here, exactly once, on the worker hosting that node — measured
    frame lengths, never envelope or control bytes.
    """

    def __init__(
        self,
        setup: RunSetup,
        participants: dict[int, ChiaroscuroParticipant],
        directory: MembershipDirectory,
        stats: SocketStats,
        connect_timeout: float,
    ) -> None:
        self.setup = setup
        self.participants = participants
        self.directory = directory
        self.socket_stats = stats
        self.connect_timeout = connect_timeout
        self.ledger = Network(n_nodes=setup.n_participants, drop_probability=0.0)
        self.iteration_traffic: dict[int, dict[str, float]] = {}
        self._peer_channels: dict[tuple[str, int], RequestChannel] = {}
        self._peer_tasks: list[asyncio.Task] = []
        self._dial_locks: dict[tuple[str, int], asyncio.Lock] = {}

    # ------------------------------------------------------------------ accounting
    def _account_send(self, sender: int, recipient: int, kind: str,
                      size_bytes: int, modelled: int | None) -> None:
        self.ledger.account_send(Message(
            sender=sender, recipient=recipient, kind=kind, payload=b"",
            size_bytes=size_bytes, modelled_bytes=modelled,
        ))
        # Per-iteration cost deltas: every send is charged to the iteration
        # its (locally hosted) sender is currently working on, mirroring the
        # cycle engine's per-iteration execution-log records.
        participant = self.participants.get(sender)
        if participant is not None and participant.iteration > 0:
            bucket = self.iteration_traffic.setdefault(
                participant.iteration, {"messages_sent": 0.0, "bytes_sent": 0.0}
            )
            bucket["messages_sent"] += 1.0
            bucket["bytes_sent"] += float(size_bytes)

    def _account_receive(self, sender: int, recipient: int, kind: str,
                         size_bytes: int, modelled: int | None) -> None:
        self.ledger.account_receive(Message(
            sender=sender, recipient=recipient, kind=kind, payload=b"",
            size_bytes=size_bytes, modelled_bytes=modelled,
        ))

    def _receive_reply(self, sender: int, recipient: int, kind: str,
                       reply_frame: bytes, modelled: int | None) -> None:
        if reply_frame:
            self._account_receive(recipient, sender, kind + "-reply",
                                  len(reply_frame), modelled)

    def stats_for(self, node_id: int) -> TrafficStats:
        return self.ledger.stats_for(node_id)

    # ------------------------------------------------------------------ links
    async def _channel_to(self, node_id: int) -> RequestChannel:
        """The (single, reused) request channel to the worker hosting *node_id*.

        One connection per worker pair, created on first use and shared by
        every local node thereafter — concurrent requests pipeline over it
        via their correlation ids.  The per-address dial lock keeps
        concurrent first users from racing to open duplicate connections.
        """
        address = self.directory.address_of(node_id)
        channel = self._peer_channels.get(address)
        if channel is not None:
            return channel
        lock = self._dial_locks.setdefault(address, asyncio.Lock())
        async with lock:
            channel = self._peer_channels.get(address)
            if channel is None:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(address[0], address[1]),
                    timeout=self.connect_timeout,
                )
                channel = RequestChannel(
                    FrameConnection(reader, writer, self.socket_stats)
                )
                self._peer_channels[address] = channel
                self._peer_tasks.append(asyncio.create_task(channel.pump()))
        return channel

    def close(self) -> None:
        for task in self._peer_tasks:
            task.cancel()
        for channel in self._peer_channels.values():
            channel.connection.close()

    # ------------------------------------------------------------------ service
    def answer_probe(self, header: dict[str, Any]) -> dict[str, Any]:
        """Answer a gossip probe, the one control operation: the live
        stand-in for the cycle engine's shared-memory reads — the hosted
        participant's own answer, its arrays as lists for the header."""
        if header.get("op") != "probe":
            raise ProtocolError(f"unknown control operation {header.get('op')!r}")
        recipient, iteration = header.get("recipient"), header.get("iteration")
        if not (_is_int(recipient) and isinstance(iteration, int)):
            return {"status": "error", "error": "bad_probe"}
        peer = self.participants.get(recipient)
        if peer is None:
            # Not this worker's node: the initiator skips the exchange.
            return {"status": "error", "error": "not_hosted"}
        return {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in peer.answer_probe(iteration).items()
        }

    def serve(self, op: str, sender: int, recipient: int, modelled_bytes: Any,
              frame: bytes) -> tuple[dict[str, Any], bytes]:
        """The recipient's half of a frame round-trip: receive, decode,
        answer the diptych exchange or decrypt request, and the sending side
        of the reply.  Never raises on what a peer sent.

        A frame for a node this worker does not host, or from a sender that
        is no node of the run, is answered ``not_hosted`` before the ledger
        sees it (the ledger raises on an id outside ``[0, N)``).  A frame
        that fails to decode, or decodes to something the recipient cannot
        use (wrong type, state, shape or packing layout), is answered with
        an ``error`` header once its receipt is charged.  The initiator
        treats either as a loss, mirroring the cycle-mode rule that
        corruption degrades into loss: raising instead would escape
        ``RequestChannel.pump``, close the peer link and fail every request
        in flight on it.
        """
        peer = self.participants.get(recipient)
        if peer is None or not 0 <= sender < self.ledger.n_nodes:
            return {"error": "not_hosted"}, b""
        self._account_receive(sender, recipient, op, len(frame), modelled_bytes)
        try:
            message = deserialize(frame)
        except WireFormatError as exc:
            return {"error": "wire_format", "detail": str(exc)}, b""
        if op == "diptych-exchange":
            reply_header, reply_frame = self._exchange(peer, message)
        elif op == "decrypt-request":
            reply_header, reply_frame = self._decrypt(recipient, message)
        else:
            return {"error": "unknown_op", "detail": op}, b""
        if reply_frame:
            self._account_send(recipient, sender, op + "-reply",
                               len(reply_frame), modelled_bytes)
        return reply_header, reply_frame

    def _exchange(self, peer: ChiaroscuroParticipant,
                  message: Any) -> tuple[dict[str, Any], bytes]:
        if not isinstance(message, DiptychExchange):
            return {"error": "unexpected_type", "detail": type(message).__name__}, b""
        if peer.phase is not Phase.GOSSIP or peer.diptych is None \
                or peer.iteration != message.iteration:
            return {"error": "state"}, b""
        if not peer.diptych.fits(message.data_estimates, message.noise_estimates):
            return {"error": "shape"}, b""
        # The reply carries the peer's *pre-merge* re-randomized estimates
        # (the view that travels), exactly as the cycle-mode responder's
        # reply frame does; then the peer adopts the average of its stored
        # estimates and the received view.  Both sides end up holding the
        # same plaintext average.
        reply = peer.exchange_frame(DiptychReply)
        peer.diptych.absorb(
            self.setup.backend, message.data_estimates, message.noise_estimates
        )
        return {}, reply

    def _decrypt(self, helper_id: int, message: Any) -> tuple[dict[str, Any], bytes]:
        if not isinstance(message, DecryptRequest):
            return {"error": "unexpected_type", "detail": type(message).__name__}, b""
        try:
            return {}, serve_decrypt_request(self.setup.backend, helper_id, message)
        except ThresholdError:
            return {"error": "no_share"}, b""
        except CryptoError:
            # Well-formed frame, ciphertexts this backend cannot decrypt
            # (e.g. another packing layout).
            return {"error": "bad_request"}, b""

    # ------------------------------------------------------------------ requests
    async def control_request(self, node_id: int, header: dict[str, Any]) -> dict[str, Any]:
        """Unaccounted control round-trip to the worker hosting *node_id*.

        Control records (gossip state probes) are runner metadata — the
        cycle engine reads peer state from shared memory at zero cost, so
        charging them would break byte parity between the two modes.  They
        do show up in the socket statistics.
        """
        if node_id in self.participants:
            return self.answer_probe(header)
        channel = await self._channel_to(node_id)
        reply = await channel.request(Envelope(kind=KIND_CONTROL, header=header))
        return reply.header

    async def control_notify(self, node_id: int, header: dict[str, Any]) -> None:
        """Unaccounted one-way control record to the (remote) worker
        hosting *node_id*: the sequential stepping token and its stop."""
        channel = await self._channel_to(node_id)
        await channel.notify(Envelope(kind=KIND_CONTROL, header=header))

    async def frame_request(
        self, sender: int, recipient: int, kind: str, frame: bytes,
        modelled_bytes: int | None = None,
    ) -> tuple[dict[str, Any], bytes]:
        """One accounted frame round-trip: request frame out, reply frame back.

        Mirrors the two :meth:`LoopbackTransport.transmit` calls of a
        cycle-mode exchange: the request is charged to *sender* here, received by
        *recipient* on its hosting worker; the reply is charged to
        *recipient* there and received by *sender* here.
        """
        self._account_send(sender, recipient, kind, len(frame), modelled_bytes)
        if recipient in self.participants:
            reply_header, reply_frame = self.serve(kind, sender, recipient,
                                                   modelled_bytes, frame)
        else:
            channel = await self._channel_to(recipient)
            reply = await channel.request(Envelope(
                kind=KIND_FRAME, payload=frame,
                header={"op": kind, "sender": sender, "recipient": recipient,
                        "modelled": modelled_bytes},
            ))
            reply_header, reply_frame = reply.header, reply.payload
        self._receive_reply(sender, recipient, kind, reply_frame, modelled_bytes)
        return reply_header, reply_frame

    async def batched_frame_requests(
        self, sender: int, recipients: Sequence[int], kind: str, frame: bytes,
        modelled_bytes: int | None = None,
    ) -> list[tuple[dict[str, Any], bytes]]:
        """The same frame to many recipients, one socket record per worker.

        Semantically identical to calling :meth:`frame_request` once per
        recipient — same protocol byte accounting, same per-recipient
        replies, in the same order — but remote recipients hosted on the
        same worker share one :class:`~repro.gossip.messages.BatchEnvelope`
        record instead of one record each.  Only the on-socket records
        change; the ledger charges every per-recipient frame exactly as
        :meth:`frame_request` does.
        """
        results: dict[int, tuple[dict[str, Any], bytes]] = {}
        remote_groups: dict[tuple[str, int], list[int]] = {}
        for recipient in recipients:
            self._account_send(sender, recipient, kind, len(frame), modelled_bytes)
            if recipient in self.participants:
                results[recipient] = self.serve(kind, sender, recipient,
                                                modelled_bytes, frame)
                self._receive_reply(sender, recipient, kind, results[recipient][1],
                                    modelled_bytes)
            else:
                address = self.directory.address_of(recipient)
                remote_groups.setdefault(address, []).append(recipient)
        # Groups go out sequentially so the ledger and meter see one
        # deterministic order.
        for group in remote_groups.values():
            channel = await self._channel_to(group[0])
            self.socket_stats.batched_records += 1
            self.socket_stats.batched_frames += len(group)
            reply = await channel.request(Envelope(
                kind=KIND_FRAME,
                header={"op": kind, "sender": sender, "recipients": group,
                        "modelled": modelled_bytes},
                payload=batch_frames([frame] * len(group)),
                is_batch=True,
            ))
            reply_headers = reply.header.get("replies")
            reply_frames: Sequence[bytes] = ()
            if reply.payload:
                try:
                    decoded = deserialize(reply.payload)
                except WireFormatError:
                    decoded = None
                if isinstance(decoded, BatchEnvelope):
                    reply_frames = decoded.frames
            if (not isinstance(reply_headers, list)
                    or len(reply_headers) != len(group)
                    or len(reply_frames) != len(group)
                    or not all(isinstance(header, dict) for header in reply_headers)):
                # A malformed batched reply degrades into per-recipient
                # losses, the standard corruption-to-loss rule.
                error = {"error": reply.header.get("error", "batch_mismatch")}
                for recipient in group:
                    results[recipient] = (dict(error), b"")
                continue
            for recipient, reply_header, reply_frame in zip(
                group, reply_headers, reply_frames
            ):
                self._receive_reply(sender, recipient, kind, reply_frame, modelled_bytes)
                results[recipient] = (dict(reply_header), bytes(reply_frame))
        return [results[recipient] for recipient in recipients]


class _CryptoMeter:
    """Charges a worker's crypto-counter deltas to protocol iterations.

    The backend's operation counter is process-global, so per-iteration
    attribution works like the cycle observer's snapshot diffing: after
    every unit of protocol work on this worker — a local node's step, a
    peer frame served — the counter delta since the last snapshot is
    charged to the iteration of the node the work was done for, into the
    same per-iteration buckets as the message/byte accounting.  Deltas
    outside any iteration (bootstrap) advance the snapshot but are
    dropped, mirroring the traffic rule.
    """

    def __init__(self, counter: Any,
                 buckets: dict[int, dict[str, float]]) -> None:
        self._counter = counter
        self._buckets = buckets
        self._last = counter.as_dict()

    def charge(self, iteration: int) -> None:
        now = self._counter.as_dict()
        delta = {key: value - self._last.get(key, 0)
                 for key, value in now.items()
                 if value != self._last.get(key, 0)}
        self._last = now
        if not delta or iteration <= 0:
            return
        bucket = self._buckets.setdefault(
            iteration, {"messages_sent": 0.0, "bytes_sent": 0.0}
        )
        for key, value in delta.items():
            bucket[key] = bucket.get(key, 0.0) + float(value)


def _is_int(value: Any) -> bool:
    """An ``int`` that is no ``bool``: JSON ``true`` is a Python ``int`` too,
    and would name node 1."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------- driver
class LiveParticipantDriver:
    """The socket driver of :meth:`ChiaroscuroParticipant.step`.

    The step itself — every decision, in the same order, from the same
    random streams as in cycle mode — is the participant's generator; this
    class only answers what it yields, over the worker's transport.
    """

    def __init__(self, setup: RunSetup,
                 participants: dict[int, ChiaroscuroParticipant],
                 transport: WorkerTransport) -> None:
        self.setup = setup
        self.participants = participants
        self.transport = transport
        self.registry = RngRegistry(setup.config.simulation.seed)
        self._online = range(setup.n_participants)

    async def step(self, node_id: int) -> dict[str, Any]:
        participant = self.participants[node_id]
        steps = participant.step(
            self.registry.stream(peer_sampling_stream(node_id)),
            lambda: self._online,
            self.setup.n_participants,
        )
        answer = None
        try:
            while True:
                answer = await self._perform(participant, steps.send(answer))
        except StopIteration:
            pass
        return {"done": participant.is_done, "iteration": participant.iteration}

    async def _perform(self, participant: ChiaroscuroParticipant,
                       effect: Effect) -> Any:
        if isinstance(effect, Probe):
            return await self.transport.control_request(effect.peer, {
                "op": "probe", "recipient": effect.peer,
                "sender": participant.node_id, "iteration": effect.iteration,
            })
        if isinstance(effect, CommitteeRound):
            return await self._committee_round(participant.node_id, effect.estimates)
        header, reply_frame = await self.transport.frame_request(
            participant.node_id, effect.peer, "diptych-exchange", effect.frame,
            modelled_bytes=effect.modelled_bytes,
        )
        if header.get("error") or not reply_frame:
            return None
        try:
            reply = deserialize(reply_frame)
        except WireFormatError:
            return None
        # The responder absorbed its half on its own worker; a reply of the
        # wrong type, shape or packing layout is a lost exchange on this side.
        if isinstance(reply, DiptychReply) \
                and participant.diptych.fits(reply.data_estimates, reply.noise_estimates):
            participant.diptych.absorb(
                self.setup.backend, reply.data_estimates, reply.noise_estimates
            )
        return None

    async def _committee_round(
        self, requester_id: int, estimates: Sequence[EncryptedEstimate]
    ) -> list[np.ndarray] | None:
        """One committee round over the transport; ``None`` when fewer than
        ``threshold`` usable partial decryptions came back."""
        backend = self.setup.backend
        helpers = tuple(share_holder_ids(backend.n_shares)[: backend.threshold])
        modelled = sum(estimate_payload_bytes(backend, estimate) for estimate in estimates)
        request_frame = build_decrypt_request(backend, estimates)
        # Every helper receives the same request frame, so helpers hosted
        # on the same worker share one batched socket record.
        responses = await self.transport.batched_frame_requests(
            requester_id, helpers, "decrypt-request", request_frame,
            modelled_bytes=modelled,
        )
        per_helper = [
            None if header.get("error") or not response_frame
            else decode_decrypt_response(response_frame, len(estimates))
            for header, response_frame in responses
        ]
        try:
            return finalize_decryption(backend, per_helper, estimates)
        except ThresholdError:
            return None


class _SequentialSchedule:
    """The cycle engine's stepping order, as every worker replays it.

    Cycle *c* steps the *c*-th permutation of the ``engine.scheduler``
    stream, cut here into *runs*: maximal stretches of consecutive nodes
    hosted by one worker (node ``id`` lives on worker ``id % n_workers``).
    The stream is the run's seed, so every worker derives the same runs and
    knows, after stepping one, which worker steps the next.
    """

    def __init__(self, seed: int, n_nodes: int, n_workers: int) -> None:
        self._scheduler = RngRegistry(seed).stream("engine.scheduler")
        self._n_nodes = n_nodes
        self.n_workers = n_workers
        self._cycles: list[list[list[int]]] = []

    def runs(self, cycle: int) -> list[list[int]]:
        while len(self._cycles) <= cycle:
            runs: list[list[int]] = []
            for node in self._scheduler.permutation(self._n_nodes).tolist():
                if runs and runs[-1][0] % self.n_workers == node % self.n_workers:
                    runs[-1].append(node)
                else:
                    runs.append([node])
            self._cycles.append(runs)
        return self._cycles[cycle]

    def owner(self, cycle: int, run: int) -> int:
        return self.runs(cycle)[run][0] % self.n_workers


# ---------------------------------------------------------------------- worker
def _node_state(participant: ChiaroscuroParticipant,
                stats: TrafficStats) -> dict[str, Any]:
    """One node's :func:`~repro.core.runner.outcome_of` and
    :func:`~repro.core.runner.history_of`, arrays as lists for the JSON
    header, and its traffic."""
    outcome, history = outcome_of(participant), history_of(participant)
    return {
        "outcome": {**vars(outcome), "profiles": outcome.profiles.tolist()},
        "history": {
            **vars(history),
            "perturbed_means": [means.tolist() for means in history.perturbed_means],
        },
        "traffic": stats.as_dict(),
    }


class LiveWorker:
    """One worker process: hosts the participants ``{id : id % N == index}``,
    serves its peers' and the coordinator's records, and steps its nodes."""

    def __init__(self, index: int, setup: RunSetup, local_ids: list[int]) -> None:
        self.index = index
        self.setup = setup
        self.local_ids = local_ids
        self.stats = SocketStats()
        self.participants = {
            node_id: setup.make_participant(node_id) for node_id in local_ids
        }
        self.directory = MembershipDirectory()
        self.transport = WorkerTransport(
            setup, self.participants, self.directory, self.stats,
            connect_timeout=min(CONNECT_TIMEOUT, setup.config.runtime.run_timeout),
        )
        self.driver = LiveParticipantDriver(setup, self.participants, self.transport)
        self.meter = _CryptoMeter(setup.backend.counter, self.transport.iteration_traffic)
        self.bootstrapped = asyncio.Event()
        self.shutdown = asyncio.Event()
        # The sequential stepping token and its stop, as peer workers pass them;
        # one can arrive before this worker's own run-sequential request does.
        self.tokens: asyncio.Queue[dict[str, Any]] = asyncio.Queue()

    async def run(self, coordinator_address: tuple[str, int]) -> None:
        """Serve peers, join the coordinator, announce, and serve until shut down."""
        runtime = self.setup.config.runtime
        server_socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server_socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        port = runtime.base_port + 1 + self.index if runtime.base_port else 0
        server_socket.bind((runtime.host, port))
        host, port = server_socket.getsockname()[:2]
        server = await asyncio.start_server(self._serve_peer, sock=server_socket)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(*coordinator_address),
            timeout=self.transport.connect_timeout,
        )
        coordinator = RequestChannel(
            FrameConnection(reader, writer, self.stats), self.handle_coordinator_record
        )
        pump_task = asyncio.create_task(coordinator.pump())
        await coordinator.notify(Envelope(
            kind=KIND_CONTROL,
            header={"op": "hello", "worker": self.index,
                    "address": [host, port], "nodes": self.local_ids},
        ))
        # Drive the bootstrap announcements: one MembershipAnnouncement frame
        # per hosted participant, the address riding in the envelope header.
        for node_id in self.local_ids:
            frame = self.directory.announce(
                node_id, online=True, cycle=0,
                address=(host, port),
            )
            await coordinator.notify(Envelope(
                kind=KIND_FRAME,
                header={"op": "announce", "address": [host, port]},
                payload=frame,
            ))
        shutdown_task = asyncio.create_task(self.shutdown.wait())
        try:
            finished, _ = await asyncio.wait(
                {shutdown_task, pump_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if pump_task in finished and pump_task.exception() is not None:
                raise pump_task.exception()
        finally:
            shutdown_task.cancel()
            self.transport.close()
            pump_task.cancel()
            server.close()
            coordinator.connection.close()

    async def _serve_peer(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        channel = RequestChannel(
            FrameConnection(reader, writer, self.stats), self.handle_peer_record
        )
        try:
            await channel.pump()
        except asyncio.CancelledError:
            # Normal teardown: the worker's loop shuts down while this
            # connection idles in read(); swallowing the cancellation here
            # keeps asyncio's stream callback from logging a spurious
            # traceback for every open peer link.
            pass
        finally:
            channel.connection.close()

    async def handle_peer_record(self, envelope: Envelope) -> Envelope | None:
        """A peer worker's record: the stepping token or its stop, a gossip
        probe, or protocol frames — one, or a committee round's batch —
        each served by :meth:`WorkerTransport.serve`.  The header is the
        peer's JSON, checked here, once."""
        header = envelope.header
        if envelope.kind != KIND_FRAME:
            if header.get("op") in ("token", "stop"):
                self.tokens.put_nowait(header)
                return None
            return Envelope(kind=KIND_CONTROL, header=self.transport.answer_probe(header))
        sender, modelled = header.get("sender"), header.get("modelled")
        recipients = header.get("recipients") if envelope.is_batch \
            else [header.get("recipient")]
        if not isinstance(recipients, list) \
                or not all(_is_int(node_id) for node_id in (sender, *recipients)) \
                or not (modelled is None or _is_int(modelled) and modelled >= 0):
            return Envelope(kind=KIND_FRAME, header={"error": "bad_header"},
                            is_batch=envelope.is_batch)
        frames: Sequence[bytes] = [envelope.payload]
        if envelope.is_batch:
            try:
                batch = deserialize(envelope.payload)
            except WireFormatError as exc:
                return Envelope(kind=KIND_FRAME, is_batch=True,
                                header={"error": "wire_format", "detail": str(exc)})
            frames = batch.frames if isinstance(batch, BatchEnvelope) else ()
            if len(frames) != len(recipients):
                return Envelope(kind=KIND_FRAME, header={"error": "batch_mismatch"},
                                is_batch=True)
        op = str(header.get("op", ""))
        replies = []
        for recipient, frame in zip(recipients, frames):
            replies.append(self.transport.serve(op, sender, recipient, modelled, frame))
            # Crypto work serving a peer's frame (decrypt shares, averaging)
            # is charged to the local recipient's current iteration.
            if recipient in self.participants:
                self.meter.charge(self.participants[recipient].iteration)
        if not envelope.is_batch:
            ((reply_header, reply_frame),) = replies
            return Envelope(kind=KIND_FRAME, header=reply_header, payload=reply_frame)
        return Envelope(
            kind=KIND_FRAME, is_batch=True,
            header={"replies": [reply_header for reply_header, _ in replies]},
            payload=batch_frames([reply_frame for _, reply_frame in replies]),
        )

    async def handle_coordinator_record(self, envelope: Envelope) -> Envelope | None:
        header = envelope.header
        op = header.get("op")
        if op in ("run-sequential", "run-cycle") and not self.bootstrapped.is_set():
            raise ProtocolError(f"{op} before bootstrap completed")
        if op in ("announce", "bootstrap"):
            # The full announcement log (late-joiner catch-up included) and
            # the key announcement, in batched records: "announce"
            # notifications while the log exceeds one batch, then the
            # "bootstrap" request, whose batch ends with the key frame.
            batch = deserialize(envelope.payload)
            frames = list(batch.frames) if isinstance(batch, BatchEnvelope) else []
            if len(frames) != len(header["members"]) + (op == "bootstrap"):
                raise ProtocolError(f"malformed {op} record")
            self.directory.catch_up(zip(frames, header["members"]))
            if op == "announce":
                return None
            verify_key_announcement(frames[-1], self.setup.backend)
            expected = int(header["n_nodes"])
            if len(self.directory) != expected:
                raise ProtocolError(
                    f"membership bootstrap incomplete: {len(self.directory)} of "
                    f"{expected} nodes announced"
                )
            self.bootstrapped.set()
            return Envelope(kind=KIND_CONTROL, header={"ready": True})
        if op == "run-sequential":
            cycles_run = await self._step_sequentially(int(header["max_cycles"]),
                                                       int(header["workers"]))
            return Envelope(kind=KIND_CONTROL,
                            header={**self._collect(), "cycles_run": cycles_run})
        if op == "run-cycle":
            return Envelope(kind=KIND_CONTROL, header=await self._step_concurrently())
        if op == "collect":
            return Envelope(kind=KIND_CONTROL, header=self._collect())
        if op == "shutdown":
            # A notification, not a request: the worker tears down on its
            # own schedule, so no reply can race the connection close.
            self.shutdown.set()
            return None
        raise ProtocolError(f"unknown coordinator operation {op!r}")

    async def _step(self, node_id: int) -> bool:
        """Step one hosted node; whether it is done."""
        stepped = await self.driver.step(node_id)
        # Everything the step executed locally (encrypt, re-randomize,
        # combine) is charged to the stepped node's current iteration.
        self.meter.charge(self.participants[node_id].iteration)
        return bool(stepped["done"])

    async def _step_sequentially(self, max_cycles: int, n_workers: int) -> int:
        """This worker's share of sequential stepping; the cycles run.

        The token names the next run to step and carries the count of the
        cycle's nodes stepped so far that are not done.  Its holder steps
        the run and passes the token on to the next run's owner; the holder
        that ends the last cycle — every node done, or ``max_cycles``
        reached — sends every other worker ``stop`` instead.
        """
        if max_cycles <= 0:
            return 0
        schedule = _SequentialSchedule(self.setup.config.simulation.seed,
                                       self.setup.n_participants, n_workers)
        cycle, run, pending = 0, 0, 0
        holding = schedule.owner(0, 0) == self.index
        while True:
            if not holding:
                token = await self.tokens.get()
                if token["op"] == "stop":
                    return int(token["cycles_run"])
                cycle, run, pending = (int(token["cycle"]), int(token["run"]),
                                       int(token["pending"]))
                if schedule.owner(cycle, run) != self.index:
                    raise ProtocolError(
                        f"worker {self.index} got the token for run {run} "
                        f"of cycle {cycle}, which it does not host"
                    )
            runs = schedule.runs(cycle)
            for node_id in runs[run]:
                pending += not await self._step(node_id)
            run += 1
            if run == len(runs):
                if pending == 0 or cycle + 1 == max_cycles:
                    for worker in range(n_workers):
                        if worker != self.index:
                            # Node ``worker`` is hosted by worker ``worker``.
                            await self.transport.control_notify(
                                worker, {"op": "stop", "cycles_run": cycle + 1})
                    return cycle + 1
                cycle, run, pending = cycle + 1, 0, 0
            holder = schedule.owner(cycle, run)
            holding = holder == self.index
            if not holding:
                await self.transport.control_notify(holder, {
                    "op": "token", "cycle": cycle, "run": run, "pending": pending,
                })

    async def _step_concurrently(self) -> dict[str, int]:
        """One run-cycle epoch: every not-yet-done local node steps through
        one cycle as its own asyncio task, many exchanges in flight at once,
        bounded by CONCURRENT_STEPS.  The crypto meter's per-iteration
        attribution is approximate under this interleaving (totals stay
        exact); the accounting contract's byte charging is unaffected
        because every send is still charged synchronously at its sending
        node."""
        semaphore = asyncio.Semaphore(CONCURRENT_STEPS)
        outcomes = await asyncio.gather(*(
            self._step_bounded(node_id, semaphore) for node_id in self.local_ids
            if not self.participants[node_id].is_done
        ))
        return {"pending": sum(1 for done in outcomes if not done),
                "stepped": len(outcomes)}

    async def _step_bounded(self, node_id: int, semaphore: asyncio.Semaphore) -> bool:
        async with semaphore:
            return await self._step(node_id)

    def _collect(self) -> dict[str, Any]:
        return {
            "worker": self.index,
            "nodes": [
                _node_state(self.participants[node_id],
                            self.transport.stats_for(node_id))
                for node_id in self.local_ids
            ],
            "crypto": self.setup.backend.counter.as_dict(),
            "socket": self.stats.as_dict(),
            "iteration_traffic": {
                str(iteration): dict(bucket)
                for iteration, bucket in self.transport.iteration_traffic.items()
            },
        }


def _worker_main(worker_index: int, setup: RunSetup, local_ids: list[int],
                 coordinator_address: tuple[str, int]) -> None:
    try:
        asyncio.run(LiveWorker(worker_index, setup, local_ids).run(coordinator_address))
    except Exception:  # pragma: no cover - the coordinator sees the process exit
        traceback.print_exc(file=sys.stderr)
        os._exit(1)


# ---------------------------------------------------------------------- coordinator
class LiveRunner:
    """Coordinates one live run: spawn, bootstrap, step, collect."""

    def __init__(self, setup: RunSetup, collection_name: str) -> None:
        self.setup = setup
        self.collection_name = collection_name
        config = setup.config
        self.n_processes = min(config.runtime.processes, setup.n_participants)
        self.shards = [
            [node_id for node_id in range(setup.n_participants)
             if node_id % self.n_processes == worker]
            for worker in range(self.n_processes)
        ]

    # ------------------------------------------------------------------ lifecycle
    def run(self) -> "LiveRunOutcome":
        try:
            context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ProtocolError(
                "the live runner needs fork-based process spawning (the worker "
                "processes inherit the threshold key material from the "
                "coordinator); this platform does not provide it"
            ) from exc
        runtime = self.setup.config.runtime
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((runtime.host, runtime.base_port))
        listener.listen(self.n_processes)
        address = listener.getsockname()[:2]
        processes = [
            context.Process(
                target=_worker_main,
                args=(worker, self.setup, self.shards[worker], address),
                daemon=True,
            )
            for worker in range(self.n_processes)
        ]
        for process in processes:
            process.start()
        try:
            return asyncio.run(asyncio.wait_for(
                self._coordinate(listener, processes), runtime.run_timeout
            ))
        except asyncio.TimeoutError as exc:
            raise ProtocolError(
                f"live run exceeded runtime.run_timeout={runtime.run_timeout}s"
            ) from exc
        finally:
            listener.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=5.0)

    async def _coordinate(self, listener: socket.socket,
                          processes: Sequence[Any]) -> "LiveRunOutcome":
        loop = asyncio.get_running_loop()
        self._stats = SocketStats()
        self._directory = MembershipDirectory()
        self._links: list[RequestChannel] = []
        self._pump_tasks: list[asyncio.Task] = []
        self._hellos: set[int] = set()
        self._connected = asyncio.Event()
        self._announced = asyncio.Event()
        # Resolved with the first worker failure: a link that ends (handler
        # error, or EOF from a crashed worker) or a worker process that
        # exits, whether or not it ever connected.
        self._failure: asyncio.Future[None] = loop.create_future()
        server = await asyncio.start_server(self._accept, sock=listener)
        try:
            for worker, process in enumerate(processes):
                loop.add_reader(process.sentinel, self._process_ended, worker, process)
            await self._unless_a_worker_fails(self._connected.wait())
            await self._unless_a_worker_fails(self._announced.wait())
            await self._unless_a_worker_fails(self._bootstrap())
            max_cycles = plan_max_cycles(self.setup.config)
            if self.setup.config.runtime.stepping == "concurrent":
                collected, cycles_run = await self._step_concurrently(max_cycles)
            else:
                collected, cycles_run = await self._step_sequentially(max_cycles)
            for link in self._links:
                await link.notify(Envelope(kind=KIND_CONTROL, header={"op": "shutdown"}))
            return LiveRunOutcome(
                workers=collected,
                cycles_run=cycles_run,
                coordinator_socket=self._stats.as_dict(),
            )
        finally:
            for process in processes:
                loop.remove_reader(process.sentinel)
            # Workers close their links once shut down: past this point that
            # is no failure, and one already recorded has been raised or is moot.
            if self._failure.done():
                self._failure.exception()
            else:
                self._failure.cancel()
            for task in self._pump_tasks:
                task.cancel()
            server.close()

    # ------------------------------------------------------------------ failures
    def _fail(self, error: BaseException) -> None:
        if not self._failure.done():
            self._failure.set_exception(error)

    def _link_ended(self, task: asyncio.Task) -> None:
        if not task.cancelled():
            self._fail(task.exception() or ProtocolError(
                "a worker connection closed before the run finished "
                "(see the worker's stderr for its traceback)"
            ))

    def _process_ended(self, worker: int, process: Any) -> None:
        asyncio.get_running_loop().remove_reader(process.sentinel)
        process.join()  # the sentinel fired: the process has exited
        self._fail(ProtocolError(
            f"worker {worker} exited with code {process.exitcode} before "
            "the run finished (see its stderr for the traceback)"
        ))

    async def _unless_a_worker_fails(self, awaitable: Awaitable[Any]) -> Any:
        task = asyncio.ensure_future(awaitable)
        await asyncio.wait({task, self._failure}, return_when=asyncio.FIRST_COMPLETED)
        if not task.done():
            task.cancel()
            self._failure.result()
        return task.result()

    # ------------------------------------------------------------------ links
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        channel = RequestChannel(
            FrameConnection(reader, writer, self._stats), self._worker_record
        )
        self._links.append(channel)
        task = asyncio.create_task(channel.pump())
        task.add_done_callback(self._link_ended)
        self._pump_tasks.append(task)

    async def _worker_record(self, envelope: Envelope) -> None:
        """A worker's hello, then one announcement frame per hosted node."""
        header = envelope.header
        op = header.get("op")
        if op == "hello":
            self._hellos.add(int(header["worker"]))
            if len(self._hellos) == self.n_processes:
                self._connected.set()
            return
        if op == "announce" and envelope.kind == KIND_FRAME:
            address = header.get("address")
            self._directory.feed(
                envelope.payload,
                address=(address[0], int(address[1])) if address else None,
            )
            if len(self._directory) == self.setup.n_participants:
                self._announced.set()
            return
        raise ProtocolError(f"unexpected worker record {op!r}")

    def _request_all(self, header: dict[str, Any], payload: bytes = b"",
                     is_batch: bool = False) -> Awaitable[list[Envelope]]:
        return asyncio.gather(*(
            link.request(Envelope(
                kind=KIND_FRAME if is_batch else KIND_CONTROL,
                header=header, payload=payload, is_batch=is_batch,
            ))
            for link in self._links
        ))

    # ------------------------------------------------------------------ phases
    async def _bootstrap(self) -> None:
        """Bootstrap every worker with the full announcement log (late-joiner
        catch-up included) and the key frame, batched: one record per
        MAX_BATCH_FRAMES frames, the last one — the bootstrap request —
        ending with the key frame."""
        snapshot = self._directory.snapshot()
        frames = [frame for frame, _ in snapshot] \
            + [key_announcement_for(self.setup.backend).serialize()]
        members = [list(address) if address else None for _, address in snapshot]
        starts = range(0, len(frames), MAX_BATCH_FRAMES)
        for start in starts[:-1]:
            record = Envelope(
                kind=KIND_FRAME, is_batch=True,
                header={"op": "announce",
                        "members": members[start:start + MAX_BATCH_FRAMES]},
                payload=batch_frames(frames[start:start + MAX_BATCH_FRAMES]),
            )
            for link in self._links:
                await link.notify(record)
        await self._request_all(
            {"op": "bootstrap", "n_nodes": self.setup.n_participants,
             "members": members[starts[-1]:]},
            payload=batch_frames(frames[starts[-1]:]), is_batch=True,
        )

    async def _step_sequentially(self, max_cycles: int) -> tuple[list[dict[str, Any]], int]:
        """Sequential stepping happens among the workers: each replays the
        scheduler stream and steps while it holds the token, in the cycle
        engine's global order — bit-identical to mode="cycle".  Each reply
        carries the worker's state."""
        replies = await self._unless_a_worker_fails(self._request_all(
            {"op": "run-sequential", "max_cycles": max_cycles,
             "workers": self.n_processes}
        ))
        collected = [reply.header for reply in replies]
        counts = {int(worker["cycles_run"]) for worker in collected}
        if len(counts) != 1:
            raise ProtocolError(f"workers disagree on the cycles run: {sorted(counts)}")
        return collected, counts.pop()

    async def _step_concurrently(self, max_cycles: int) -> tuple[list[dict[str, Any]], int]:
        """Concurrent stepping: the coordinator only enforces iteration
        epochs.  One run-cycle request per worker per epoch, all workers
        advancing their shards simultaneously with many exchanges in
        flight; stop when every worker reports zero pending participants.
        No scheduler stream is consumed — the interleaving is
        timing-dependent, which is exactly the nondeterminism the envelope
        metrics quantify."""
        cycles_run = 0
        for _ in range(max_cycles):
            replies = await self._request_all({"op": "run-cycle"})
            cycles_run += 1
            if sum(int(reply.header.get("pending", 0)) for reply in replies) == 0:
                break
        replies = await self._request_all({"op": "collect"})
        return [reply.header for reply in replies], cycles_run


@dataclass(frozen=True)
class LiveRunOutcome:
    """Raw per-worker collection of one live run, before result assembly."""

    # Out of the repr: ``asyncio.run`` renders its main task, result
    # included, when it restores the SIGINT handler (CPython 3.11), and the
    # per-node histories make that a ~45 ms string after every run.
    workers: list[dict[str, Any]] = field(repr=False)
    cycles_run: int
    coordinator_socket: dict[str, int]


# ---------------------------------------------------------------------- assembly
def _rebuild_log(setup: RunSetup, collection_name: str,
                 nodes: list[dict[str, Any]],
                 iteration_traffic: dict[int, dict[str, float]]) -> ExecutionLog:
    """Rebuild the per-iteration execution log from collected histories.

    The records are the cycle runner's
    (:func:`~repro.core.runner.iteration_record`), built from what the
    workers collected.  ``iteration_traffic`` is the merged per-worker cost
    accounting keyed by iteration number: the message/byte deltas (traffic
    charged to the sending node's current iteration) plus the
    crypto-operation deltas each worker's :class:`_CryptoMeter` charged to
    the iteration the work served, so each record's ``costs`` carries the
    same per-iteration delta keys as a cycle run's.
    """
    log = ExecutionLog(metadata=run_log_metadata(setup, collection_name))
    histories = sorted((NodeHistory(**node["history"]) for node in nodes),
                       key=lambda history: history.node_id)
    previous = setup.initial_centroids
    completed = max(len(history.perturbed_means) for history in histories)
    for index in range(completed):
        record = iteration_record(
            index, histories, setup.data, setup.tracked_ids, previous,
            dict(iteration_traffic.get(index + 1, {})),
        )
        log.append(record)
        previous = record.perturbed_means
    return log


def run_live_chiaroscuro(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig | None = None,
    normalize: bool = True,
) -> Any:
    """Run the protocol over real sockets and return a ChiaroscuroResult.

    The entry point behind ``runtime.mode="live"`` (and the CLI's
    ``--live``).  Accepts the same arguments as
    :func:`~repro.core.runner.run_chiaroscuro` and returns the same result
    type, with ``metadata["live"]`` carrying the runner's process/socket
    statistics: the protocol byte accounting (``costs.bytes_sent``) is
    measured on-socket frame lengths, while ``metadata["live"]["socket"]``
    additionally reports total socket I/O including envelope and
    control-plane overhead.
    """
    config = config if config is not None else ChiaroscuroConfig()
    if config.runtime.mode != "live":
        config = config.with_overrides(runtime={"mode": "live"})
    setup = build_run_setup(collection, config, normalize=normalize)
    runner = LiveRunner(setup, collection.name)
    outcome = runner.run()

    nodes: list[dict[str, Any]] = []
    crypto_totals: dict[str, int] = {}
    traffic = TrafficStats()
    socket_totals: dict[str, int] = {}
    iteration_traffic: dict[int, dict[str, float]] = {}
    for worker in outcome.workers:
        nodes.extend(worker["nodes"])
        for key, value in worker["crypto"].items():
            crypto_totals[key] = crypto_totals.get(key, 0) + int(value)
        for key, value in worker["socket"].items():
            socket_totals[key] = socket_totals.get(key, 0) + int(value)
        for iteration, bucket in worker.get("iteration_traffic", {}).items():
            merged = iteration_traffic.setdefault(int(iteration), {})
            for key, value in bucket.items():
                merged[key] = merged.get(key, 0.0) + float(value)
        for node in worker["nodes"]:
            for key, value in node["traffic"].items():
                setattr(traffic, key, getattr(traffic, key) + int(value))
    if len(nodes) != setup.n_participants:
        raise ProtocolError(
            f"collected {len(nodes)} of {setup.n_participants} participants"
        )
    outcomes = [
        ParticipantOutcome(**{**node["outcome"],
                              "profiles": np.asarray(node["outcome"]["profiles"], dtype=float)})
        for node in nodes
    ]
    log = _rebuild_log(setup, collection.name, nodes, iteration_traffic)
    runtime = config.runtime
    extra_metadata = {
        "live": {
            "processes": runner.n_processes,
            "cycles_run": outcome.cycles_run,
            "stepping": runtime.stepping,
            "socket": socket_totals,
            "coordinator_socket": outcome.coordinator_socket,
        },
    }
    result = assemble_result(
        setup,
        outcomes,
        traffic,
        crypto_totals,
        log,
        extra_metadata=extra_metadata,
    )
    if runtime.stepping == "concurrent" and runtime.envelope == "auto":
        # Quantify the nondeterminism this run's concurrent interleaving
        # introduced: run the deterministic cycle-mode reference on the
        # same collection/configuration and attach the divergence metrics
        # (see repro.analysis.envelope) to the cost summary.
        reference = run_chiaroscuro(
            collection,
            config.with_overrides(runtime={"mode": "cycle"}),
            normalize=normalize,
        )
        result.costs = replace(
            result.costs, envelope=nondeterminism_envelope(result, reference)
        )
    return result
