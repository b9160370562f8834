"""The cycle engine's transport: delivery plus authoritative accounting.

A transport moves protocol messages between participants and is the *single*
place where traffic is counted.  Two implementations exist, one per driver
of the protocol step (:meth:`ChiaroscuroParticipant.step
<repro.core.participant.ChiaroscuroParticipant.step>` yields the exchanges
and committee rounds; a driver performs them over its transport):

* :class:`LoopbackTransport` — the deterministic in-memory delivery of the
  cycle-driven simulation.  :meth:`CycleEngine.exchange` delegates here
  verbatim.
* :class:`~repro.net.live.WorkerTransport` (in :mod:`repro.net.live`) — the
  asyncio TCP transport of the multi-process runner, which moves the same
  serialized frames over real sockets between OS processes and serves
  every frame for a node its worker hosts on one path,
  :meth:`~repro.net.live.WorkerTransport.serve`.

What is encoded is what something reads, and what is decoded is the bytes
that crossed a boundary.  A :class:`~repro.gossip.messages.Frame` knows its
length without its bytes, and the ledger needs only that length.  Loopback
delivery hands the sender's ``Frame`` object itself to the recipient, and
``deserialize`` returns the message that frame was serialized from, so an
intact in-process frame is neither written nor decoded.  A corruption that
fires writes the frame's bytes and flips one bit of a copy: that new plain
byte string meets the full decoder, whose checksum turns it into a loss.
In the live runner the same holds for a recipient on the sending worker,
whose ``serve`` gets the sender's ``Frame``, while a frame for another
worker is written into its socket record (or its batch) and reaches that
worker's ``serve`` as bytes that are decoded in full.

The accounting rule both implementations follow (the "one authoritative
byte-count site"): a message's ``messages_sent``/``bytes_sent``/
``bytes_modelled`` are charged exactly once, by the transport, at the
sending side (``Network.account_send``); ``messages_received``/
``bytes_received`` exactly once at the receiving side
(``Network.account_receive``).  Protocol code never touches the counters.
In the cycle simulation both sides live in one process; in the live runner
each side runs on the worker hosting that node, so per-node counters are
owned by exactly one process and aggregate without double counting.

The rule is stepping-independent: under the live runner's concurrent
stepping every send is still charged synchronously at its sending node, so
totals and per-node counters stay exact.  What concurrency relaxes is only
the *per-iteration* attribution of a worker's process-global crypto-counter
deltas (several interleaved steps share one counter), which becomes
approximate while its sum over iterations remains exact.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from ..exceptions import SimulationError, WireFormatError
from ..gossip.messages import Frame
from ..simulation.network import Message, Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..gossip.messages import WireMessage
    from ..simulation.engine import CycleEngine


class LoopbackTransport:
    """Deterministic in-process delivery backed by a :class:`Network` ledger.

    This is the cycle engine's transport: delivery is synchronous (the
    recipient's ``receive`` hook runs before the call returns), loss and
    corruption come from the network fault models, and the accounting site
    is the wrapped :class:`Network`.
    """

    def __init__(self, engine: "CycleEngine", network: Network) -> None:
        self._engine = engine
        self.network = network

    # ------------------------------------------------------------------ delivery
    def transmit(self, sender: int, recipient: int, kind: str,
                 frame: Frame | bytes, modelled_bytes: int | None = None
                 ) -> Frame | bytes | None:
        """Deliver a frame; return it as received (None on loss).

        An intact delivery returns *frame* itself, so a :class:`Frame`
        reaches the recipient still carrying its message and its bytes
        unwritten; only a ``bytearray`` is copied to ``bytes``.
        """
        if not isinstance(frame, (Frame, bytes, bytearray)):
            raise SimulationError("transmit() carries serialized byte frames only")
        if isinstance(frame, bytearray):
            frame = bytes(frame)
        message = Message(
            sender=sender, recipient=recipient, kind=kind, payload=frame,
            size_bytes=len(frame), modelled_bytes=modelled_bytes,
        )
        delivered = self.network.send(message)
        recipient_node = self._engine.node(recipient)
        if not delivered or not recipient_node.online:
            return None
        received = self.network.maybe_corrupt(frame, sender=sender)
        if received is not frame:
            message = replace(message, payload=received)
        recipient_node.receive(self._engine, message)
        return received

    def exchange(self, sender: int, recipient: int, kinds: tuple[str, str],
                 frame: Frame | bytes, serve: "Callable[[WireMessage], Frame]",
                 modelled_bytes: int | None = None,
                 lossy_request: bool = True) -> "WireMessage | None":
        """One request/reply round-trip; the decoded reply, or None on failure.

        The cycle model's pairwise-exchange policy, stated once: the request
        (*kinds[0]*) travels, the recipient decodes it and *serve* turns the
        decoded request into the reply frame (*kinds[1]*), which travels
        back and is decoded for the caller (an intact frame decodes to the
        message it was serialized from).  A frame that arrives corrupted
        fails its checksum and ends the exchange like a loss.  A dropped
        *reply* is accounted as dropped yet still decoded: the exchange is
        atomic in the cycle model (the responder has already applied its
        half).  A dropped *request* ends the exchange unless
        *lossy_request* is false — the committee decryption round, whose
        drops are modelled at the gossip layer, is served regardless.
        """
        from ..gossip.messages import deserialize

        received = self.transmit(sender, recipient, kinds[0], frame,
                                 modelled_bytes=modelled_bytes)
        if received is None:
            if lossy_request:
                return None
            received = frame
        try:
            request = deserialize(received)
        except WireFormatError:
            return None
        reply_frame = serve(request)
        reply = self.transmit(recipient, sender, kinds[1], reply_frame,
                              modelled_bytes=modelled_bytes)
        if reply is None:
            reply = reply_frame
        try:
            return deserialize(reply)
        except WireFormatError:
            return None
