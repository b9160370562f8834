"""Simulated point-to-point network with traffic accounting.

The network does not model latency (the engine is cycle-driven, as in
Peersim's cycle-based mode used by the demonstration); it models *delivery*
— possibly dropping messages according to the fault model — and keeps the
per-node and global traffic statistics that the cost analysis (claim C3 of
the paper) reports: messages and bytes sent and received per participant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .._validation import check_non_negative_int, check_probability
from ..exceptions import SimulationError


@dataclass(frozen=True)
class Message:
    """One point-to-point message.

    ``size_bytes`` is declared by the sender: the *measured* length of the
    serialized frame carried in ``payload``.  ``modelled_bytes`` optionally
    carries what the protocol layer's size formula charges for the same
    message, so the cost analysis can report measured-vs-modelled byte
    accounting; it defaults to ``size_bytes``.
    """

    sender: int
    recipient: int
    kind: str
    payload: Any
    size_bytes: int = 0
    modelled_bytes: int | None = None

    def __post_init__(self) -> None:
        check_non_negative_int(self.size_bytes, "size_bytes")
        if self.modelled_bytes is None:
            object.__setattr__(self, "modelled_bytes", self.size_bytes)
        else:
            check_non_negative_int(self.modelled_bytes, "modelled_bytes")


@dataclass
class TrafficStats:
    """Traffic counters for one node (or aggregated over all nodes).

    ``bytes_sent`` accounts what actually crossed the (simulated) network:
    measured frame lengths.  ``bytes_modelled`` accumulates the modelled
    sizes of the same messages, so the two columns diverge by exactly the
    framing overhead.
    """

    messages_sent: int = 0
    messages_received: int = 0
    messages_dropped: int = 0
    messages_corrupted: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    bytes_modelled: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain dictionary view."""
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "messages_dropped": self.messages_dropped,
            "messages_corrupted": self.messages_corrupted,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "bytes_modelled": self.bytes_modelled,
        }


@dataclass(frozen=True)
class ByteAccounting:
    """Measured-vs-modelled byte totals of a run (or of a workload model).

    ``bytes_modelled`` is what the historical size formula charges;
    ``bytes_measured`` is what actually crossed the network as serialized
    frames (or a model's prediction of it).  The gap is the wire-format
    framing overhead.  Lives next to :class:`TrafficStats`, which it
    summarises; re-exported by :mod:`repro.analysis.costs` for reports.
    """

    bytes_modelled: float
    bytes_measured: float

    @property
    def overhead_fraction(self) -> float:
        """Relative overhead of measured over modelled bytes (0 when unknown)."""
        if self.bytes_modelled <= 0:
            return 0.0
        return (self.bytes_measured - self.bytes_modelled) / self.bytes_modelled

    def as_dict(self) -> dict[str, float]:
        """Plain dictionary view (for reports)."""
        return {
            "bytes_modelled": self.bytes_modelled,
            "bytes_measured": self.bytes_measured,
            "overhead_fraction": self.overhead_fraction,
        }


class Network:
    """Synchronous message delivery with loss and traffic accounting.

    Parameters
    ----------
    n_nodes:
        Number of addressable nodes (ids 0 .. n_nodes-1).
    drop_probability:
        Probability that any given message is silently lost.
    rng:
        Random stream used for message drops.
    corruption_probability:
        Probability that a *delivered* byte-frame payload has one random
        bit flipped in transit (the corruption fault model; only byte
        payloads can be corrupted).
    corruption_rng:
        Random stream used for corruption draws (kept separate from the
        drop stream so enabling one fault model never shifts the other).
    """

    def __init__(
        self,
        n_nodes: int,
        drop_probability: float = 0.0,
        rng: np.random.Generator | None = None,
        corruption_probability: float = 0.0,
        corruption_rng: np.random.Generator | None = None,
    ) -> None:
        if n_nodes <= 0:
            raise SimulationError(f"n_nodes must be > 0, got {n_nodes}")
        self.n_nodes = n_nodes
        self.drop_probability = check_probability(drop_probability, "drop_probability")
        self.corruption_probability = check_probability(
            corruption_probability, "corruption_probability"
        )
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._corruption_rng = (
            corruption_rng if corruption_rng is not None else np.random.default_rng(1)
        )
        self._per_node: list[TrafficStats] = [TrafficStats() for _ in range(n_nodes)]
        self.total = TrafficStats()

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.n_nodes:
            raise SimulationError(f"node id {node_id} outside [0, {self.n_nodes})")

    def account_send(self, message: Message) -> bool:
        """Account *message* to its sender; return False when it was dropped.

        This is the sender half of the authoritative byte-count site (see
        :mod:`repro.net.transport`): every transport charges a
        message's ``bytes_sent``/``bytes_modelled`` exactly once, here, at
        the sending side.  The drop draw also lives here so that the loss
        fault model consumes its randomness in global send order.
        """
        self._check_node(message.sender)
        self._check_node(message.recipient)
        sender_stats = self._per_node[message.sender]
        modelled = int(message.modelled_bytes or 0)
        sender_stats.messages_sent += 1
        sender_stats.bytes_sent += message.size_bytes
        sender_stats.bytes_modelled += modelled
        self.total.messages_sent += 1
        self.total.bytes_sent += message.size_bytes
        self.total.bytes_modelled += modelled
        if self.drop_probability > 0 and self._rng.random() < self.drop_probability:
            sender_stats.messages_dropped += 1
            self.total.messages_dropped += 1
            return False
        return True

    def account_receive(self, message: Message) -> None:
        """Account a delivered *message* to its recipient.

        The receiver half of the authoritative byte-count site: in the
        multi-process runner this runs on the worker hosting the recipient,
        so per-node receive counters are only ever touched by one process.
        """
        self._check_node(message.recipient)
        recipient_stats = self._per_node[message.recipient]
        recipient_stats.messages_received += 1
        recipient_stats.bytes_received += message.size_bytes
        self.total.messages_received += 1
        self.total.bytes_received += message.size_bytes

    def send(self, message: Message) -> bool:
        """Deliver *message*; return False when it was dropped.

        Sending is always accounted to the sender; reception only when the
        message is actually delivered.
        """
        delivered = self.account_send(message)
        if delivered:
            self.account_receive(message)
        return delivered

    def maybe_corrupt(self, payload: Any, sender: int | None = None) -> Any:
        """Apply the corruption fault model to a delivered byte payload.

        With probability ``corruption_probability`` one uniformly random bit
        of *payload* is flipped (a checksummed wire frame then fails to
        decode) and a new plain ``bytes`` is returned.  No randomness is
        consumed when the model is disabled or the payload is empty, so
        enabling corruption never perturbs runs that do not use it.  The
        payload is a byte string or a
        :class:`~repro.gossip.messages.Frame`; only a draw that fires reads
        its bytes, everything else needs just ``len(payload)``.
        """
        if self.corruption_probability <= 0 or not payload:
            return payload
        if self._corruption_rng.random() >= self.corruption_probability:
            return payload
        position = int(self._corruption_rng.integers(0, len(payload) * 8))
        corrupted = bytearray(bytes(payload))
        corrupted[position // 8] ^= 1 << (position % 8)
        if sender is not None:
            self._per_node[sender].messages_corrupted += 1
        self.total.messages_corrupted += 1
        return bytes(corrupted)

    def stats_for(self, node_id: int) -> TrafficStats:
        """Traffic counters of one node."""
        self._check_node(node_id)
        return self._per_node[node_id]

    def per_node_stats(self) -> list[TrafficStats]:
        """Traffic counters of every node, indexed by node id."""
        return list(self._per_node)
