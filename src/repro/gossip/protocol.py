"""Cleartext gossip aggregation protocols.

Two classic protocols are provided:

* **push-pull averaging** — at every cycle each node picks a random (online)
  neighbour and the pair replaces both estimates by their average.  This is
  the primitive Chiaroscuro runs *under encryption*
  (:mod:`repro.gossip.encrypted_sum`); the cleartext version serves as the
  reference for correctness tests and for the gossip-convergence experiment
  (E5), and as the substrate of the non-private distributed baseline.

* **push-sum** (Kempe, Dobra, Gehrke, FOCS 2003) — each node maintains a
  (value, weight) pair, halves it and sends one half to a random neighbour;
  the ratio value/weight converges to the global average with an error that
  decreases exponentially in the number of cycles.  It is included both for
  completeness and because the paper's convergence claim cites it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import as_2d_float_array, check_positive_int
from ..exceptions import GossipError, WireFormatError
from ..simulation.engine import CycleEngine
from ..simulation.node import Node
from .messages import GossipAvgReply, GossipAvgRequest, PushSumMessage, deserialize
from .overlay import Overlay, build_overlay


class PushPullAveragingNode(Node):
    """Node holding a vector estimate updated by pairwise averaging.

    The exchange travels as framed byte messages
    (:class:`~repro.gossip.messages.GossipAvgRequest` /
    :class:`~repro.gossip.messages.GossipAvgReply`); floats cross the wire
    as IEEE-754 doubles, so the averaged estimates are exact.
    """

    def __init__(self, node_id: int, initial_value: np.ndarray, overlay: Overlay,
                 exchanges_per_cycle: int = 1) -> None:
        super().__init__(node_id)
        self.estimate = np.array(initial_value, dtype=float)
        self.overlay = overlay
        self.exchanges_per_cycle = check_positive_int(exchanges_per_cycle, "exchanges_per_cycle")
        self.exchanges_done = 0

    def _frame(self, message_type: type[GossipAvgRequest] | type[GossipAvgReply]) -> bytes:
        return message_type(values=tuple(float(v) for v in self.estimate)).serialize()

    def next_cycle(self, engine: CycleEngine, cycle: int) -> None:
        rng = engine.rng_registry.stream(f"gossip.peer_sampling.{self.node_id}")
        online = engine.online_id_view()
        for _ in range(self.exchanges_per_cycle):
            peer_id = self.overlay.sample_neighbor(self.node_id, rng, online=online)
            if peer_id is None:
                return
            peer = engine.node(peer_id)
            if not isinstance(peer, PushPullAveragingNode):
                raise GossipError("push-pull averaging requires homogeneous nodes")
            reply = engine.exchange(
                self.node_id, peer_id, ("gossip-avg-request", "gossip-avg-reply"),
                self._frame(GossipAvgRequest),
                lambda _request: peer._frame(GossipAvgReply),
                modelled_bytes=8 * self.estimate.size,
            )
            if reply is None:
                continue  # lost or corrupted: no exchange
            average = (self.estimate + np.array(reply.values, dtype=float)) / 2.0
            self.estimate = average
            peer.estimate = average.copy()
            self.exchanges_done += 1
            peer.exchanges_done += 1


class PushSumNode(Node):
    """Node running the Kempe et al. push-sum protocol.

    Each mass transfer travels as a framed
    :class:`~repro.gossip.messages.PushSumMessage`; an undecodable
    (corrupted) frame is treated exactly like a loss, so the protocol stays
    mass-conserving under every fault model.
    """

    def __init__(self, node_id: int, initial_value: np.ndarray, overlay: Overlay) -> None:
        super().__init__(node_id)
        self.value = np.array(initial_value, dtype=float)
        self.weight = 1.0
        self.overlay = overlay
        self._incoming_values: list[np.ndarray] = []
        self._incoming_weights: list[float] = []

    @property
    def estimate(self) -> np.ndarray:
        """Current estimate of the global average: value / weight."""
        if self.weight <= 0:
            raise GossipError("push-sum weight became non-positive")
        return self.value / self.weight

    def next_cycle(self, engine: CycleEngine, cycle: int) -> None:
        # Fold in the halves received during the previous cycle first.
        for value in self._incoming_values:
            self.value = self.value + value
        self.weight += sum(self._incoming_weights)
        self._incoming_values.clear()
        self._incoming_weights.clear()

        rng = engine.rng_registry.stream(f"gossip.push_sum.{self.node_id}")
        online = engine.online_id_view()
        peer_id = self.overlay.sample_neighbor(self.node_id, rng, online=online)
        if peer_id is None:
            return
        half_value = self.value / 2.0
        half_weight = self.weight / 2.0
        self.value = half_value
        self.weight = half_weight
        frame = PushSumMessage(
            values=tuple(float(v) for v in half_value), weight=float(half_weight)
        ).serialize()
        received = engine.transmit(
            self.node_id, peer_id, "push-sum", frame,
            modelled_bytes=8 * (self.value.size + 1),
        )
        message = None
        if received is not None:
            try:
                message = deserialize(received)
            except WireFormatError:
                pass  # corrupted in transit: counts as a loss
        if message is not None:
            peer = engine.node(peer_id)
            if not isinstance(peer, PushSumNode):
                raise GossipError("push-sum requires homogeneous nodes")
            peer._incoming_values.append(np.array(message.values, dtype=float))
            peer._incoming_weights.append(float(message.weight))
        else:
            # The mass was sent but lost (or arrived undecodable); conserve
            # it locally so the protocol remains mass-conserving under both
            # fault models.
            self.value = self.value + half_value
            self.weight += half_weight


def _estimates_matrix(nodes: Sequence[Node]) -> np.ndarray:
    return np.vstack([node.estimate for node in nodes])  # type: ignore[attr-defined]


def gossip_average(
    values: np.ndarray,
    cycles: int = 20,
    topology: str = "complete",
    exchanges_per_cycle: int = 1,
    seed: int = 0,
    drop_probability: float = 0.0,
    protocol: str = "push_pull",
    return_history: bool = False,
    corruption_rate: float = 0.0,
) -> np.ndarray | tuple[np.ndarray, list[float]]:
    """Run a gossip averaging protocol over the rows of *values*.

    Parameters
    ----------
    values:
        ``(n_nodes, dimension)`` matrix; row i is node i's initial value.
    cycles:
        Number of simulation cycles to run.
    topology, exchanges_per_cycle, seed, drop_probability:
        Simulation parameters.
    protocol:
        ``"push_pull"`` or ``"push_sum"``.
    return_history:
        When true, also return the per-cycle maximum relative error with
        respect to the true average (used by the convergence experiment).
    corruption_rate:
        Probability that a delivered frame has one bit flipped in transit
        (corrupted frames count as losses).

    Returns
    -------
    The ``(n_nodes, dimension)`` matrix of final estimates, optionally with
    the error history.
    """
    values = as_2d_float_array(values, "values")
    check_positive_int(cycles, "cycles")
    n_nodes = values.shape[0]
    overlay = build_overlay(n_nodes, topology=topology, seed=seed)
    if protocol == "push_pull":
        nodes: list[Node] = [
            PushPullAveragingNode(i, values[i], overlay, exchanges_per_cycle)
            for i in range(n_nodes)
        ]
    elif protocol == "push_sum":
        nodes = [PushSumNode(i, values[i], overlay) for i in range(n_nodes)]
    else:
        raise GossipError(f"unknown gossip protocol {protocol!r}")
    engine = CycleEngine(nodes, seed=seed, drop_probability=drop_probability,
                         corruption_rate=corruption_rate)
    true_average = values.mean(axis=0)
    history: list[float] = []
    for _ in range(cycles):
        engine.run_cycle()
        if return_history:
            estimates = _estimates_matrix(nodes)
            history.append(max_relative_error(estimates, true_average))
    estimates = _estimates_matrix(nodes)
    if return_history:
        return estimates, history
    return estimates


def max_relative_error(estimates: np.ndarray, true_average: np.ndarray) -> float:
    """Maximum over nodes of the relative L2 error against the true average."""
    estimates = as_2d_float_array(estimates, "estimates")
    true_average = np.asarray(true_average, dtype=float)
    denominator = float(np.linalg.norm(true_average))
    if denominator == 0.0:
        denominator = 1.0
    errors = np.linalg.norm(estimates - true_average[None, :], axis=1) / denominator
    return float(errors.max())
