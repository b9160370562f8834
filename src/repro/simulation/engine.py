"""The cycle-driven simulation engine (Peersim's cycle-based mode).

The demonstration runs Chiaroscuro inside Peersim: each participant
implements ``nextCycle`` and the simulator calls every participant once per
cycle.  :class:`CycleEngine` reproduces that model:

* nodes are registered once, each with a unique id;
* :meth:`run` executes a number of cycles; within a cycle, online nodes are
  visited in a freshly shuffled order (Peersim's default);
* a simple churn model can take nodes offline and bring them back online
  between cycles (the "possibly faulty computing nodes" of the paper);
* observers are notified after every cycle;
* all traffic goes through a :class:`~repro.simulation.network.Network`
  instance so that per-participant communication costs can be reported.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .._validation import check_non_negative_int, check_probability
from ..exceptions import SimulationError
from ..net.transport import LoopbackTransport
from .network import Network
from .node import Node
from .observers import Observer
from .rng import RngRegistry
from .slab import slab_churn_step


class CycleEngine:
    """Cycle-driven scheduler for a population of :class:`Node` objects.

    Parameters
    ----------
    nodes:
        The simulated participants; their ``node_id`` attributes must be
        exactly 0 .. n-1 (any order).
    seed:
        Master seed of the run; every internal stream derives from it.
    churn_rate:
        Per-cycle probability that an online node goes offline.
    rejoin_rate:
        Per-cycle probability that an offline node comes back online.
    drop_probability:
        Per-message loss probability of the network.
    corruption_rate:
        Per-frame probability that a delivered wire frame has one random
        bit flipped (see :meth:`Network.maybe_corrupt`).
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        seed: int = 0,
        churn_rate: float = 0.0,
        rejoin_rate: float = 0.5,
        drop_probability: float = 0.0,
        corruption_rate: float = 0.0,
    ) -> None:
        if not nodes:
            raise SimulationError("the engine needs at least one node")
        ids = sorted(node.node_id for node in nodes)
        if ids != list(range(len(nodes))):
            raise SimulationError("node ids must be exactly 0 .. n-1 with no gaps")
        self.nodes: list[Node] = sorted(nodes, key=lambda node: node.node_id)
        self.rng_registry = RngRegistry(check_non_negative_int(seed, "seed"))
        self.churn_rate = check_probability(churn_rate, "churn_rate")
        self.rejoin_rate = check_probability(rejoin_rate, "rejoin_rate")
        self.network = Network(
            n_nodes=len(self.nodes),
            drop_probability=drop_probability,
            rng=self.rng_registry.stream("network.drops"),
            corruption_probability=corruption_rate,
            corruption_rng=self.rng_registry.stream("network.corruption"),
        )
        self.transport = LoopbackTransport(self, self.network)
        self.observers: list[Observer] = []
        self.current_cycle = -1
        self._scheduler_rng = self.rng_registry.stream("engine.scheduler")
        self._churn_rng = self.rng_registry.stream("engine.churn")
        # Incremental online-node index: every node reports its online-flag
        # transitions (including direct ``node.online = ...`` assignments by
        # tests and fault-injection code), so peer sampling never re-scans
        # the whole population.  The sorted view is rebuilt lazily, only
        # after a transition actually happened, as a new tuple: a view
        # handed out earlier stays a valid snapshot.
        self._online_ids: set[int] = set()
        self._online_sorted: tuple[int, ...] | None = None
        for node in self.nodes:
            node._online_listener = self._node_online_changed
            if node.online:
                self._online_ids.add(node.node_id)

    # ------------------------------------------------------------------ node access
    @property
    def n_nodes(self) -> int:
        """Total number of registered nodes (online or not)."""
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """Return the node with the given id."""
        if not 0 <= node_id < self.n_nodes:
            raise SimulationError(f"node id {node_id} outside [0, {self.n_nodes})")
        return self.nodes[node_id]

    def _node_online_changed(self, node: Node, online: bool) -> None:
        if online:
            self._online_ids.add(node.node_id)
        else:
            self._online_ids.discard(node.node_id)
        self._online_sorted = None

    def online_id_view(self) -> tuple[int, ...]:
        """Ids of every node currently online, ascending, without a copy.

        The tuple is shared until the next online transition, so reading it
        costs nothing; peer sampling takes it as its ``online`` argument.
        """
        if self._online_sorted is None:
            self._online_sorted = tuple(sorted(self._online_ids))
        return self._online_sorted

    def online_ids(self) -> list[int]:
        """Ids of every node currently online (in node-id order)."""
        return list(self.online_id_view())

    # ------------------------------------------------------------------ observers
    def add_observer(self, observer: Observer) -> None:
        """Register an observer notified after every cycle."""
        self.observers.append(observer)

    # ------------------------------------------------------------------ execution
    def _apply_churn(self, cycle: int) -> None:
        # The churn model is only active when nodes can actually fail; nodes
        # taken offline explicitly (e.g. by a test or a fault-injection
        # scenario) must stay offline rather than being "rejoined" here.
        # The draw is the slab engine's, so both engines flip the same nodes
        # from the same stream; Python-level work is only for the (typically
        # few) nodes that flip.
        if self.churn_rate == 0.0:
            return
        online = np.fromiter((node.online for node in self.nodes), dtype=bool,
                             count=self.n_nodes)
        for node_id in slab_churn_step(online, self.churn_rate, self.rejoin_rate,
                                       self._churn_rng).tolist():
            node = self.nodes[node_id]
            node.online = bool(online[node_id])
            if node.online:
                node.on_online(self, cycle)
            else:
                node.on_offline(self, cycle)

    def run_cycle(self) -> int:
        """Run exactly one cycle and return its index."""
        self.current_cycle += 1
        cycle = self.current_cycle
        self._apply_churn(cycle)
        order = self._scheduler_rng.permutation(self.n_nodes)
        for node_index in order:
            node = self.nodes[int(node_index)]
            if node.online:
                node.next_cycle(self, cycle)
        for observer in self.observers:
            observer.after_cycle(self, cycle)
        return cycle

    def run(self, cycles: int, stop_when: "StopCondition | None" = None) -> int:
        """Run up to *cycles* cycles; stop early when *stop_when* returns True.

        Returns the number of cycles actually executed.
        """
        check_non_negative_int(cycles, "cycles")
        executed = 0
        for _ in range(cycles):
            self.run_cycle()
            executed += 1
            if stop_when is not None and stop_when(self):
                break
        return executed


#: Signature of the optional early-stopping predicate of :meth:`CycleEngine.run`.
StopCondition = "Callable[[CycleEngine], bool]"
