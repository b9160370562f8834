"""Overlay topologies and peer sampling for the gossip layer.

Gossip protocols need each participant to contact (almost) uniformly random
peers.  In deployments this is provided by a peer-sampling service; in the
simulation we materialise an overlay graph.  The complete graph gives exact
uniform sampling (the default, matching the analysis of Kempe et al.) and is
implicit: no neighbour list is stored, so it costs O(1) memory at any
population.  The other topologies are stored as sorted neighbour arrays and
let experiments study the impact of restricted connectivity.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Sequence
from functools import partial

import numpy as np

from .._validation import check_in_choices, check_positive_int, check_probability
from ..exceptions import GossipError

#: Generation attempts of a random topology before giving up on a connected graph.
_CONNECT_TRIES = 200


class Overlay:
    """A static undirected overlay graph with neighbour sampling.

    Parameters
    ----------
    neighbors:
        One iterable of neighbour ids per node ``0 .. n-1``.  The adjacency
        must be symmetric, without self-loops, and name only ids in range.
    name:
        Topology name (for logs and reports).
    """

    def __init__(self, neighbors: Sequence[Iterable[int]], name: str = "custom") -> None:
        n = len(neighbors)
        if n == 0:
            raise GossipError("an overlay needs at least one node")
        adjacency = [{int(peer) for peer in peers} for peers in neighbors]
        for node, peers in enumerate(adjacency):
            if node in peers:
                raise GossipError(f"overlay node {node} is its own neighbour")
            for peer in peers:
                if not 0 <= peer < n:
                    raise GossipError("overlay nodes must be exactly 0 .. n-1")
                if node not in adjacency[peer]:
                    raise GossipError(f"overlay edge {node} -> {peer} has no reverse edge")
        self.name = name
        self._n = n
        # None marks the implicit complete graph (see :meth:`complete`).
        self._neighbors: list[np.ndarray] | None = [
            np.array(sorted(peers), dtype=int) for peers in adjacency
        ]

    @classmethod
    def complete(cls, n_nodes: int) -> "Overlay":
        """The implicit complete graph on *n_nodes* nodes."""
        check_positive_int(n_nodes, "n_nodes")
        overlay = cls.__new__(cls)
        overlay.name = "complete"
        overlay._n = n_nodes
        overlay._neighbors = None
        return overlay

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the overlay."""
        return self._n

    def neighbors(self, node_id: int) -> np.ndarray:
        """Neighbour ids of *node_id* (sorted, possibly empty)."""
        self._check_node(node_id)
        if self._neighbors is None:
            return np.delete(np.arange(self._n), node_id)
        return self._neighbors[node_id]

    def degree(self, node_id: int) -> int:
        """Number of neighbours of *node_id*."""
        self._check_node(node_id)
        if self._neighbors is None:
            return self._n - 1
        return len(self._neighbors[node_id])

    def sample_neighbor(
        self, node_id: int, rng: np.random.Generator, online: Sequence[int] | None = None
    ) -> int | None:
        """Uniformly random (online) neighbour of *node_id*, or None.

        When *online* is given — the ascending ids of the online nodes, read
        and never modified — only neighbours among them are eligible
        (offline peers cannot answer a gossip exchange).  The draw is one
        ``rng.integers(0, size)`` over the eligible neighbours in ascending
        order.
        """
        self._check_node(node_id)
        if self._neighbors is None:
            if online is None:
                online = range(self._n)
            size = len(online)
            position = bisect_left(online, node_id)
            skip = position < size and online[position] == node_id
            size -= skip
            if size == 0:
                return None
            index = int(rng.integers(0, size))
            return int(online[index + (skip and index >= position)])
        candidates = self._neighbors[node_id]
        if online is not None:
            candidates = [peer for peer in candidates.tolist() if _contains(online, peer)]
        if len(candidates) == 0:
            return None
        return int(candidates[int(rng.integers(0, len(candidates)))])

    def is_connected(self) -> bool:
        """Whether the overlay is a connected graph (required for convergence)."""
        if self._neighbors is None:
            return True
        seen = np.zeros(self._n, dtype=bool)
        seen[0] = True
        frontier = deque([0])
        while frontier:
            for peer in self._neighbors[frontier.popleft()].tolist():
                if not seen[peer]:
                    seen[peer] = True
                    frontier.append(peer)
        return bool(seen.all())

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self._n:
            raise GossipError(f"node id {node_id} outside [0, {self._n})")


def _contains(ascending: Sequence[int], value: int) -> bool:
    position = bisect_left(ascending, value)
    return position < len(ascending) and ascending[position] == value


def _ring(n_nodes: int) -> list[set[int]]:
    return [{(node - 1) % n_nodes, (node + 1) % n_nodes} for node in range(n_nodes)]


def _random_regular(n_nodes: int, degree: int, rng: np.random.Generator) -> list[set[int]] | None:
    """A uniform-ish random *degree*-regular graph (Steger–Wormald pairing),
    or None when the pairing got stuck."""
    adjacency: list[set[int]] = [set() for _ in range(n_nodes)]
    stubs = np.repeat(np.arange(n_nodes), degree)
    while stubs.size:
        leftover: list[int] = []
        shuffled = rng.permutation(stubs).tolist()
        for u, v in zip(shuffled[::2], shuffled[1::2]):
            if u != v and v not in adjacency[u]:
                adjacency[u].add(v)
                adjacency[v].add(u)
            else:
                leftover += (u, v)
        # Stuck unless some leftover pair could still become a new edge.
        pending = sorted(set(leftover))
        if leftover and not any(v not in adjacency[u]
                                for i, u in enumerate(pending) for v in pending[i + 1:]):
            return None
        stubs = np.array(leftover, dtype=int)
    return adjacency


def _small_world(n_nodes: int, half: int, rewiring_probability: float,
                 rng: np.random.Generator) -> list[set[int]]:
    """Watts–Strogatz: a ring lattice to *half* hops each side, every lattice
    edge rewired to a random non-neighbour with *rewiring_probability*."""
    adjacency: list[set[int]] = [set() for _ in range(n_nodes)]
    for hop in range(1, half + 1):
        for u in range(n_nodes):
            v = (u + hop) % n_nodes
            adjacency[u].add(v)
            adjacency[v].add(u)
    for hop in range(1, half + 1):
        for u in range(n_nodes):
            v = (u + hop) % n_nodes
            if (rng.random() >= rewiring_probability or v not in adjacency[u]
                    or len(adjacency[u]) >= n_nodes - 1):
                continue
            w = u
            while w == u or w in adjacency[u]:
                w = int(rng.integers(0, n_nodes))
            adjacency[u].discard(v)
            adjacency[v].discard(u)
            adjacency[u].add(w)
            adjacency[w].add(u)
    return adjacency


def build_overlay(
    n_nodes: int,
    topology: str = "complete",
    degree: int = 8,
    rewiring_probability: float = 0.1,
    seed: int = 0,
) -> Overlay:
    """Build one of the supported overlay topologies.

    ``complete`` — every pair connected (uniform peer sampling), implicit;
    ``random_regular`` — random graph where every node has the same degree;
    ``small_world`` — Watts–Strogatz ring with shortcuts;
    ``ring`` — plain cycle (worst case for gossip diffusion).

    The random topologies are drawn from ``numpy.random.default_rng(seed)``
    and redrawn until connected.
    """
    check_positive_int(n_nodes, "n_nodes")
    check_in_choices(topology, ("complete", "random_regular", "small_world", "ring"), "topology")
    check_positive_int(degree, "degree")
    check_probability(rewiring_probability, "rewiring_probability")
    if n_nodes == 1:
        return Overlay([[]], name=topology)
    if topology == "complete":
        return Overlay.complete(n_nodes)
    if topology == "ring":
        return Overlay(_ring(n_nodes), name=topology)
    rng = np.random.default_rng(seed)
    effective_degree = min(degree, n_nodes - 1)
    if topology == "random_regular":
        if (effective_degree * n_nodes) % 2 == 1:
            if effective_degree == 1:
                raise GossipError(f"no 1-regular graph on {n_nodes} nodes exists")
            effective_degree -= 1
        generate = partial(_random_regular, n_nodes, effective_degree, rng)
    else:  # small_world
        generate = partial(_small_world, n_nodes, max(1, effective_degree // 2),
                           rewiring_probability, rng)
    for _ in range(_CONNECT_TRIES):
        adjacency = generate()
        if adjacency is None:
            continue
        overlay = Overlay(adjacency, name=topology)
        if overlay.is_connected():
            return overlay
    raise GossipError(
        f"no connected {topology} overlay with n={n_nodes}, degree={degree} "
        f"in {_CONNECT_TRIES} tries"
    )
