"""Peer sampling for the gossip layer.

Gossip protocols need each participant to contact uniformly random peers,
which a deployment gets from a peer-sampling service; the convergence
analyses the protocol relies on (Kempe, Dobra, Gehrke, FOCS 2003; Jelasity,
Montresor, Babaoglu, ACM TOCS 2005) assume the same.  Any online node is a
candidate peer, so no neighbour list is stored: sampling costs O(1) memory at
any population.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

import numpy as np


def sample_peer(node_id: int, rng: np.random.Generator, online: Sequence[int]) -> int | None:
    """Uniformly random online peer of *node_id*, or None.

    *online* holds the ascending ids of the online nodes and is read, never
    modified; offline peers cannot answer a gossip exchange.  The draw is one
    ``rng.integers(0, size)`` over the online ids without *node_id*, in
    ascending order, and no draw is made when that set is empty.
    """
    size = len(online)
    position = bisect_left(online, node_id)
    skip = position < size and online[position] == node_id
    size -= skip
    if size == 0:
        return None
    index = int(rng.integers(0, size))
    return int(online[index + (skip and index >= position)])
