"""Tests of gossip peer sampling over the online population."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip import sample_peer

ONLINE_PATTERNS = {
    "everyone": lambda n, node: list(range(n)),
    "nobody": lambda n, node: [],
    "only_the_node": lambda n, node: [node],
    "everyone_but_the_node": lambda n, node: [peer for peer in range(n) if peer != node],
    "evens": lambda n, node: list(range(0, n, 2)),
    "odds": lambda n, node: list(range(1, n, 2)),
}

NODE_POSITIONS = {
    "first": lambda n: 0,
    "middle": lambda n: n // 2,
    "last": lambda n: n - 1,
}


def _filtered_draw(node_id, rng, online):
    """The reference rule: filter *node_id* out of the online ids, then draw
    one index over what is left."""
    candidates = [peer for peer in online if peer != node_id]
    if not candidates:
        return None
    return candidates[int(rng.integers(0, len(candidates)))]


@pytest.mark.parametrize("position", NODE_POSITIONS)
@pytest.mark.parametrize("pattern", ONLINE_PATTERNS)
@pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 7, 16, 41])
def test_draw_matches_the_filtered_reference(n_nodes, pattern, position):
    node = NODE_POSITIONS[position](n_nodes)
    online = ONLINE_PATTERNS[pattern](n_nodes, node)
    eligible = set(online) - {node}
    fast, slow = np.random.default_rng(n_nodes), np.random.default_rng(n_nodes)
    for _ in range(3):
        peer = sample_peer(node, fast, online)
        if eligible:
            assert peer in eligible
        else:
            assert peer is None
        assert peer == _filtered_draw(node, slow, online)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_sampling_is_roughly_uniform():
    rng = np.random.default_rng(0)
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(3000):
        counts[sample_peer(0, rng, range(4))] += 1
    for count in counts.values():
        assert count == pytest.approx(1000, rel=0.15)


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=st.integers(1, 40),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_is_bit_identical_to_the_filter(n_nodes, data, seed):
    """The bisect path draws the same peer, from the same single
    ``rng.integers`` call, as filtering the online ids."""
    node = data.draw(st.integers(0, n_nodes - 1))
    online = tuple(sorted(data.draw(st.sets(st.integers(0, n_nodes - 1)))))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert sample_peer(node, fast, online) == _filtered_draw(node, slow, online)
    assert fast.bit_generator.state == slow.bit_generator.state
