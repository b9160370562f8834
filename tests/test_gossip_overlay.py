"""Tests of the gossip overlay topologies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GossipError, ValidationError
from repro.gossip import Overlay, build_overlay

TOPOLOGIES = ("complete", "random_regular", "small_world", "ring")


def _assert_well_formed(overlay: Overlay) -> None:
    """Symmetric adjacency, no self-loops, connected."""
    for node in range(overlay.n_nodes):
        peers = overlay.neighbors(node).tolist()
        assert peers == sorted(set(peers))
        assert node not in peers
        for peer in peers:
            assert node in overlay.neighbors(peer).tolist()
        assert overlay.degree(node) == len(peers)
    assert overlay.is_connected()


class TestOverlay:
    def test_complete_graph_degrees(self):
        overlay = build_overlay(10, topology="complete")
        assert overlay.n_nodes == 10
        assert all(overlay.degree(i) == 9 for i in range(10))
        assert overlay.is_connected()

    def test_ring_degrees(self):
        overlay = build_overlay(8, topology="ring")
        assert all(overlay.degree(i) == 2 for i in range(8))

    def test_random_regular_degrees(self):
        overlay = build_overlay(20, topology="random_regular", degree=4, seed=1)
        assert all(overlay.degree(i) == 4 for i in range(20))
        assert overlay.is_connected()

    def test_small_world_connected(self):
        overlay = build_overlay(30, topology="small_world", degree=4, seed=2)
        assert overlay.is_connected()

    def test_single_node_overlay(self):
        overlay = build_overlay(1)
        assert overlay.n_nodes == 1
        assert overlay.degree(0) == 0
        assert overlay.is_connected()

    def test_degree_larger_than_population_is_clamped(self):
        overlay = build_overlay(5, topology="random_regular", degree=50, seed=0)
        assert overlay.is_connected()

    def test_unknown_topology(self):
        with pytest.raises(ValidationError):
            build_overlay(5, topology="hypercube")

    def test_custom_graph_requires_dense_ids(self):
        with pytest.raises(GossipError):
            Overlay([[2], []])

    def test_custom_graph_must_be_symmetric_without_self_loops(self):
        with pytest.raises(GossipError):
            Overlay([[1], []])
        with pytest.raises(GossipError):
            Overlay([[0, 1], [0]])
        with pytest.raises(GossipError):
            Overlay([])

    def test_disconnected_custom_graph(self):
        overlay = Overlay([[1], [0], [3], [2]])
        assert not overlay.is_connected()

    def test_neighbors_sorted(self):
        overlay = build_overlay(6, topology="ring")
        assert list(overlay.neighbors(0)) == [1, 5]

    def test_node_bounds_checked(self):
        overlay = build_overlay(4)
        with pytest.raises(GossipError):
            overlay.neighbors(10)


class TestGenerators:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("n_nodes", [1, 2, 3])
    def test_tiny_populations(self, topology, n_nodes):
        """Every topology at n ∈ {1, 2, 3} builds a well-formed graph or
        raises GossipError — never another library's exception."""
        try:
            overlay = build_overlay(n_nodes, topology=topology, degree=4, seed=0)
        except GossipError:
            return
        assert overlay.n_nodes == n_nodes
        _assert_well_formed(overlay)

    @pytest.mark.parametrize("topology", ["ring", "random_regular", "small_world"])
    def test_two_nodes_share_the_single_edge(self, topology):
        overlay = build_overlay(2, topology=topology, seed=0)
        assert [overlay.neighbors(node).tolist() for node in range(2)] == [[1], [0]]

    def test_random_regular_without_a_regular_graph(self):
        with pytest.raises(GossipError):
            build_overlay(3, topology="random_regular", degree=1, seed=0)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("n_nodes", [4, 7, 16, 41])
    @pytest.mark.parametrize("degree", [2, 3, 4, 6])
    def test_well_formed(self, topology, n_nodes, degree):
        overlay = build_overlay(n_nodes, topology=topology, degree=degree, seed=n_nodes)
        _assert_well_formed(overlay)
        if topology == "random_regular":
            expected = min(degree, n_nodes - 1)
            expected -= (expected * n_nodes) % 2
            assert all(overlay.degree(i) == expected for i in range(n_nodes))

    @pytest.mark.parametrize("topology", ["random_regular", "small_world"])
    def test_same_seed_same_neighbors(self, topology):
        def adjacency(seed):
            overlay = build_overlay(30, topology=topology, degree=4, seed=seed)
            return [overlay.neighbors(node).tolist() for node in range(30)]

        assert adjacency(3) == adjacency(3)
        assert adjacency(3) != adjacency(4)

    def test_small_world_rewires(self):
        lattice = build_overlay(30, topology="small_world", degree=4,
                                rewiring_probability=0.0, seed=0)
        rewired = build_overlay(30, topology="small_world", degree=4,
                                rewiring_probability=0.5, seed=0)
        assert all(lattice.degree(node) == 4 for node in range(30))
        assert any(lattice.neighbors(node).tolist() != rewired.neighbors(node).tolist()
                   for node in range(30))


def _filtered_draw(overlay, node_id, rng, online):
    """Peer sampling as it was written before the complete overlay became
    implicit: filter the sorted neighbours through an online set."""
    candidates = np.array(
        [peer for peer in overlay.neighbors(node_id) if peer in set(online)], dtype=int
    )
    if candidates.size == 0:
        return None
    return int(candidates[int(rng.integers(0, candidates.size))])


class TestNeighborSampling:
    def test_sample_returns_neighbor(self, fresh_rng):
        overlay = build_overlay(10, topology="ring")
        for node in range(10):
            peer = overlay.sample_neighbor(node, fresh_rng)
            assert peer in set(overlay.neighbors(node))

    def test_sample_respects_online_filter(self, fresh_rng):
        overlay = build_overlay(5, topology="complete")
        online = [0, 3]
        for _ in range(10):
            peer = overlay.sample_neighbor(0, fresh_rng, online=online)
            assert peer == 3

    def test_sample_none_when_no_online_neighbor(self, fresh_rng):
        overlay = build_overlay(5, topology="complete")
        assert overlay.sample_neighbor(0, fresh_rng, online=[0]) is None
        assert overlay.sample_neighbor(0, fresh_rng, online=()) is None

    def test_sampling_is_roughly_uniform(self):
        overlay = build_overlay(4, topology="complete")
        rng = np.random.default_rng(0)
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(3000):
            counts[overlay.sample_neighbor(0, rng)] += 1
        for count in counts.values():
            assert count == pytest.approx(1000, rel=0.15)

    @settings(max_examples=150, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        n_nodes=st.integers(1, 40),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_is_bit_identical_to_the_filter(self, topology, n_nodes, data, seed):
        """The bisect path draws the same peer, from the same single
        ``rng.integers`` call, as filtering the sorted neighbours."""
        try:
            overlay = build_overlay(n_nodes, topology=topology, degree=4, seed=1)
        except GossipError:
            return
        node = data.draw(st.integers(0, n_nodes - 1))
        online = sorted(data.draw(st.sets(st.integers(0, n_nodes - 1))))
        everyone = data.draw(st.booleans())
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            if everyone:
                assert overlay.sample_neighbor(node, fast) == _filtered_draw(
                    overlay, node, slow, range(n_nodes))
            else:
                assert overlay.sample_neighbor(node, fast, online=tuple(online)) == \
                    _filtered_draw(overlay, node, slow, online)
        assert fast.bit_generator.state == slow.bit_generator.state
