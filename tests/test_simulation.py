"""Tests of the cycle-driven simulation substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError, ValidationError
from repro.simulation import CycleEngine, Message, Network, Node, RngRegistry


class CountingNode(Node):
    """Minimal node that counts how many times it was scheduled."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.calls = 0
        self.received: list[object] = []

    def next_cycle(self, engine: CycleEngine, cycle: int) -> None:
        self.calls += 1

    def receive(self, engine: CycleEngine, message) -> None:
        self.received.append(message.payload)


class CycleRecorder:
    """Observer recording each completed cycle and how many nodes are online."""

    def __init__(self) -> None:
        self.cycles: list[int] = []
        self.online: list[int] = []

    def after_cycle(self, engine: CycleEngine, cycle: int) -> None:
        self.cycles.append(cycle)
        self.online.append(len(engine.online_ids()))


class TestRngRegistry:
    def test_same_name_same_stream(self):
        registry = RngRegistry(7)
        assert registry.stream("a") is registry.stream("a")

    def test_distinct_names_independent(self):
        registry = RngRegistry(7)
        a = registry.stream("a").random(5)
        b = registry.stream("b").random(5)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        first = RngRegistry(7).stream("gossip").random(5)
        second = RngRegistry(7).stream("gossip").random(5)
        assert np.allclose(first, second)

    def test_different_seeds_differ(self):
        first = RngRegistry(1).stream("x").random(5)
        second = RngRegistry(2).stream("x").random(5)
        assert not np.allclose(first, second)

    def test_empty_name_rejected(self):
        with pytest.raises(SimulationError):
            RngRegistry(0).stream("")


class TestNetwork:
    def test_delivery_and_accounting(self):
        network = Network(3)
        delivered = network.send(Message(sender=0, recipient=1, kind="x", payload=None,
                                         size_bytes=100))
        assert delivered
        assert network.stats_for(0).messages_sent == 1
        assert network.stats_for(0).bytes_sent == 100
        assert network.stats_for(1).messages_received == 1
        assert network.total.bytes_received == 100

    def test_drops_are_counted_but_not_received(self):
        network = Network(2, drop_probability=1.0, rng=np.random.default_rng(0))
        delivered = network.send(Message(0, 1, "x", None, 10))
        assert not delivered
        assert network.total.messages_dropped == 1
        assert network.stats_for(1).messages_received == 0

    def test_invalid_node_rejected(self):
        network = Network(2)
        with pytest.raises(SimulationError):
            network.send(Message(0, 5, "x", None))

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            Message(0, 1, "x", None, size_bytes=-1)

    def test_per_node_stats_are_indexed_by_id_and_sum_to_the_total(self):
        network = Network(3)
        network.send(Message(0, 1, "x", None, size_bytes=10, modelled_bytes=8))
        network.send(Message(2, 1, "x", None, size_bytes=5))
        network.send(Message(1, 0, "x", None, size_bytes=7))
        stats = network.per_node_stats()
        assert [s.messages_sent for s in stats] == [1, 1, 1]
        assert [s.messages_received for s in stats] == [1, 2, 0]
        assert [s.bytes_modelled for s in stats] == [8, 7, 5]
        for field, total in network.total.as_dict().items():
            assert sum(s.as_dict()[field] for s in stats) == total
        assert stats[1] is network.stats_for(1)
        stats.clear()  # a copy of the index, not the network's own list
        assert len(network.per_node_stats()) == 3

    def test_partial_drops_follow_the_drop_stream(self):
        network = Network(2, drop_probability=0.5, rng=np.random.default_rng(8))
        delivered = [network.send(Message(0, 1, "x", None, 1)) for _ in range(200)]
        expected = np.random.default_rng(8).random(200) >= 0.5
        assert delivered == expected.tolist()
        assert network.total.messages_dropped == 200 - sum(delivered)
        assert network.stats_for(1).messages_received == sum(delivered)

    def test_stats_dict(self):
        network = Network(1)
        assert set(network.total.as_dict()) == {
            "messages_sent", "messages_received", "messages_dropped",
            "messages_corrupted", "bytes_sent", "bytes_received",
            "bytes_modelled",
        }


class TestEngine:
    def test_every_online_node_called_once_per_cycle(self):
        nodes = [CountingNode(i) for i in range(5)]
        engine = CycleEngine(nodes, seed=1)
        engine.run(3)
        assert all(node.calls == 3 for node in nodes)

    def test_node_ids_must_be_dense(self):
        with pytest.raises(SimulationError):
            CycleEngine([CountingNode(0), CountingNode(2)])

    def test_offline_nodes_skipped(self):
        nodes = [CountingNode(i) for i in range(3)]
        nodes[1].online = False
        engine = CycleEngine(nodes, seed=1)
        engine.run(2)
        assert nodes[1].calls == 0
        assert nodes[0].calls == 2

    def test_messages_reach_receive_hook(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        assert engine.transport.transmit(0, 1, "ping", b"hello") == b"hello"
        assert nodes[1].received == [b"hello"]

    def test_message_to_offline_node_not_delivered(self):
        nodes = [CountingNode(i) for i in range(2)]
        nodes[1].online = False
        engine = CycleEngine(nodes, seed=0)
        assert engine.transport.transmit(0, 1, "ping", b"hello") is None
        assert nodes[1].received == []

    def test_churn_takes_nodes_offline_and_back(self):
        nodes = [CountingNode(i) for i in range(30)]
        engine = CycleEngine(nodes, seed=3, churn_rate=0.5, rejoin_rate=0.5)
        observer = CycleRecorder()
        engine.add_observer(observer)
        engine.run(10)
        assert min(observer.online) < 30
        assert max(observer.online) > 0

    def test_observers_called_each_cycle(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        observer = CycleRecorder()
        engine.add_observer(observer)
        engine.run(4)
        assert observer.cycles == [0, 1, 2, 3]

    def test_stop_condition(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        executed = engine.run(100, stop_when=lambda eng: nodes[0].calls >= 5)
        assert executed == 5

    def test_stop_condition_never_true_runs_every_cycle(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        assert engine.run(7, stop_when=lambda eng: False) == 7
        assert engine.current_cycle == 6  # cycles are numbered from 0
        assert engine.run(0) == 0
        with pytest.raises(ValidationError):
            engine.run(-1)

    def test_node_lookup(self):
        nodes = [CountingNode(i) for i in range(3)]
        engine = CycleEngine(nodes, seed=0)
        assert engine.node(2) is nodes[2]
        assert engine.n_nodes == 3
        with pytest.raises(SimulationError):
            engine.node(3)

    def test_without_rejoining_the_online_set_only_shrinks(self):
        nodes = [CountingNode(i) for i in range(30)]
        engine = CycleEngine(nodes, seed=2, churn_rate=0.2, rejoin_rate=0.0)
        previous = set(engine.online_ids())
        for _ in range(10):
            engine.run_cycle()
            current = set(engine.online_ids())
            assert current <= previous
            previous = current
        assert len(previous) < 30

    def test_deterministic_given_seed(self):
        def run(seed):
            nodes = [CountingNode(i) for i in range(10)]
            engine = CycleEngine(nodes, seed=seed, churn_rate=0.2, rejoin_rate=0.5)
            observer = CycleRecorder()
            engine.add_observer(observer)
            engine.run(5)
            return observer.online

        assert run(4) == run(4)
        assert run(4) != run(5) or True  # different seeds may coincide, but usually differ


class TestOnlineIndex:
    """The engine's incremental online-id index."""

    def test_direct_online_assignment_updates_index(self):
        nodes = [CountingNode(i) for i in range(6)]
        engine = CycleEngine(nodes, seed=0)
        assert engine.online_ids() == [0, 1, 2, 3, 4, 5]
        nodes[2].online = False
        nodes[4].online = False
        assert engine.online_ids() == [0, 1, 3, 5]
        nodes[2].online = True
        assert engine.online_ids() == [0, 1, 2, 3, 5]

    def test_vectorized_churn_matches_sequential_stream(self):
        """One batched draw per cycle consumes the stream like the old loop."""

        def run_with(churn_rate, rejoin_rate, seed, cycles=30):
            nodes = [CountingNode(i) for i in range(40)]
            engine = CycleEngine(
                nodes, seed=seed, churn_rate=churn_rate, rejoin_rate=rejoin_rate
            )
            states = []
            for _ in range(cycles):
                engine.run_cycle()
                states.append(tuple(engine.online_ids()))
            return states

        def run_reference(churn_rate, rejoin_rate, seed, cycles=30):
            nodes = [CountingNode(i) for i in range(40)]
            engine = CycleEngine(
                nodes, seed=seed, churn_rate=churn_rate, rejoin_rate=rejoin_rate
            )

            def sequential_churn(cycle):
                if engine.churn_rate == 0.0:
                    return
                for node in engine.nodes:
                    if node.online:
                        if engine.churn_rate > 0 and engine._churn_rng.random() < engine.churn_rate:
                            node.online = False
                            node.on_offline(engine, cycle)
                    elif engine.rejoin_rate > 0 and engine._churn_rng.random() < engine.rejoin_rate:
                        node.online = True
                        node.on_online(engine, cycle)

            engine._apply_churn = sequential_churn  # type: ignore[method-assign]
            states = []
            for _ in range(cycles):
                engine.run_cycle()
                states.append(tuple(engine.online_ids()))
            return states

        for churn, rejoin in ((0.2, 0.5), (0.3, 0.0), (0.0, 0.5)):
            assert run_with(churn, rejoin, seed=11) == run_reference(churn, rejoin, seed=11)


class TestCorruptionFaultModel:
    def test_disabled_model_is_identity_and_consumes_no_randomness(self):
        rng = np.random.default_rng(3)
        state_before = rng.bit_generator.state
        network = Network(2, corruption_probability=0.0, corruption_rng=rng)
        payload = b"\x00" * 32
        assert network.maybe_corrupt(payload) is payload
        assert rng.bit_generator.state == state_before
        assert network.total.messages_corrupted == 0

    def test_certain_corruption_flips_exactly_one_bit(self):
        network = Network(
            3, corruption_probability=1.0,
            corruption_rng=np.random.default_rng(4),
        )
        payload = bytes(range(64))
        corrupted = network.maybe_corrupt(payload, sender=1)
        assert corrupted != payload
        assert len(corrupted) == len(payload)
        flipped_bits = sum(
            bin(a ^ b).count("1") for a, b in zip(payload, corrupted)
        )
        assert flipped_bits == 1
        assert network.total.messages_corrupted == 1
        assert network.stats_for(1).messages_corrupted == 1
        assert network.stats_for(0).messages_corrupted == 0

    def test_engine_transmit_applies_corruption(self):
        received_payloads = []

        class Recorder(CountingNode):
            def receive(self, engine, message):
                received_payloads.append(message.payload)

        nodes = [Recorder(0), Recorder(1)]
        engine = CycleEngine(nodes, seed=0, corruption_rate=1.0)
        frame = b"\xAA" * 16
        received = engine.transport.transmit(0, 1, "test", frame, modelled_bytes=10)
        assert received is not None and received != frame
        assert received_payloads == [received]
        assert engine.network.total.messages_corrupted == 1
        assert engine.network.total.bytes_sent == len(frame)
        assert engine.network.total.bytes_modelled == 10

    def test_transmit_rejects_non_bytes(self):
        engine = CycleEngine([CountingNode(0), CountingNode(1)], seed=0)
        with pytest.raises(SimulationError):
            engine.transport.transmit(0, 1, "test", "not a frame")  # type: ignore[arg-type]
