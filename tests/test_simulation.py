"""Tests of the cycle-driven simulation substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError, ValidationError
from repro.simulation import (
    CallbackObserver,
    CycleEngine,
    HistoryObserver,
    Message,
    Network,
    Node,
    OnlineCountObserver,
    RngRegistry,
    run_until,
)


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

    def test_spawn_gives_fresh_streams(self):
        registry = RngRegistry(0)
        a = registry.spawn("exp")
        b = registry.spawn("exp")
        assert not np.allclose(a.random(5), b.random(5))

    def test_empty_name_rejected(self):
        with pytest.raises(SimulationError):
            RngRegistry(0).stream("")

    def test_names_listed(self):
        registry = RngRegistry(0)
        registry.stream("one")
        registry.stream("two")
        assert set(registry.names()) == {"one", "two"}


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
        assert network.average_bytes_sent() == pytest.approx(100 / 3)
        assert network.average_messages_sent() == pytest.approx(1 / 3)

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

    def test_reset_stats(self):
        network = Network(2)
        network.send(Message(0, 1, "x", None, 10))
        network.reset_stats()
        assert network.total.messages_sent == 0

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
        assert engine.transmit(0, 1, "ping", b"hello") == b"hello"
        assert nodes[1].received == [b"hello"]

    def test_message_to_offline_node_not_delivered(self):
        nodes = [CountingNode(i) for i in range(2)]
        nodes[1].online = False
        engine = CycleEngine(nodes, seed=0)
        assert engine.transmit(0, 1, "ping", b"hello") is None
        assert nodes[1].received == []

    def test_churn_takes_nodes_offline_and_back(self):
        nodes = [CountingNode(i) for i in range(30)]
        engine = CycleEngine(nodes, seed=3, churn_rate=0.5, rejoin_rate=0.5)
        observer = OnlineCountObserver()
        engine.add_observer(observer)
        engine.run(10)
        assert min(observer.counts) < 30
        assert max(observer.counts) > 0

    def test_random_online_peer_excludes_self(self):
        nodes = [CountingNode(i) for i in range(4)]
        engine = CycleEngine(nodes, seed=0)
        for _ in range(20):
            peer = engine.random_online_peer(exclude=2)
            assert peer is not None and peer.node_id != 2

    def test_random_online_peer_none_when_alone(self):
        engine = CycleEngine([CountingNode(0)], seed=0)
        assert engine.random_online_peer(exclude=0) is None

    def test_observers_called_each_cycle(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        seen = []
        engine.add_observer(CallbackObserver(lambda eng, cycle: seen.append(cycle)))
        engine.run(4)
        assert seen == [0, 1, 2, 3]

    def test_history_observer_with_stride(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        history = HistoryObserver(lambda eng, cycle: cycle * 10, every=2)
        engine.add_observer(history)
        engine.run(5)
        assert history.cycles == [0, 2, 4]
        assert history.history == [0, 20, 40]

    def test_stop_condition(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        executed = engine.run(100, stop_when=lambda eng: nodes[0].calls >= 5)
        assert executed == 5

    def test_run_until(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        cycles = run_until(engine, lambda eng: nodes[0].calls >= 3, max_cycles=10)
        assert cycles == 3

    def test_run_until_raises_when_never_true(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        with pytest.raises(SimulationError):
            run_until(engine, lambda eng: False, max_cycles=3)

    def test_deterministic_given_seed(self):
        def run(seed):
            nodes = [CountingNode(i) for i in range(10)]
            engine = CycleEngine(nodes, seed=seed, churn_rate=0.2, rejoin_rate=0.5)
            observer = OnlineCountObserver()
            engine.add_observer(observer)
            engine.run(5)
            return observer.counts

        assert run(4) == run(4)
        assert run(4) != run(5) or True  # different seeds may coincide, but usually differ


class TestOnlineIndex:
    """The engine's incremental online-id index (fast peer sampling)."""

    def test_direct_online_assignment_updates_index(self):
        nodes = [CountingNode(i) for i in range(6)]
        engine = CycleEngine(nodes, seed=0)
        assert engine.online_ids() == [0, 1, 2, 3, 4, 5]
        nodes[2].online = False
        nodes[4].online = False
        assert engine.online_ids() == [0, 1, 3, 5]
        assert [node.node_id for node in engine.online_nodes()] == [0, 1, 3, 5]
        nodes[2].online = True
        assert engine.online_ids() == [0, 1, 2, 3, 5]

    def test_random_online_peer_respects_exclusion(self):
        nodes = [CountingNode(i) for i in range(5)]
        engine = CycleEngine(nodes, seed=0)
        for node_id in (1, 2, 4):
            nodes[node_id].online = False
        for _ in range(20):
            peer = engine.random_online_peer(exclude=0)
            assert peer is not None and peer.node_id == 3

    def test_random_online_peer_none_when_everyone_excluded(self):
        nodes = [CountingNode(i) for i in range(2)]
        engine = CycleEngine(nodes, seed=0)
        nodes[1].online = False
        assert engine.random_online_peer(exclude=0) is None

    def test_random_online_peer_matches_historical_selection(self):
        """Bisect-based sampling must pick what the old filtered list did."""
        nodes = [CountingNode(i) for i in range(10)]
        engine = CycleEngine(nodes, seed=7)
        for node_id in (0, 3, 8):
            nodes[node_id].online = False
        for _ in range(50):
            candidates = [
                node for node in engine.nodes if node.online and node.node_id != 4
            ]
            # Replay what the historical implementation would draw with the
            # same scheduler stream, then check the new path agrees.
            state_before = engine._scheduler_rng.bit_generator.state
            peer = engine.random_online_peer(exclude=4)
            engine._scheduler_rng.bit_generator.state = state_before
            index = int(engine._scheduler_rng.integers(0, len(candidates)))
            assert peer is candidates[index]

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
        received = engine.transmit(0, 1, "test", frame, modelled_bytes=10)
        assert received is not None and received != frame
        assert received_payloads == [received]
        assert engine.network.total.messages_corrupted == 1
        assert engine.network.total.bytes_sent == len(frame)
        assert engine.network.total.bytes_modelled == 10

    def test_transmit_rejects_non_bytes(self):
        engine = CycleEngine([CountingNode(0), CountingNode(1)], seed=0)
        with pytest.raises(SimulationError):
            engine.transmit(0, 1, "test", "not a frame")  # type: ignore[arg-type]
