"""Tests of the slab population engine: the vectorised million-node path.

Covers the struct-of-arrays primitives (churn, pairing, averaging, the
shard coordinator) and the cost extrapolation machinery
(``bootstrap_extrapolate``).  The
determinism contract under test: the slab churn step consumes its random
stream with exactly the same shapes as ``CycleEngine._apply_churn``, and
shard-count never changes results.  End-to-end slab-vs-object equivalence
lives in ``test_slab_equivalence.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slab_runner import ExtrapolatedCost, bootstrap_extrapolate
from repro.exceptions import AnalysisError, SimulationError, ValidationError
from repro.simulation import (
    CycleEngine,
    Node,
    RngRegistry,
    ShardCoordinator,
    average_pairs_inplace,
    pair_online,
    slab_churn_step,
)
from repro.simulation.slab import half_average_pairs_inplace, plan_pair_faults


class IdleNode(Node):
    """A node that does nothing — churn parity only needs online flags."""

    def next_cycle(self, engine, cycle) -> None:
        pass

    def receive(self, engine, message) -> None:
        pass


class TestSlabChurnParity:
    """slab_churn_step flips the same nodes as CycleEngine._apply_churn."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_nodes=st.integers(2, 40),
        churn_rate=st.floats(0.0, 1.0),
        rejoin_rate=st.floats(0.0, 1.0),
        cycles=st.integers(1, 8),
    )
    def test_flip_parity_with_engine(self, seed, n_nodes, churn_rate,
                                     rejoin_rate, cycles):
        nodes = [IdleNode(i) for i in range(n_nodes)]
        engine = CycleEngine(nodes, seed=seed, churn_rate=churn_rate,
                             rejoin_rate=rejoin_rate)
        online = np.ones(n_nodes, dtype=bool)
        rng = RngRegistry(seed).stream("engine.churn")
        for cycle in range(cycles):
            engine._apply_churn(cycle)
            slab_churn_step(online, churn_rate, rejoin_rate, rng)
            flags = np.array([node.online for node in nodes])
            assert np.array_equal(online, flags)

    def test_zero_churn_consumes_no_stream(self):
        online = np.ones(10, dtype=bool)
        rng = np.random.default_rng(0)
        reference = np.random.default_rng(0)
        flipped = slab_churn_step(online, 0.0, 0.5, rng)
        assert flipped.size == 0
        assert online.all()
        # The stream was not advanced at all.
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("rejoin_rate, draws", [(0.4, 6), (0.0, 5)],
                             ids=["rejoin", "no_rejoin"])
    def test_stream_advances_by_one_uniform_per_subject(self, rejoin_rate, draws):
        """With rejoin possible every node draws one uniform; without it,
        only the online nodes do."""
        online = np.ones(6, dtype=bool)
        online[2] = False
        rng = np.random.default_rng(1)
        reference = np.random.default_rng(1)
        slab_churn_step(online, 0.3, rejoin_rate, rng)
        reference.random(draws)
        assert rng.bit_generator.state == reference.bit_generator.state


class TestPairOnline:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n_nodes=st.integers(0, 60),
           offline=st.sets(st.integers(0, 59)))
    def test_pairs_are_disjoint_and_online(self, seed, n_nodes, offline):
        online = np.ones(n_nodes, dtype=bool)
        for node in offline:
            if node < n_nodes:
                online[node] = False
        pairs = pair_online(online, np.random.default_rng(seed))
        flat = pairs.ravel()
        assert len(set(flat.tolist())) == flat.size  # each node in <= 1 pair
        assert online[flat].all() if flat.size else True
        assert pairs.shape[0] == int(online.sum()) // 2

    def test_deterministic_given_stream(self):
        online = np.ones(20, dtype=bool)
        first = pair_online(online, np.random.default_rng(7))
        second = pair_online(online, np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_one_permutation_of_the_online_nodes(self):
        """A round draws exactly one permutation of the online ids and pairs
        its consecutive entries."""
        online = np.ones(9, dtype=bool)
        online[[1, 4]] = False
        rng = np.random.default_rng(3)
        reference = np.random.default_rng(3)
        pairs = pair_online(online, rng)
        order = reference.permutation(np.nonzero(online)[0])
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(pairs, order[:6].reshape(3, 2))

    def test_fewer_than_two_online_is_empty(self):
        online = np.zeros(5, dtype=bool)
        online[3] = True
        pairs = pair_online(online, np.random.default_rng(0))
        assert pairs.shape == (0, 2)


def _gossip_errors(values, rounds, seed, exchanges=1, drop_probability=0.0):
    """Max relative error of every node's estimate against the true mean,
    after each round of *exchanges* matchings averaged by the kernels."""
    estimates = values.copy()
    mean = values.mean(axis=0)
    online = np.ones(len(values), dtype=bool)
    registry = RngRegistry(seed)
    pairing = registry.stream("slab.pairing")
    loss = registry.stream("slab.loss")
    corruption = registry.stream("slab.corruption")
    errors = []
    for _ in range(rounds):
        for _ in range(exchanges):
            pairs = pair_online(online, pairing)
            plan = plan_pair_faults(pairs, 64, drop_probability, 0.0, loss, corruption)
            average_pairs_inplace(estimates, plan.full_pairs)
            half_average_pairs_inplace(estimates, plan.half_pairs)
        spread = np.linalg.norm(estimates - mean, axis=1).max()
        errors.append(float(spread / np.linalg.norm(mean)))
    return errors, estimates


class TestAveragePairs:
    """One matching averaged by the kernels, and rounds of uniform
    matchings converging to the mean: the gossip the slab engine and the
    plain baseline run."""

    @pytest.fixture(scope="class")
    def values(self):
        return np.random.default_rng(3).uniform(0.0, 1.0, size=(40, 5))

    def test_both_members_adopt_mean(self):
        estimates = np.array([[2.0, 4.0], [4.0, 8.0], [1.0, 1.0]])
        average_pairs_inplace(estimates, np.array([[0, 1]]))
        assert np.array_equal(estimates[0], [3.0, 6.0])
        assert np.array_equal(estimates[1], [3.0, 6.0])
        assert np.array_equal(estimates[2], [1.0, 1.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n_nodes=st.integers(2, 50))
    def test_mass_conservation(self, seed, n_nodes):
        rng = np.random.default_rng(seed)
        estimates = rng.normal(size=(n_nodes, 3))
        before = estimates.sum(axis=0).copy()
        pairs = pair_online(np.ones(n_nodes, dtype=bool), rng)
        average_pairs_inplace(estimates, pairs)
        assert np.allclose(estimates.sum(axis=0), before)

    def test_error_contracts_exponentially(self, values):
        errors, _ = _gossip_errors(values, rounds=24, seed=2)
        assert errors[23] < 0.2 * errors[11]
        assert errors[-1] < 1e-3

    def test_mean_is_preserved_every_round(self, values):
        estimates = values.copy()
        rng = np.random.default_rng(3)
        online = np.ones(len(values), dtype=bool)
        for _ in range(12):
            average_pairs_inplace(estimates, pair_online(online, rng))
            assert np.allclose(estimates.mean(axis=0), values.mean(axis=0),
                               rtol=0.0, atol=1e-12)

    def test_drops_slow_but_do_not_break(self, values):
        lossless, _ = _gossip_errors(values, rounds=40, seed=2)
        lossy, estimates = _gossip_errors(values, rounds=40, seed=2,
                                          drop_probability=0.3)
        assert lossy[9] > lossless[9]
        assert lossy[-1] < 0.05
        # A lost reply moves only the responder, so the population agrees on
        # a value the lost halves pushed off the mean, but it does agree.
        assert np.ptp(estimates, axis=0).max() < 1e-3

    def test_two_exchanges_per_round_converge_faster(self, values):
        slow, _ = _gossip_errors(values, rounds=8, seed=6, exchanges=1)
        fast, _ = _gossip_errors(values, rounds=8, seed=6, exchanges=2)
        assert fast[-1] < slow[-1]


class TestShardCoordinator:
    def test_shard_count_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(40, 9))
        pairs = pair_online(np.ones(40, dtype=bool), rng)
        reference = data.copy()
        average_pairs_inplace(reference, pairs)
        for shards in (1, 2, 4):
            with ShardCoordinator(40, 9, shards=shards) as coordinator:
                coordinator.estimates[:] = data
                coordinator.average_pairs(pairs)
                assert np.array_equal(coordinator.estimates, reference), shards

    def test_rounds_accumulate_across_shards(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(30, 4))
        single = data.copy()
        with ShardCoordinator(30, 4, shards=3) as coordinator:
            coordinator.estimates[:] = data
            for _ in range(5):
                pairs = pair_online(np.ones(30, dtype=bool), rng)
                coordinator.average_pairs(pairs)
                sharded = coordinator.estimates.copy()
        rng = np.random.default_rng(5)
        rng.normal(size=(30, 4))  # consume the data draw
        for _ in range(5):
            pairs = pair_online(np.ones(30, dtype=bool), rng)
            average_pairs_inplace(single, pairs)
        assert np.array_equal(single, sharded)

    def test_shards_capped_by_population(self):
        coordinator = ShardCoordinator(3, 2, shards=8)
        try:
            assert coordinator.shards == 1
        finally:
            coordinator.close()

    def test_close_is_idempotent(self):
        coordinator = ShardCoordinator(10, 2, shards=2)
        coordinator.close()
        coordinator.close()


class TestShardCoordinatorSlabs:
    """The coordinator's arrays are the slab loop's whole state."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_fresh_slabs(self, shards):
        with ShardCoordinator(6, 4, shards=shards) as coordinator:
            assert coordinator.shards == shards
            assert coordinator.estimates.shape == (6, 4)
            assert coordinator.estimates.dtype == np.float64
            assert not coordinator.estimates.any()
            assert coordinator.online.shape == (6,)
            assert coordinator.online.dtype == bool
            assert coordinator.online.all()
            assert coordinator.assigned.shape == (6,)
            assert coordinator.assigned.dtype == np.int32
            assert not coordinator.assigned.any()

    def test_data_must_have_one_row_per_node(self):
        with pytest.raises(SimulationError, match="data has 5 rows"):
            ShardCoordinator(4, 2, data=np.zeros((5, 3)))

    @pytest.mark.parametrize("arguments, keywords", [
        ((0, 2), {}),
        ((4, 0), {}),
        ((4, 2, 0), {}),
        ((4, 2), {"chunk_rows": -1}),
    ], ids=["n_rows", "n_cols", "shards", "chunk_rows"])
    def test_sizes_are_checked(self, arguments, keywords):
        with pytest.raises(ValidationError):
            ShardCoordinator(*arguments, **keywords)

class TestBootstrapExtrapolate:
    def test_full_sample_is_measured_and_exact(self):
        result = bootstrap_extrapolate({"ops": [1.0, 2.0, 3.0]}, population=3)
        assert result.method == "measured"
        estimate, low, high = result.totals["ops"]
        assert estimate == low == high == 6.0

    def test_sampled_totals_bracket_estimate(self):
        rng = np.random.default_rng(0)
        per_node = {"ops": rng.normal(100.0, 5.0, size=50).tolist()}
        result = bootstrap_extrapolate(per_node, population=10_000, seed=1)
        assert result.method == "sampled"
        assert result.sample_size == 50
        estimate, low, high = result.totals["ops"]
        assert low <= estimate <= high
        assert low < high
        # mean ~100 per node, so ~1e6 total.
        assert 0.9e6 < estimate < 1.1e6

    def test_deterministic_given_seed(self):
        per_node = {"ops": [1.0, 5.0, 2.0, 8.0]}
        first = bootstrap_extrapolate(per_node, 100, seed=3)
        second = bootstrap_extrapolate(per_node, 100, seed=3)
        assert first.totals == second.totals

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            bootstrap_extrapolate({"a": [1.0], "b": [1.0, 2.0]}, 10)

    def test_empty_metrics_rejected(self):
        with pytest.raises(AnalysisError):
            bootstrap_extrapolate({"a": []}, 10)

    def test_as_dict_round_trip(self):
        result = bootstrap_extrapolate({"ops": [2.0, 4.0]}, population=2)
        view = result.as_dict()
        assert view["method"] == "measured"
        assert view["population"] == 2
        assert view["totals"]["ops"]["estimate"] == 6.0
        # JSON-serialisable for the result store.
        json.dumps(view)


class TestExtrapolatedCost:
    def test_frozen_value_object(self):
        cost = ExtrapolatedCost(population=10, sample_size=2, method="sampled",
                                totals={"ops": (1.0, 0.5, 1.5)})
        with pytest.raises(AttributeError):
            cost.population = 5
