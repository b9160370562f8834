"""Tests of the cleartext gossip aggregation protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GossipError
from repro.gossip import gossip_average, max_relative_error


@pytest.fixture(scope="module")
def values():
    return np.random.default_rng(3).uniform(0.0, 1.0, size=(40, 5))


class TestPushPull:
    def test_converges_to_global_average(self, values):
        estimates = gossip_average(values, cycles=30, seed=1)
        assert max_relative_error(estimates, values.mean(axis=0)) < 1e-4

    def test_error_decreases_monotonically_overall(self, values):
        _, history = gossip_average(values, cycles=25, seed=1, return_history=True)
        assert history[-1] < history[0]
        assert history[-1] < 1e-3

    def test_exponential_convergence_rate(self, values):
        """The error after 2c cycles should be far below the error after c cycles."""
        _, history = gossip_average(values, cycles=24, seed=2, return_history=True)
        assert history[23] < history[11] * 0.2

    def test_mass_conservation(self, values):
        """Pairwise averaging conserves the global mean exactly."""
        estimates = gossip_average(values, cycles=7, seed=3)
        assert np.allclose(estimates.mean(axis=0), values.mean(axis=0), atol=1e-12)

    def test_single_node_is_trivial(self):
        single = np.array([[1.0, 2.0, 3.0]])
        estimates = gossip_average(single, cycles=3)
        assert np.allclose(estimates, single)

    def test_works_on_ring_topology(self, values):
        # Diffusion on a ring is slow (mixing time O(n^2)); the point is only
        # that the protocol still converges on a sparse, badly-mixing overlay.
        estimates = gossip_average(values, cycles=150, topology="ring", seed=4)
        assert max_relative_error(estimates, values.mean(axis=0)) < 0.05

    def test_complete_faster_than_ring(self, values):
        _, complete_history = gossip_average(values, cycles=15, seed=5, return_history=True)
        _, ring_history = gossip_average(
            values, cycles=15, topology="ring", seed=5, return_history=True
        )
        assert complete_history[-1] < ring_history[-1]

    def test_more_exchanges_per_cycle_converge_faster(self, values):
        _, slow = gossip_average(values, cycles=8, exchanges_per_cycle=1, seed=6,
                                 return_history=True)
        _, fast = gossip_average(values, cycles=8, exchanges_per_cycle=3, seed=6,
                                 return_history=True)
        assert fast[-1] < slow[-1]

    def test_message_drops_slow_but_do_not_break(self, values):
        estimates = gossip_average(values, cycles=40, seed=7, drop_probability=0.3)
        assert max_relative_error(estimates, values.mean(axis=0)) < 0.05


class TestPushSum:
    def test_converges_to_global_average(self, values):
        estimates = gossip_average(values, cycles=40, protocol="push_sum", seed=8)
        assert max_relative_error(estimates, values.mean(axis=0)) < 1e-3

    def test_mass_conserved_under_drops(self, values):
        # Push-sum keeps undelivered mass locally, so the weighted average of
        # the (value, weight) pairs is exactly preserved.
        estimates = gossip_average(
            values, cycles=30, protocol="push_sum", seed=9, drop_probability=0.4
        )
        assert max_relative_error(estimates, values.mean(axis=0)) < 0.05

    def test_unknown_protocol(self, values):
        with pytest.raises(GossipError):
            gossip_average(values, cycles=3, protocol="broadcast")


class TestErrorMetrics:
    def test_zero_error_for_exact_estimates(self, values):
        average = values.mean(axis=0)
        exact = np.tile(average, (values.shape[0], 1))
        assert max_relative_error(exact, average) == 0.0

    def test_zero_average_handled(self):
        estimates = np.ones((3, 2))
        assert np.isfinite(max_relative_error(estimates, np.zeros(2)))
