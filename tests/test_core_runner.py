"""Integration tests of the full Chiaroscuro protocol run."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ChiaroscuroConfig, run_chiaroscuro
from repro.baselines import centralized_kmeans
from repro.clustering import adjusted_rand_index
from repro.core.convergence import iteration_policy
from repro.core.runner import (
    MAX_EXTRA_CYCLES,
    denormalize_profiles,
    normalize_collection,
    plan_max_cycles,
    run_to_completion,
)
from repro.crypto.cost_profile import REFERENCE_PROFILE
from repro.datasets import generate_gaussian_clusters, generate_numed_like
from repro.exceptions import ConfigurationError, ProtocolError
from repro.simulation import CycleEngine, Node
import generators
import oracles


@pytest.fixture(scope="module")
def collection():
    return generate_gaussian_clusters(
        n_series=40, series_length=12, n_clusters=3, noise_std=0.05, seed=13
    )


@pytest.fixture(scope="module")
def result(collection, fast_config):
    return run_chiaroscuro(collection, fast_config)


class TestNormalization:
    def test_normalize_collection_range(self, collection):
        data, transform = normalize_collection(collection, value_bound=1.0)
        assert data.min() >= 0.0 and data.max() <= 1.0
        assert transform["value_bound"] == 1.0

    def test_denormalize_round_trip(self, collection):
        data, transform = normalize_collection(collection, value_bound=1.0)
        restored = denormalize_profiles(data, transform)
        assert np.allclose(restored, collection.to_matrix(), atol=1e-9)

    def test_constant_collection_handled(self):
        constant = generators.generate_constant_series(5, 4, value=3.0)
        data, _transform = normalize_collection(constant, value_bound=1.0)
        assert np.all(np.isfinite(data))

    def test_denormalize_rejects_zero_scale(self):
        with pytest.raises(ProtocolError):
            denormalize_profiles(np.zeros((2, 2)), {"scale": 0.0, "offset": 0.0})


class ScriptedNode(Node):
    """Done after *steps* cycles; optionally drops offline at its first."""

    def __init__(self, node_id, steps, drops_offline=False):
        super().__init__(node_id)
        self.steps_left = steps
        self.drops_offline = drops_offline

    @property
    def is_done(self):
        return self.steps_left == 0

    def next_cycle(self, engine, cycle):
        self.steps_left = max(0, self.steps_left - 1)
        if self.drops_offline:
            self.drops_offline = False
            self.online = False


class TestRunToCompletion:
    """The catch-up loop the object run and the slab sample share."""

    def test_an_offline_straggler_is_woken_and_finished(self):
        nodes = [ScriptedNode(0, steps=2), ScriptedNode(1, steps=3, drops_offline=True)]
        engine = CycleEngine(nodes, seed=0)
        run_to_completion(engine, nodes, max_cycles=4)
        # engine.run spent its 4 cycles waiting for the offline node, which
        # then needed two more.
        assert all(node.is_done for node in nodes)
        assert nodes[1].online
        assert engine.current_cycle + 1 == 4 + 2

    def test_gives_up_after_max_cycles_extra_cycles(self):
        nodes = [ScriptedNode(0, steps=1), ScriptedNode(1, steps=100)]
        engine = CycleEngine(nodes, seed=0)
        run_to_completion(engine, nodes, max_cycles=4)
        assert not nodes[1].is_done
        assert engine.current_cycle + 1 == 4 + 4


class TestRunOutcome:
    def test_profiles_shape_and_range(self, result, fast_config):
        assert result.profiles.shape == (3, 12)
        assert result.profiles.min() >= 0.0
        assert result.profiles.max() <= fast_config.privacy.value_bound + 1e-9

    def test_every_participant_finished(self, result, collection):
        assert sum(result.stop_reasons.values()) == len(collection)
        assert "unfinished" not in result.stop_reasons
        assert len(result.per_participant_profiles) == len(collection)

    def test_assignments_cover_population(self, result, collection):
        assert result.assignments.shape == (len(collection),)
        assert set(np.unique(result.assignments)).issubset({0, 1, 2})
        assert sum(result.cluster_sizes().values()) == len(collection)

    def test_privacy_budget_respected(self, result, fast_config):
        assert result.epsilon_spent <= fast_config.privacy.epsilon + 1e-9
        assert result.guarantee.effective_epsilon >= result.epsilon_spent
        assert 0.0 <= result.guarantee.delta <= 1.0

    def test_iterations_bounded(self, result, fast_config):
        assert 1 <= result.n_iterations <= fast_config.kmeans.max_iterations

    def test_budget_follows_the_iteration_policy(self, result, fast_config):
        _, strategy, _, _ = iteration_policy(fast_config, result.profiles.shape[1])
        spends = [record.epsilon_spent for record in result.log]
        assert len(spends) == result.n_iterations
        assert spends == pytest.approx(oracles.schedule(strategy)[:len(spends)])
        assert result.epsilon_spent == pytest.approx(sum(spends))

    def test_cycle_budget_covers_every_iteration(self, fast_config):
        """Each iteration is budgeted its gossip cycles plus three more; 50
        spare cycles absorb stragglers."""
        assert MAX_EXTRA_CYCLES == 50
        assert plan_max_cycles(fast_config) == 4 * (6 + 3) + MAX_EXTRA_CYCLES

    def test_costs_are_positive_and_consistent(self, result, collection):
        costs = result.costs
        assert costs.n_participants == len(collection)
        assert costs.messages_sent > 0
        assert costs.bytes_sent > 0
        assert costs.encryptions > 0
        assert costs.bytes_per_participant == pytest.approx(
            costs.bytes_sent / len(collection)
        )
        assert costs.encryptions_per_participant == pytest.approx(
            costs.encryptions / len(collection)
        )
        as_dict = costs.as_dict()
        assert as_dict["messages_per_participant"] > 0

    def test_phase_split_priced_by_the_reference_profile(self, result):
        """Every run result carries the offline/online phase split of its
        operation counts, priced by ``REFERENCE_PROFILE``."""
        costs = result.costs
        priced = REFERENCE_PROFILE.price(costs.crypto_counts)
        assert costs.online_seconds == sum(priced["online"].values()) > 0.0
        assert costs.offline_seconds == sum(priced["offline"].values()) >= 0.0
        as_dict = costs.as_dict()
        assert as_dict["online_seconds"] == costs.online_seconds
        assert set(as_dict["phase_ops"]) == {"offline", "online"}
        assert as_dict["phase_ops"]["online"]["encryptions"] == costs.encryptions
        assert result.metadata["cost_profile"] == REFERENCE_PROFILE.as_dict()

    def test_costs_do_not_depend_on_the_working_directory(
        self, result, collection, fast_config, tmp_path, monkeypatch
    ):
        """The seconds used to come from a file looked up in the working
        directory; a run started anywhere else silently lost them."""
        monkeypatch.chdir(tmp_path)
        elsewhere = run_chiaroscuro(collection, fast_config)
        assert elsewhere.costs.as_dict() == result.costs.as_dict()

    def test_execution_log_populated(self, result):
        assert len(result.log) >= 1
        assert len(result.log) <= result.n_iterations
        record = next(iter(result.log))
        assert record.perturbed_means is not None
        assert record.noise_free_means is not None
        assert record.epsilon_spent > 0
        assert record.costs["messages_sent"] > 0

    def test_tracked_participants_followed(self, result):
        history = result.log.tracked_assignment_history()
        assert len(history) >= 1
        for assignments in history.values():
            assert all(0 <= cluster < 3 for cluster in assignments)

    def test_participant_views_agree(self, result):
        """After convergence every participant's profiles are close to the consensus."""
        for profiles in result.per_participant_profiles.values():
            assert np.linalg.norm(profiles - result.profiles) / max(
                1e-9, np.linalg.norm(result.profiles)
            ) < 0.6

    def test_summary_is_json_friendly(self, result):
        import json

        json.dumps(result.summary())

class TestRunBehaviour:
    def test_deterministic_given_seed(self, collection, fast_config):
        first = run_chiaroscuro(collection, fast_config)
        second = run_chiaroscuro(collection, fast_config)
        assert np.allclose(first.profiles, second.profiles)

    def test_quality_improves_with_epsilon(self, collection, fast_config):
        loose = run_chiaroscuro(
            collection, fast_config.with_overrides(privacy={"epsilon": 0.1})
        )
        tight = run_chiaroscuro(
            collection, fast_config.with_overrides(privacy={"epsilon": 50.0})
        )
        assert tight.inertia < loose.inertia

    def test_high_epsilon_recovers_partition(self, collection, fast_config):
        config = fast_config.with_overrides(
            privacy={"epsilon": 200.0}, kmeans={"n_clusters": 3, "max_iterations": 6}
        )
        result = run_chiaroscuro(collection, config)
        labels = np.array(collection.labels("cluster"))
        assert adjusted_rand_index(labels, result.assignments) > 0.8

    def test_comparable_to_centralized_at_high_epsilon(self, collection, fast_config):
        config = fast_config.with_overrides(privacy={"epsilon": 200.0})
        result = run_chiaroscuro(collection, config)
        data, _ = normalize_collection(collection, 1.0)
        from repro.timeseries import TimeSeriesCollection

        normalised = TimeSeriesCollection.from_matrix(data)
        reference = centralized_kmeans(normalised, config.kmeans, seed=0, n_restarts=3)
        assert result.inertia <= reference.inertia * 10

    def test_budget_exhaustion_stops_early(self, collection, fast_config):
        config = fast_config.with_overrides(
            privacy={"epsilon": 0.2, "budget_strategy": "uniform"},
            kmeans={"n_clusters": 3, "max_iterations": 10},
        )
        result = run_chiaroscuro(collection, config)
        assert result.epsilon_spent <= 0.2 + 1e-9

    def test_churn_does_not_break_the_run(self, collection, fast_config):
        config = fast_config.with_overrides(
            simulation={"churn_rate": 0.05, "rejoin_rate": 0.6, "seed": 4},
        )
        result = run_chiaroscuro(collection, config)
        assert result.profiles.shape == (3, 12)
        assert sum(result.stop_reasons.values()) == len(collection)

    def test_message_drops_do_not_break_the_run(self, collection, fast_config):
        config = fast_config.with_overrides(gossip={"drop_probability": 0.2})
        result = run_chiaroscuro(collection, config)
        assert result.profiles.shape == (3, 12)

    def test_threshold_larger_than_population_rejected(self, fast_config):
        tiny = generate_gaussian_clusters(n_series=3, series_length=6, n_clusters=2, seed=1)
        config = fast_config.with_overrides(
            kmeans={"n_clusters": 2},
            privacy={"noise_shares": 2},
            crypto={"threshold": 4, "n_key_shares": 6},
        )
        with pytest.raises(ConfigurationError):
            run_chiaroscuro(tiny, config)

    def test_more_clusters_than_participants_rejected(self, fast_config):
        tiny = generate_gaussian_clusters(n_series=2, series_length=6, n_clusters=2, seed=1)
        config = fast_config.with_overrides(
            kmeans={"n_clusters": 5}, privacy={"noise_shares": 2},
            crypto={"threshold": 2, "n_key_shares": 4},
        )
        with pytest.raises(ConfigurationError):
            run_chiaroscuro(tiny, config)

    def test_numed_dataset_runs(self, fast_config):
        patients = generate_numed_like(n_patients=30, n_weeks=20, seed=3)
        config = fast_config.with_overrides(kmeans={"n_clusters": 3, "max_iterations": 3})
        result = run_chiaroscuro(patients, config)
        assert result.profiles.shape == (3, 20)

    @staticmethod
    def tiny_run(**crypto):
        """8 devices, 6-point series, 2 iterations: small enough to pin costs."""
        collection = generate_gaussian_clusters(
            n_series=8, series_length=6, n_clusters=2, noise_std=0.05, seed=21
        )
        config = ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 2, "max_iterations": 2},
            privacy={"epsilon": 20.0, "noise_shares": 4},
            gossip={"cycles_per_aggregation": 3},
            crypto={"threshold": 2, "n_key_shares": 3, "encoding_scale": 10**4,
                    **crypto},
            simulation={"n_participants": 8, "seed": 1},
        )
        return run_chiaroscuro(collection, config)

    def test_real_crypto_end_to_end(self):
        """Full protocol with genuine Damgård–Jurik threshold encryption.

        Kept deliberately tiny (8 devices, 6-point series) so the suite stays
        fast while still exercising the complete encrypted code path.
        """
        result = self.tiny_run(backend="damgard_jurik", key_bits=192)
        assert result.profiles.shape == (2, 6)
        assert result.costs.encryptions > 0
        assert result.costs.partial_decryptions > 0
        # How the simulation draws its blinders is not a device's cost: the
        # counts and their REFERENCE_PROFILE price are those of PR 21.
        costs = result.costs
        assert costs.crypto_counts == {
            "encryptions": 192, "pooled_encryptions": 192, "rerandomizations": 1008,
            "additions": 1008, "partial_decryptions": 192, "combinations": 96,
        }
        assert costs.offline_seconds == pytest.approx(105.276, rel=1e-12)
        assert costs.online_seconds == pytest.approx(33.89781935999999, rel=1e-12)
        assert (costs.messages_sent, costs.bytes_sent) == (148, 78116)

    def test_plain_backend_costs_are_pinned(self):
        """The same run on the (packed) plain backend.

        The plain backend has nothing to refresh and hands back the estimate
        it was given, yet every hop is still counted and priced as a pooled
        refresh: these are the figures of the plain backend that copied.
        """
        costs = self.tiny_run(backend="plain").costs
        assert costs.crypto_counts == {
            "encryptions": 64, "pooled_encryptions": 0, "rerandomizations": 336,
            "additions": 336, "partial_decryptions": 64, "combinations": 32,
        }
        assert costs.offline_seconds == pytest.approx(29.47728, rel=1e-12)
        assert costs.online_seconds == pytest.approx(16.91085968, rel=1e-12)
        assert (costs.messages_sent, costs.bytes_sent) == (148, 245304)
