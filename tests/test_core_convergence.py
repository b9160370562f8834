"""Tests of step 3 of the execution sequence: the perturbed means and the
termination criteria."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.kmeans import centroid_displacement, reseed_centroid
from repro.clustering.smoothing import smooth_centroids
from repro.config import SMOOTHING_METHODS, ChiaroscuroConfig
from repro.core import TerminationCriteria
from repro.core.convergence import QUALITY_PATIENCE, iteration_policy, perturbed_means
from repro.core.runner import run_chiaroscuro
from repro.crypto.backends import PlainBackend
from repro.datasets import load_dataset_for_population
from repro.exceptions import ValidationError
from repro.privacy.strategies import (
    AdaptiveBudgetStrategy,
    GEOMETRIC_RATIO,
    GeometricBudgetStrategy,
    UniformBudgetStrategy,
)
from test_core_participant import decrypting_participant, drive, make_participants
import oracles

N_NODES = 50  # a cluster is empty at or below a count of 1 / (2 * 50) = 0.01


def means_config(method="none"):
    return ChiaroscuroConfig().with_overrides(
        simulation={"seed": 9}, smoothing={"method": method},
    )


def loop_oracle(averages, centroids, n_nodes, iteration, config):
    """The rule as the participant used to spell it, one cluster at a time."""
    k, length = centroids.shape
    bound = config.privacy.value_bound
    min_count = 1.0 / (2.0 * max(1, n_nodes))
    perturbed = np.empty((k, length))
    counts = np.zeros(k)
    for cluster, values in enumerate(averages):
        counts[cluster] = float(values[length])
        if counts[cluster] <= min_count:
            perturbed[cluster] = centroids[cluster]
        else:
            perturbed[cluster] = values[:length] / counts[cluster]
    perturbed = np.clip(perturbed, 0.0, bound)
    donor = int(np.argmax(counts))
    for cluster in range(k):
        if counts[cluster] <= min_count and cluster != donor:
            perturbed[cluster] = reseed_centroid(
                perturbed[donor], bound, iteration, cluster, seed=config.simulation.seed
            )
    perturbed = smooth_centroids(perturbed, config.smoothing)
    return perturbed, centroid_displacement(centroids, perturbed)


def mixed_averages(rng, length=8):
    """Five clusters: 0 populated (the donor), 1 and 3 empty, 2 populated
    with means outside [0, 1], 4 with a negative noisy count."""
    counts = np.array([0.4, 0.005, 0.3, 0.0, -0.02])
    means = rng.uniform(0.0, 1.0, size=(5, length))
    means[2] = rng.uniform(-0.5, 1.5, size=length)
    return np.hstack([means * counts[:, None], counts[:, None]])


def all_empty_averages(rng, length=8):
    """No cluster above the threshold: the donor (cluster 2) is empty too."""
    counts = np.array([0.001, -0.3, 0.009, 0.0, 0.002])
    return np.hstack([rng.normal(0.0, 0.01, size=(5, length)), counts[:, None]])


class TestPerturbedMeans:
    @pytest.mark.parametrize("method", SMOOTHING_METHODS)
    @pytest.mark.parametrize("build", [mixed_averages, all_empty_averages])
    def test_equals_the_per_cluster_rule(self, build, method):
        rng = np.random.default_rng(3)
        averages = build(rng)
        centroids = rng.uniform(-0.2, 1.2, size=(5, 8))
        config = means_config(method)
        perturbed, displacement = perturbed_means(averages, centroids, N_NODES, 4, config)
        expected, expected_displacement = loop_oracle(
            averages, centroids, N_NODES, 4, config
        )
        assert np.array_equal(perturbed, expected)
        assert displacement == expected_displacement

    def test_each_branch_of_the_rule(self):
        rng = np.random.default_rng(3)
        averages = mixed_averages(rng)
        centroids = rng.uniform(0.0, 1.0, size=(5, 8))
        before = centroids.copy()
        config = means_config()
        perturbed, displacement = perturbed_means(averages, centroids, N_NODES, 4, config)
        # populated: sum / count
        assert np.array_equal(perturbed[0], averages[0, :8] / 0.4)
        # populated, outside the bound: clipped
        raw = averages[2, :8] / 0.3
        assert raw.min() < 0.0 and raw.max() > 1.0
        assert np.array_equal(perturbed[2], np.clip(raw, 0.0, 1.0))
        # empty and not the donor: reseeded from the clipped donor
        for cluster in (1, 3, 4):
            assert np.array_equal(
                perturbed[cluster], reseed_centroid(perturbed[0], 1.0, 4, cluster, seed=9)
            )
        assert displacement == centroid_displacement(before, perturbed)
        assert np.array_equal(centroids, before)  # the input is not written to

    def test_an_empty_donor_keeps_its_centroid(self):
        rng = np.random.default_rng(3)
        averages = all_empty_averages(rng)
        centroids = rng.uniform(-0.2, 1.2, size=(5, 8))
        perturbed, _ = perturbed_means(averages, centroids, N_NODES, 2, means_config())
        kept = np.clip(centroids[2], 0.0, 1.0)
        assert np.array_equal(perturbed[2], kept)
        for cluster in (0, 1, 3, 4):
            assert np.array_equal(
                perturbed[cluster], reseed_centroid(kept, 1.0, 2, cluster, seed=9)
            )

    def test_the_participant_applies_it_to_its_decrypted_vectors(self):
        participant = decrypting_participant(PlainBackend(threshold=2, n_shares=3))
        centroids = participant.centroids.copy()
        decrypted = [
            np.append(np.linspace(0.1, 0.9, 6) / 6.0, 1.0 / 6.0),
            np.zeros(7),
            np.append(np.linspace(2.0, -1.0, 6) / 3.0, 1.0 / 3.0),
        ]
        drive(participant, [decrypted])
        perturbed, displacement = perturbed_means(
            np.stack(decrypted), centroids, 6, 1, participant.config
        )
        assert np.array_equal(participant.perturbed_means_history[0], perturbed)
        assert np.array_equal(participant.centroids, perturbed)
        assert participant.displacement_history == [displacement]


def policy_config(**privacy):
    return ChiaroscuroConfig().with_overrides(
        kmeans={"max_iterations": 6, "convergence_threshold": 0.02},
        privacy={"epsilon": 3.0, "value_bound": 2.0, "delta_slack": 1e-6, **privacy},
    )


class TestIterationPolicy:
    def test_sensitivity_follows_the_privacy_section(self):
        sensitivity, _, _, _ = iteration_policy(policy_config(), series_length=12)
        assert sensitivity.series_length == 12
        assert sensitivity.sum_sensitivity == 24.0
        assert sensitivity.count_sensitivity == 1.0
        assert sensitivity.laplace_scale(0.5) == pytest.approx(25.0 / 0.5)

    @pytest.mark.parametrize("name, kind", [
        ("uniform", UniformBudgetStrategy),
        ("geometric", GeometricBudgetStrategy),
        ("adaptive", AdaptiveBudgetStrategy),
    ])
    def test_strategy_spends_the_whole_budget_over_max_iterations(self, name, kind):
        _, strategy, _, _ = iteration_policy(policy_config(budget_strategy=name), 12)
        assert type(strategy) is kind
        schedule = oracles.schedule(strategy)
        assert len(schedule) == 6
        assert sum(schedule) == pytest.approx(3.0)

    def test_geometric_budgets_grow_by_the_constant_ratio(self):
        _, strategy, _, _ = iteration_policy(policy_config(budget_strategy="geometric"), 12)
        schedule = oracles.schedule(strategy)
        assert [b / a for a, b in zip(schedule, schedule[1:])] == pytest.approx(
            [GEOMETRIC_RATIO] * 5
        )
        assert GEOMETRIC_RATIO == 1.3

    def test_accountant_carries_the_budget_and_the_delta_slack(self):
        _, _, accountant, _ = iteration_policy(policy_config(), 12)
        assert accountant.total_epsilon == 3.0
        assert accountant.delta_slack == 1e-6
        assert list(accountant) == []

    def test_termination_follows_the_kmeans_section(self):
        _, _, _, termination = iteration_policy(policy_config(), 12)
        assert termination == TerminationCriteria(
            convergence_threshold=0.02, max_iterations=6, quality_patience=QUALITY_PATIENCE,
        )
        assert termination.should_stop(6, 1.0) == (True, "max_iterations")

    def test_every_call_builds_fresh_state(self):
        config = policy_config()
        first = iteration_policy(config, 12)
        second = iteration_policy(config, 12)
        first[2].spend(1.0)
        assert second[2].spent_epsilon == 0.0
        assert first[3] is not second[3]

    def test_the_participant_runs_the_policy_of_its_config(self):
        participants, config, data = make_participants(config=policy_config().with_overrides(
            kmeans={"n_clusters": 2},
            privacy={"noise_shares": 3},
            crypto={"threshold": 2, "n_key_shares": 3},
            simulation={"n_participants": 6, "seed": 0},
        ))
        sensitivity, strategy, accountant, termination = iteration_policy(
            config, data.shape[1]
        )
        participant = participants[0]
        assert participant.sensitivity == sensitivity
        assert oracles.schedule(participant.strategy) == oracles.schedule(strategy)
        assert (participant.accountant.total_epsilon, participant.accountant.delta_slack,
                list(participant.accountant)) == (
            accountant.total_epsilon, accountant.delta_slack, list(accountant))
        assert participant.termination == termination
        assert participants[1].accountant is not participant.accountant

    def test_the_sampled_slab_run_spends_the_policy_schedule(self):
        config = ChiaroscuroConfig().with_overrides(
            simulation={"n_participants": 60, "seed": 5},
            kmeans={"n_clusters": 3, "max_iterations": 3},
            privacy={"epsilon": 4.0, "noise_shares": 12},
            gossip={"cycles_per_aggregation": 4},
            crypto={"threshold": 2, "n_key_shares": 4},
            runtime={"engine": "slab", "crypto_sample_fraction": 0.25},
        )
        collection = load_dataset_for_population("gaussian", 60, 5, n_clusters=3,
                                                 noise_std=0.05)
        result = run_chiaroscuro(collection, config)
        assert result.metadata["engine"]["name"] == "slab"
        _, strategy, _, _ = iteration_policy(config, result.profiles.shape[1])
        spends = [record.epsilon_spent for record in result.log]
        assert len(spends) == result.n_iterations
        assert spends == pytest.approx(oracles.schedule(strategy)[:len(spends)])
        assert result.epsilon_spent == pytest.approx(sum(spends))


class TestBasicCriteria:
    def test_converged_below_threshold(self):
        criteria = TerminationCriteria(convergence_threshold=0.1, max_iterations=10)
        stop, reason = criteria.should_stop(1, 0.05)
        assert stop and reason == "converged"

    def test_continue_above_threshold(self):
        criteria = TerminationCriteria(convergence_threshold=0.1, max_iterations=10,
                                       quality_patience=11)
        stop, reason = criteria.should_stop(1, 0.5)
        assert not stop and reason == ""

    def test_max_iterations(self):
        criteria = TerminationCriteria(convergence_threshold=1e-6, max_iterations=3,
                                       quality_patience=4)
        stop, reason = criteria.should_stop(3, 1.0)
        assert stop and reason == "max_iterations"

    def test_exact_threshold_counts_as_converged(self):
        criteria = TerminationCriteria(convergence_threshold=0.1, max_iterations=10)
        stop, reason = criteria.should_stop(1, 0.1)
        assert stop and reason == "converged"

    def test_negative_displacement_rejected(self):
        criteria = TerminationCriteria()
        with pytest.raises(ValidationError):
            criteria.should_stop(1, -0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            TerminationCriteria(max_iterations=0)
        with pytest.raises(ValidationError):
            TerminationCriteria(convergence_threshold=-1.0)


class TestQualityPlateau:
    def test_plateau_triggers_after_patience(self):
        criteria = TerminationCriteria(
            convergence_threshold=1e-9, max_iterations=100, quality_patience=2,
        )
        assert criteria.should_stop(1, 0.5) == (False, "")
        assert criteria.should_stop(2, 0.6) == (False, "")   # 1st non-improving
        stop, reason = criteria.should_stop(3, 0.7)           # 2nd non-improving
        assert stop and reason == "quality_plateau"

    def test_improvement_resets_patience(self):
        criteria = TerminationCriteria(
            convergence_threshold=1e-9, max_iterations=100, quality_patience=2,
        )
        criteria.should_stop(1, 0.5)
        criteria.should_stop(2, 0.6)   # non-improving
        criteria.should_stop(3, 0.4)   # improves: patience resets
        stop, _reason = criteria.should_stop(4, 0.45)
        assert not stop

    def test_patience_above_max_iterations_never_triggers(self):
        criteria = TerminationCriteria(
            convergence_threshold=1e-9, max_iterations=100, quality_patience=101,
        )
        for iteration in range(1, 20):
            stop, _ = criteria.should_stop(iteration, 1.0)
            assert not stop
