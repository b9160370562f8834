"""Tests of step 3 of the execution sequence: the perturbed means and the
termination criteria."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.kmeans import centroid_displacement, reseed_centroid
from repro.clustering.smoothing import smooth_centroids
from repro.config import SMOOTHING_METHODS, ChiaroscuroConfig
from repro.core import TerminationCriteria
from repro.core.convergence import perturbed_means
from repro.crypto.backends import PlainBackend
from repro.exceptions import ValidationError
from test_core_participant import decrypting_participant, drive

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


class TestBasicCriteria:
    def test_converged_below_threshold(self):
        criteria = TerminationCriteria(convergence_threshold=0.1, max_iterations=10)
        stop, reason = criteria.should_stop(1, 0.05)
        assert stop and reason == "converged"

    def test_continue_above_threshold(self):
        criteria = TerminationCriteria(convergence_threshold=0.1, max_iterations=10,
                                       track_quality=False)
        stop, reason = criteria.should_stop(1, 0.5)
        assert not stop and reason == ""

    def test_max_iterations(self):
        criteria = TerminationCriteria(convergence_threshold=1e-6, max_iterations=3,
                                       track_quality=False)
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
            convergence_threshold=1e-9, max_iterations=100,
            track_quality=True, quality_patience=2,
        )
        assert criteria.should_stop(1, 0.5) == (False, "")
        assert criteria.should_stop(2, 0.6) == (False, "")   # 1st non-improving
        stop, reason = criteria.should_stop(3, 0.7)           # 2nd non-improving
        assert stop and reason == "quality_plateau"

    def test_improvement_resets_patience(self):
        criteria = TerminationCriteria(
            convergence_threshold=1e-9, max_iterations=100,
            track_quality=True, quality_patience=2,
        )
        criteria.should_stop(1, 0.5)
        criteria.should_stop(2, 0.6)   # non-improving
        criteria.should_stop(3, 0.4)   # improves: patience resets
        stop, _reason = criteria.should_stop(4, 0.45)
        assert not stop

    def test_disabled_plateau_never_triggers(self):
        criteria = TerminationCriteria(
            convergence_threshold=1e-9, max_iterations=100, track_quality=False,
        )
        for iteration in range(1, 20):
            stop, _ = criteria.should_stop(iteration, 1.0)
            assert not stop

    def test_reset_clears_patience_state(self):
        criteria = TerminationCriteria(
            convergence_threshold=1e-9, max_iterations=100,
            track_quality=True, quality_patience=1,
        )
        criteria.should_stop(1, 0.5)
        criteria.should_stop(2, 0.9)
        criteria.reset()
        stop, _ = criteria.should_stop(1, 0.9)
        assert not stop
