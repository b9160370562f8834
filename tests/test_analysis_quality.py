"""Integration tests of the quality-analysis helpers (small configurations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    centralized_reference,
    compare_with_baselines,
    evaluate_result,
    heuristics_ablation,
)
from repro.core import run_chiaroscuro
from repro.datasets import generate_gaussian_clusters
from repro.timeseries import MatrixBackedCollection


@pytest.fixture(scope="module")
def collection():
    return generate_gaussian_clusters(
        n_series=36, series_length=10, n_clusters=3, noise_std=0.05, seed=17
    )


@pytest.fixture(scope="module")
def config(fast_config):
    return fast_config.with_overrides(
        kmeans={"n_clusters": 3, "max_iterations": 3},
        gossip={"cycles_per_aggregation": 5},
    )


class TestReference:
    def test_reference_contains_expected_keys(self, collection, config):
        reference = centralized_reference(collection, config)
        assert set(reference) == {"centroids", "inertia", "assignments", "data"}
        assert reference["inertia"] > 0
        assert reference["data"].max() <= config.privacy.value_bound + 1e-9


class TestEvaluateResult:
    def test_report_fields(self, collection, config):
        result = run_chiaroscuro(collection, config)
        report = evaluate_result(collection, config, result, label_key="cluster")
        assert report["relative_inertia"] >= 1.0 or report["relative_inertia"] > 0
        assert "adjusted_rand_index" in report
        assert "centroid_matching_error" in report
        assert report["epsilon_spent"] <= config.privacy.epsilon + 1e-9

    def test_missing_labels_skip_ari(self, collection, config):
        result = run_chiaroscuro(collection, config)
        report = evaluate_result(collection, config, result, label_key="not-there")
        assert "adjusted_rand_index" not in report


class TestComparison:
    def test_compare_with_baselines_ordering(self, collection, config):
        reports = compare_with_baselines(collection, config, label_key="cluster")
        assert set(reports) == {
            "centralized", "centralized_dp", "distributed_plain", "chiaroscuro", "random",
        }
        assert reports["centralized"]["relative_inertia"] == pytest.approx(1.0)
        # The non-private distributed baseline tracks the centralised one closely.
        assert reports["distributed_plain"]["relative_inertia"] < 2.0
        # Private methods cannot beat the centralised reference.
        assert reports["chiaroscuro"]["relative_inertia"] >= 0.99
        # And the random "clustering" is the worst of all.
        assert reports["random"]["relative_inertia"] >= reports["centralized"]["relative_inertia"]

    def test_a_matrix_backed_collection_compares_like_the_dense_one(self, collection, config):
        matrix_backed = MatrixBackedCollection(
            collection.to_matrix(), name=collection.name, label_key="cluster",
            labels=np.asarray(collection.labels("cluster")),
        )
        assert compare_with_baselines(matrix_backed, config, label_key="cluster") \
            == compare_with_baselines(collection, config, label_key="cluster")


class TestAblation:
    def test_heuristics_ablation_grid(self, collection, config):
        rows = heuristics_ablation(
            collection, config,
            strategies=("uniform", "geometric"),
            smoothing_methods=("none", "moving_average"),
            label_key="cluster",
        )
        assert len(rows) == 4
        combos = {(row["budget_strategy"], row["smoothing"]) for row in rows}
        assert ("uniform", "none") in combos and ("geometric", "moving_average") in combos
        for row in rows:
            assert np.isfinite(row["relative_inertia"])
