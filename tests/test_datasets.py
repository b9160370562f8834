"""Tests of the dataset generators and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    CERConfig,
    GaussianClustersConfig,
    NUMEDConfig,
    available_datasets,
    claret_tumor_size,
    generate_cer_like,
    generate_gaussian_clusters,
    generate_numed_like,
    dataset_size_parameter,
    load_dataset,
    load_dataset_for_population,
    register_dataset,
)
from repro.exceptions import DatasetError
import generators


class TestCER:
    def test_shapes_and_metadata(self):
        collection = generate_cer_like(n_households=20, n_days=2, seed=1)
        assert len(collection) == 20
        assert collection.series_length == 2 * 48
        archetypes = set(collection.labels("archetype"))
        assert archetypes.issubset({a.name for a in CERConfig().archetypes})

    def test_values_are_non_negative(self):
        collection = generate_cer_like(n_households=10, n_days=1, seed=2)
        assert collection.to_matrix().min() >= 0.0

    def test_reproducible_with_seed(self):
        a = generate_cer_like(n_households=5, n_days=1, seed=42)
        b = generate_cer_like(n_households=5, n_days=1, seed=42)
        assert np.array_equal(a.to_matrix(), b.to_matrix())

    def test_different_seeds_differ(self):
        a = generate_cer_like(n_households=5, n_days=1, seed=1)
        b = generate_cer_like(n_households=5, n_days=1, seed=2)
        assert not np.array_equal(a.to_matrix(), b.to_matrix())

    def test_archetypes_are_separable(self):
        # Households of different archetypes should differ more than households
        # of the same archetype on average - this is the cluster structure the
        # protocol is supposed to recover.
        collection = generate_cer_like(n_households=60, n_days=1, noise_std_kw=0.01, seed=3)
        matrix = collection.to_matrix()
        labels = np.array(collection.labels("archetype"))
        same, different = [], []
        for i in range(0, 40):
            for j in range(i + 1, 40):
                distance = np.linalg.norm(matrix[i] - matrix[j])
                (same if labels[i] == labels[j] else different).append(distance)
        assert np.mean(same) < np.mean(different)

    def test_weights_bias_archetype_mix(self):
        config = CERConfig(
            n_households=50, n_days=1, seed=0,
            archetype_weights=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        )
        collection = generate_cer_like(config)
        assert set(collection.labels("archetype")) == {"low_consumer"}

    def test_invalid_weights(self):
        with pytest.raises(DatasetError):
            CERConfig(archetype_weights=(1.0,))
        with pytest.raises(DatasetError):
            CERConfig(archetype_weights=(0.0,) * 6)

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(DatasetError):
            generate_cer_like(CERConfig(), n_households=3)


class TestNUMED:
    def test_shapes_and_metadata(self):
        collection = generate_numed_like(n_patients=15, n_weeks=20, seed=1)
        assert len(collection) == 15
        assert collection.series_length == 20
        assert all(label is not None for label in collection.labels("archetype"))

    def test_tumor_sizes_non_negative(self):
        collection = generate_numed_like(n_patients=10, seed=4)
        assert collection.to_matrix().min() >= 0.0

    def test_reproducible_with_seed(self):
        a = generate_numed_like(n_patients=5, seed=9)
        b = generate_numed_like(n_patients=5, seed=9)
        assert np.array_equal(a.to_matrix(), b.to_matrix())

    def test_responders_shrink_progressives_grow(self):
        collection = generate_numed_like(
            n_patients=80, n_weeks=20, noise_std_mm=0.0, seed=5
        )
        matrix = collection.to_matrix()
        labels = np.array(collection.labels("archetype"))
        responders = matrix[labels == "responder"]
        progressive = matrix[labels == "progressive"]
        if len(responders) and len(progressive):
            assert (responders[:, -1] < responders[:, 0]).mean() > 0.9
            assert (progressive[:, -1] > progressive[:, 0]).mean() > 0.9

    def test_claret_model_closed_form(self):
        times = np.array([0.0, 1.0, 2.0])
        sizes = claret_tumor_size(times, baseline_size=50.0, growth_rate=0.0,
                                  decay_rate=0.0, resistance_rate=0.0)
        assert np.allclose(sizes, 50.0)

    def test_claret_pure_growth(self):
        times = np.array([0.0, 10.0])
        sizes = claret_tumor_size(times, 10.0, growth_rate=0.1, decay_rate=0.0,
                                  resistance_rate=0.0)
        assert sizes[1] == pytest.approx(10.0 * np.exp(1.0))

    def test_claret_rejects_negative_times(self):
        with pytest.raises(DatasetError):
            claret_tumor_size(np.array([-1.0]), 10.0, 0.1, 0.1, 0.1)


class TestSynthetic:
    def test_gaussian_clusters_ground_truth(self):
        collection = generate_gaussian_clusters(
            n_series=30, series_length=10, n_clusters=3, seed=1
        )
        labels = collection.labels("cluster")
        assert set(labels) == {0, 1, 2}

    def test_gaussian_cluster_separation_increases_with_parameter(self):
        near = generate_gaussian_clusters(n_series=40, n_clusters=2, separation=0.1, seed=2)
        far = generate_gaussian_clusters(n_series=40, n_clusters=2, separation=5.0, seed=2)
        assert far.to_matrix().std() > near.to_matrix().std()

    def test_gaussian_rejects_more_clusters_than_series(self):
        with pytest.raises(DatasetError):
            GaussianClustersConfig(n_series=3, n_clusters=5)

    def test_constant_series(self):
        collection = generators.generate_constant_series(4, 6, value=2.0)
        assert np.allclose(collection.to_matrix(), 2.0)

    def test_two_level_series(self):
        collection = generators.generate_two_level_series(10, 4, low=0.0, high=1.0, seed=3)
        matrix = collection.to_matrix()
        assert set(np.unique(matrix)) == {0.0, 1.0}
        labels = np.array(collection.labels("cluster"))
        assert set(labels) == {0, 1}

    def test_two_level_rejects_bad_levels(self):
        with pytest.raises(DatasetError):
            generators.generate_two_level_series(10, 4, low=1.0, high=0.0)


class TestRegistry:
    def test_builtin_datasets_registered(self):
        assert {"cer", "numed", "gaussian"}.issubset(available_datasets())

    def test_load_dataset_by_name(self):
        collection = load_dataset("gaussian", n_series=10, series_length=8, n_clusters=2)
        assert len(collection) == 10

    def test_load_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("does-not-exist")

    def test_register_rejects_duplicates(self):
        with pytest.raises(DatasetError):
            register_dataset("cer", generate_cer_like)

    def test_register_custom_and_overwrite(self):
        register_dataset("custom-test", lambda **kw: generators.generate_constant_series(3, 3),
                         overwrite=True)
        assert len(load_dataset("custom-test")) == 3
        register_dataset("custom-test", lambda **kw: generators.generate_constant_series(4, 3),
                         overwrite=True)
        assert len(load_dataset("custom-test")) == 4


class TestPopulationLoading:
    """load_dataset_for_population: the one place population sizes are set."""

    def test_builtin_datasets_declare_their_size_parameter(self):
        assert dataset_size_parameter("cer") == "n_households"
        assert dataset_size_parameter("numed") == "n_patients"
        assert dataset_size_parameter("gaussian") == "n_series"

    @pytest.mark.parametrize("name", ["cer", "numed", "gaussian"])
    def test_population_is_exact(self, name):
        collection = load_dataset_for_population(name, 13, seed=4)
        assert len(collection) == 13

    def test_matches_the_historical_cli_loading(self):
        """Same generator keywords as the CLI's per-dataset branches used."""
        via_population = load_dataset_for_population("cer", 9, seed=2)
        direct = load_dataset("cer", n_households=9, n_days=1,
                              readings_per_day=24, seed=2)
        assert np.array_equal(via_population.to_matrix(), direct.to_matrix())

    def test_extra_parameters_pass_through(self):
        collection = load_dataset_for_population(
            "gaussian", 10, seed=1, n_clusters=2, noise_std=0.0,
        )
        assert len(collection) == 10
        assert set(collection.labels("cluster")) == {0, 1}

    def test_size_cannot_be_smuggled_in(self):
        with pytest.raises(DatasetError):
            load_dataset_for_population("gaussian", 10, n_series=99)

    def test_non_positive_population_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset_for_population("gaussian", 0)
        with pytest.raises(DatasetError):
            load_dataset_for_population("gaussian", -3)

    def test_dataset_without_size_parameter_rejected(self):
        register_dataset("fixed-size-test",
                         lambda **kw: generators.generate_constant_series(3, 3),
                         overwrite=True)
        with pytest.raises(DatasetError):
            load_dataset_for_population("fixed-size-test", 3)

    def test_size_mismatch_is_detected(self):
        # A factory that ignores its size parameter is caught by the single
        # validation point rather than silently running a different population.
        register_dataset(
            "lying-size-test",
            lambda n_series=0, seed=0, **kw: generators.generate_constant_series(5, 3),
            overwrite=True, size_parameter="n_series",
        )
        with pytest.raises(DatasetError, match="produced 5 series"):
            load_dataset_for_population("lying-size-test", 7)
