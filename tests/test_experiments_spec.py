"""Tests of the declarative experiment specifications and their expansion."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import ExperimentSpec
from repro.experiments.spec import canonical_json
from test_config import CONSTANT_FIELDS

SCENARIOS = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


def _cell_keys(spec: ExperimentSpec) -> list[str]:
    return [cell.key for cell in spec.expand()]


def _spec(**overrides) -> ExperimentSpec:
    payload = dict(
        name="unit",
        dataset="gaussian",
        dataset_params={"n_clusters": 2},
        participants=16,
        base={
            "kmeans": {"n_clusters": 2, "max_iterations": 2},
            "privacy": {"epsilon": 4.0, "noise_shares": 6},
        },
        sweep={"privacy.epsilon": [0.5, 2.0]},
        repeats=2,
        base_seed=5,
    )
    payload.update(overrides)
    return ExperimentSpec(**payload)


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        spec = _spec(description="round trip", metrics={"label_key": "cluster"})
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.spec_hash == spec.spec_hash
        assert _cell_keys(clone) == _cell_keys(spec)

    def test_json_file_round_trip(self, tmp_path):
        spec = _spec()
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        loaded = ExperimentSpec.from_file(path)
        assert loaded.to_dict() == spec.to_dict()
        assert _cell_keys(loaded) == _cell_keys(spec)

    def test_toml_file_round_trip(self, tmp_path):
        spec = _spec(seeds=[3, 9])
        toml_lines = [
            'name = "unit"',
            "participants = 16",
            "seeds = [3, 9]",
            "[dataset]",
            'name = "gaussian"',
            "[dataset.params]",
            "n_clusters = 2",
            "[base.kmeans]",
            "n_clusters = 2",
            "max_iterations = 2",
            "[base.privacy]",
            "epsilon = 4.0",
            "noise_shares = 6",
            "[sweep]",
            '"privacy.epsilon" = [0.5, 2.0]',
        ]
        path = tmp_path / "unit.toml"
        path.write_text("\n".join(toml_lines) + "\n", encoding="utf-8")
        loaded = ExperimentSpec.from_file(path)
        assert _cell_keys(loaded) == _cell_keys(spec)

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "unit.yaml"
        path.write_text("name: unit\n", encoding="utf-8")
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_file(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_file(path)


class TestExpansion:
    def test_cartesian_count_and_order(self):
        spec = _spec(
            sweep={"privacy.epsilon": [0.5, 2.0], "gossip.cycles_per_aggregation": [3, 6]},
            repeats=2,
            base_seed=10,
        )
        cells = spec.expand()
        # 2 x 2 scenarios x 2 repeats, later axes varying fastest, repeats
        # innermost.
        assert len(cells) == 8
        combos = [
            (cell.overrides["privacy.epsilon"],
             cell.overrides["gossip.cycles_per_aggregation"],
             cell.seed)
            for cell in cells
        ]
        assert combos == [
            (0.5, 3, 10), (0.5, 3, 11),
            (0.5, 6, 10), (0.5, 6, 11),
            (2.0, 3, 10), (2.0, 3, 11),
            (2.0, 6, 10), (2.0, 6, 11),
        ]
        assert [cell.index for cell in cells] == list(range(8))
        assert [cell.scenario for cell in cells] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_expansion_is_deterministic(self):
        first = _spec().expand()
        second = _spec().expand()
        assert [cell.key for cell in first] == [cell.key for cell in second]
        assert [cell.label() for cell in first] == [cell.label() for cell in second]

    def test_explicit_cells_follow_the_sweep(self):
        spec = _spec(cells=[{"participants": 8, "privacy.epsilon": 9.0}], repeats=1)
        cells = spec.expand()
        assert len(cells) == 3
        assert cells[-1].participants == 8
        assert cells[-1].overrides["privacy.epsilon"] == 9.0

    def test_cells_only_spec_has_no_implicit_base_scenario(self):
        spec = _spec(sweep={}, cells=[{"privacy.epsilon": 1.0}], repeats=1)
        assert len(spec.expand()) == 1

    def test_empty_spec_is_a_single_scenario(self):
        spec = _spec(sweep={}, repeats=1)
        assert len(spec.expand()) == 1
        assert spec.expand()[0].overrides == {}

    def test_axis_keys_in_first_seen_order(self):
        spec = _spec(
            sweep={"privacy.epsilon": [1, 2]},
            cells=[{"runtime.mode": "live", "participants": 8}],
        )
        assert spec.axis_keys() == ["privacy.epsilon", "runtime.mode", "participants"]

    def test_explicit_seeds_override_repeats(self):
        spec = _spec(seeds=[100, 200, 300])
        assert spec.cell_seeds() == [100, 200, 300]
        assert len(spec.expand()) == 2 * 3

    def test_dataset_axis_feeds_generator_params(self):
        spec = _spec(sweep={"dataset.noise_std": [0.01, 0.5]}, repeats=1)
        cells = spec.expand()
        assert cells[0].dataset_params["noise_std"] == 0.01
        assert cells[1].dataset_params["noise_std"] == 0.5


class TestCellConfig:
    def test_population_and_seed_injected(self):
        cell = _spec(repeats=1).expand()[0]
        config = cell.config()
        assert config.simulation.n_participants == 16
        assert config.simulation.seed == 5
        assert config.privacy.epsilon == 0.5

    def test_noise_shares_clamped_to_population(self):
        # The default of 32 noise shares exceeds an 8-participant cell: the
        # spec layer applies the same clamp as the CLI.
        spec = _spec(base={"kmeans": {"n_clusters": 2}}, participants=8,
                     sweep={}, repeats=1)
        assert spec.expand()[0].config().privacy.noise_shares == 8

    def test_key_ignores_name_and_description(self):
        one = _spec(name="alpha", description="x", repeats=1).expand()[0]
        two = _spec(name="beta", description="y", repeats=1).expand()[0]
        assert one.key == two.key

    def test_key_tracks_every_identity_ingredient(self):
        base = _spec(repeats=1).expand()[0]
        assert _spec(repeats=1, base_seed=6).expand()[0].key != base.key
        assert _spec(repeats=1, participants=18).expand()[0].key != base.key
        assert _spec(repeats=1, sweep={"privacy.epsilon": [0.75]}).expand()[0].key \
            != base.key
        assert _spec(repeats=1, dataset_params={"n_clusters": 3}).expand()[0].key \
            != base.key

    def test_key_resolves_registry_dataset_defaults(self):
        # The dataset half of the identity is hashed fully resolved, like
        # the config half: spelling out a registry population default gives
        # the same key as omitting it (and a changed default invalidates).
        implicit = _spec(repeats=1).expand()[0]
        explicit = _spec(
            repeats=1, dataset_params={"n_clusters": 2, "series_length": 24},
        ).expand()[0]
        assert implicit.key == explicit.key
        different = _spec(
            repeats=1, dataset_params={"n_clusters": 2, "series_length": 48},
        ).expand()[0]
        assert implicit.key != different.key

    def test_key_tracks_evaluation_settings(self):
        # Stored quality metrics depend on how cells are scored, so changing
        # the metrics options must invalidate cached rows on --resume.
        base = _spec(repeats=1).expand()[0]
        assert _spec(repeats=1, metrics={"reference": False}).expand()[0].key \
            != base.key
        assert _spec(repeats=1, metrics={"label_key": None}).expand()[0].key \
            != base.key

    def test_identity_is_canonical_json(self):
        cell = _spec(repeats=1).expand()[0]
        payload = json.loads(canonical_json(cell.identity()))
        assert payload["participants"] == 16
        assert payload["config"]["privacy"]["epsilon"] == 0.5


class TestValidation:
    def test_requires_a_name(self):
        with pytest.raises(ExperimentError):
            _spec(name="")

    def test_rejects_unknown_sections(self):
        with pytest.raises(ExperimentError):
            _spec(base={"quantum": {"qubits": 3}})

    def test_rejects_bad_axis_keys(self):
        with pytest.raises(ExperimentError):
            _spec(sweep={"epsilon": [1, 2]})
        with pytest.raises(ExperimentError):
            _spec(sweep={"privacy": [1, 2]})

    def test_rejects_misspelled_field_names_at_load_time(self):
        # A typo'd field would otherwise surface as a raw TypeError from
        # dataclasses.replace() in the parent process, killing the sweep.
        with pytest.raises(ExperimentError, match="epsilonn"):
            _spec(sweep={"privacy.epsilonn": [1.0, 2.0]})
        with pytest.raises(ExperimentError, match="unknown field"):
            _spec(base={"kmeans": {"n_cluster": 3}})
        with pytest.raises(ExperimentError, match="unknown field"):
            _spec(cells=[{"gossip.fanoutt": 2}])

    @pytest.mark.parametrize("key", [
        "crypto.fastmath", "crypto.pool_file", "runtime.write_buffer_limit",
        *(f"{section}.{fieldname}" for section, fieldname in CONSTANT_FIELDS),
    ])
    def test_spec_file_naming_a_removed_knob_is_refused_by_name(self, tmp_path, key):
        section, _, fieldname = key.partition(".")
        for payload in (
            {**_spec().to_dict(), "sweep": {key: ["off"]}},
            {**_spec().to_dict(), "base": {section: {fieldname: "off"}}},
        ):
            path = tmp_path / "removed.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(ExperimentError, match="unknown field") as raised:
                ExperimentSpec.from_file(path)
            assert fieldname in str(raised.value) and section in str(raised.value)

    @pytest.mark.parametrize(
        "path", sorted(SCENARIOS.glob("*.json")) + sorted(SCENARIOS.glob("*.toml")),
        ids=lambda path: path.name,
    )
    def test_committed_spec_builds_every_cell_config(self, path):
        cells = ExperimentSpec.from_file(path).expand()
        assert cells
        for cell in cells:
            cell.config()

    def test_every_committed_spec_is_checked(self):
        # An empty glob would parametrize the test above out of existence.
        assert len(list(SCENARIOS.glob("*.json")) + list(SCENARIOS.glob("*.toml"))) >= 6

    def test_rejects_empty_axes(self):
        with pytest.raises(ExperimentError):
            _spec(sweep={"privacy.epsilon": []})

    def test_rejects_unknown_spec_fields(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_dict({"name": "x", "sweeps": {}})

    def test_rejects_unknown_metrics_options(self):
        with pytest.raises(ExperimentError):
            _spec(metrics={"labels": "cluster"})

    def test_rejects_seed_in_dataset_params(self):
        with pytest.raises(ExperimentError):
            _spec(dataset_params={"seed": 1})

    def test_rejects_per_cell_derived_fields_as_overrides(self):
        # These would be silently overwritten by the expansion; make the
        # footgun a loud spec error pointing at the right field.
        with pytest.raises(ExperimentError, match="participants"):
            _spec(sweep={"simulation.n_participants": [40, 80]})
        with pytest.raises(ExperimentError, match="seeds"):
            _spec(sweep={"simulation.seed": [1, 2]})
        with pytest.raises(ExperimentError, match="seeds"):
            _spec(cells=[{"dataset.seed": 9}])
        with pytest.raises(ExperimentError, match="participants"):
            _spec(base={"simulation": {"n_participants": 40}})

    def test_rejects_dataset_size_parameter_overrides(self):
        # The registry knows gaussian's size parameter is n_series: smuggling
        # it through the dataset axis fails at load time, not per cell.
        with pytest.raises(ExperimentError, match="participants"):
            _spec(sweep={"dataset.n_series": [40, 80]})
        with pytest.raises(ExperimentError, match="participants"):
            _spec(cells=[{"dataset.n_series": 40}])
        with pytest.raises(ExperimentError, match="participants"):
            _spec(dataset_params={"n_series": 40})

    def test_rejects_scalar_string_sweep_values(self):
        # list("high") would silently expand into per-character scenarios.
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_dict({
                "name": "x", "dataset": "gaussian",
                "sweep": {"privacy.epsilon": "high"},
            })

    def test_rejects_bad_participants_override(self):
        with pytest.raises(ExperimentError):
            _spec(sweep={"participants": [0]}).expand()

    def test_rejects_non_positive_repeats(self):
        with pytest.raises(ExperimentError):
            _spec(repeats=0)


class TestMetrics:
    def test_label_key_defaults_per_dataset(self):
        assert _spec().label_key == "cluster"
        assert _spec(dataset="cer", dataset_params={}).label_key == "archetype"
        assert _spec(metrics={"label_key": None}).label_key is None
        assert _spec(metrics={"label_key": "patient"}).label_key == "patient"

    def test_reference_defaults_on(self):
        assert _spec().evaluate_reference
        assert not _spec(metrics={"reference": False}).evaluate_reference
