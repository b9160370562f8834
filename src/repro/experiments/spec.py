"""Declarative experiment specifications and their scenario matrices.

An :class:`ExperimentSpec` describes a whole evaluation campaign in data:
which dataset to generate, how many participants, which configuration
overrides apply everywhere (``base``), which axes to sweep (``sweep`` —
expanded into the cartesian scenario matrix), which extra hand-picked cells
to add (``cells``), and how often to repeat every cell with distinct seeds.

Override keys are *dotted paths*:

``privacy.epsilon``, ``gossip.cycles_per_aggregation``, ...
    A field of one :class:`~repro.config.ChiaroscuroConfig` section.
``participants``
    The population size (also the dataset size; the two are tied together
    by :func:`repro.datasets.load_dataset_for_population`).
``dataset.<param>``
    An extra generator parameter of the dataset (e.g. ``dataset.n_clusters``
    for the gaussian generator).

Expansion is deterministic: axes expand in spec order (later axes vary
fastest), explicit ``cells`` follow the sweep product, and each scenario is
repeated ``repeats`` times with seeds ``base_seed + repeat`` (or the
explicit ``seeds`` list).  Every cell resolves to a concrete
(dataset, parameters, configuration, seed) tuple and hashes it into a
stable ``key`` — the result store's cache key, so re-running a spec skips
cells whose results are already stored.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..config import CONFIG_SECTIONS, ChiaroscuroConfig, PrivacyConfig
from ..datasets import (
    dataset_population_defaults,
    dataset_size_parameter,
    load_dataset_for_population,
)
from ..exceptions import DatasetError, ExperimentError, ReproError
from ..timeseries import TimeSeriesCollection

#: Version of the cell-identity schema; bump to invalidate cached results
#: when the row format or the resolution rules change incompatibly.
CELL_SCHEMA_VERSION = 1

#: Valid field names per configuration section, derived from the config
#: dataclasses themselves so a misspelled field in a spec fails at load
#: time with a clear error instead of a raw TypeError inside replace().
_SECTION_FIELDS: dict[str, frozenset[str]] = {
    section: frozenset(fields)
    for section, fields in ChiaroscuroConfig().describe().items()
}

_SPEC_KEYS = {
    "name", "description", "dataset", "participants", "base", "sweep",
    "cells", "repeats", "base_seed", "seeds", "metrics",
}

_METRICS_KEYS = {"label_key", "reference"}


def canonical_json(payload: Any) -> str:
    """Canonical JSON used for hashing and for store rows (stable key order)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Config fields the expansion derives from the cell itself; overriding them
#: through a dotted path would be silently discarded, so they are rejected.
_RESERVED_OVERRIDES = {
    "simulation.n_participants": "use the 'participants' axis/field instead",
    "simulation.seed": "seeds come from the repeats/seeds fields",
    "dataset.seed": "seeds come from the repeats/seeds fields",
}


def _check_override_key(key: str) -> None:
    if key in _RESERVED_OVERRIDES:
        raise ExperimentError(
            f"override key {key!r} is derived per cell and cannot be set "
            f"directly; {_RESERVED_OVERRIDES[key]}"
        )
    if key == "participants" or key.startswith("dataset."):
        return
    section, _, fieldname = key.partition(".")
    if not fieldname or section not in CONFIG_SECTIONS:
        raise ExperimentError(
            f"override key {key!r} is not 'participants', 'dataset.<param>' or "
            f"'<section>.<field>' with a section in {sorted(CONFIG_SECTIONS)}"
        )
    if fieldname not in _SECTION_FIELDS[section]:
        raise ExperimentError(
            f"unknown field {fieldname!r} in configuration section {section!r}; "
            f"expected one of {sorted(_SECTION_FIELDS[section])}"
        )


def _check_overrides(overrides: Mapping[str, Any], where: str) -> dict[str, Any]:
    if not isinstance(overrides, Mapping):
        raise ExperimentError(f"{where} must be a mapping of dotted keys, "
                              f"got {type(overrides).__name__}")
    for key in overrides:
        _check_override_key(str(key))
    return {str(key): value for key, value in overrides.items()}


@dataclass(frozen=True)
class ScenarioCell:
    """One fully-resolved scenario of the matrix: the unit the runner executes.

    Attributes
    ----------
    index:
        Position in the deterministic expansion order (0-based).
    scenario:
        Scenario number before repeats (cells sharing it differ only in seed).
    repeat:
        Repeat number within the scenario (0-based).
    dataset:
        Registered dataset name.
    dataset_params:
        Extra generator parameters (size and seed excluded — they derive
        from ``participants`` and ``seed``).
    participants:
        Population size (and dataset size).
    seed:
        Master seed of this cell: the dataset generator seed and the
        ``simulation.seed`` of the run.
    overrides:
        The dotted overrides that distinguish this cell from the spec's
        base (the sweep assignment plus any explicit-cell overrides) —
        these become the axis columns of comparison reports.
    sections:
        Fully-merged configuration sections (base plus overrides), ready
        for :meth:`~repro.config.ChiaroscuroConfig.with_overrides`.
    label_key / evaluate_reference:
        The spec's evaluation settings, carried per cell because the stored
        quality metrics depend on them (they are part of the cache
        identity: changing how cells are scored must invalidate cached
        rows).
    """

    index: int
    scenario: int
    repeat: int
    dataset: str
    dataset_params: dict[str, Any]
    participants: int
    seed: int
    overrides: dict[str, Any]
    sections: dict[str, dict[str, Any]]
    label_key: str | None = None
    evaluate_reference: bool = True

    def resolved_sections(self) -> dict[str, dict[str, Any]]:
        """The cell's configuration sections with the population rules applied.

        ``simulation.n_participants``/``simulation.seed`` are forced to the
        cell's population and seed, and ``privacy.noise_shares`` is clamped
        to the population — the same rule the CLI applies — so a spec
        written for 100 participants still validates when an axis sweeps
        the population below the default noise-share count.
        """
        sections = {name: dict(fields) for name, fields in self.sections.items()}
        simulation = sections.setdefault("simulation", {})
        simulation["n_participants"] = self.participants
        simulation["seed"] = self.seed
        privacy = sections.setdefault("privacy", {})
        noise_shares = privacy.get("noise_shares", PrivacyConfig().noise_shares)
        privacy["noise_shares"] = min(int(noise_shares), self.participants)
        return sections

    def config(self) -> ChiaroscuroConfig:
        """The complete, validated run configuration of this cell."""
        return ChiaroscuroConfig().with_overrides(**self.resolved_sections())

    def load_collection(self) -> TimeSeriesCollection:
        """Generate this cell's dataset (exactly one series per participant)."""
        return load_dataset_for_population(
            self.dataset, self.participants, seed=self.seed, **self.dataset_params,
        )

    def identity(self) -> dict[str, Any]:
        """Everything that determines this cell's result, as plain data.

        The configuration part is the *validated, fully-defaulted*
        ``describe()`` view, so two specs spelling the same configuration
        differently (explicit defaults vs omitted fields) share cache keys.
        A cell whose configuration does not validate falls back to hashing
        its raw resolved sections: such a cell still gets a stable key (its
        failure is recorded in the store under it) without the expansion of
        the healthy cells being taken down in the parent process.
        """
        try:
            described: dict[str, Any] = self.config().describe()
        except (ReproError, TypeError):
            # TypeError belts-and-braces: field names are validated at spec
            # load time, but a value of a shape replace() itself rejects
            # should still degrade to a per-cell error row, not kill the
            # parent sweep.
            described = {"invalid_sections": self.resolved_sections()}
        # The dataset half mirrors the config half: hash the *resolved*
        # generator parameters (registry population defaults underneath the
        # spec's explicit ones), so a changed registry default invalidates
        # cached rows and an explicitly-spelled default shares keys with an
        # omitted one.  Unregistered datasets fall back to the explicit
        # parameters (they resolve at run time).
        try:
            resolved_params = {
                **dataset_population_defaults(self.dataset),
                **self.dataset_params,
            }
        except DatasetError:
            resolved_params = dict(self.dataset_params)
        return {
            "version": CELL_SCHEMA_VERSION,
            "dataset": self.dataset,
            "dataset_params": resolved_params,
            "participants": self.participants,
            "seed": self.seed,
            "config": described,
            "evaluation": {
                "label_key": self.label_key,
                "reference": self.evaluate_reference,
            },
        }

    @property
    def key(self) -> str:
        """Stable content hash of the cell identity (the store cache key).

        Memoized: computing the identity validates a full configuration and
        hashes it, and the runner/report layers consult the key repeatedly.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            digest = hashlib.sha256(canonical_json(self.identity()).encode("utf-8"))
            cached = digest.hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    def label(self) -> str:
        """Compact human-readable cell description for progress lines."""
        axes = ", ".join(f"{key}={value}" for key, value in self.overrides.items())
        parts = [f"cell {self.index}", axes or "base"]
        parts.append(f"seed={self.seed}")
        return " | ".join(parts)


@dataclass
class ExperimentSpec:
    """A declarative experiment: dataset, base configuration, sweep, seeds.

    Attributes
    ----------
    name:
        Experiment identifier; store rows and reports carry it.
    description:
        Free-text purpose of the experiment.
    dataset:
        Registered dataset name.
    dataset_params:
        Extra generator parameters (never the size parameter or the seed).
    participants:
        Default population size (sweepable through the ``participants`` axis).
    base:
        Configuration overrides applied to every cell, as nested sections
        (the :meth:`~repro.config.ChiaroscuroConfig.with_overrides` shape).
    sweep:
        Mapping of dotted axis key -> list of values; expanded into the
        cartesian product in spec order, later axes varying fastest.
    cells:
        Explicit extra scenarios appended after the sweep product, each a
        mapping of dotted overrides (e.g. a live-mode cell in an otherwise
        cycle-mode churn sweep).
    repeats:
        Number of seeds per scenario.
    base_seed:
        Seed of repeat 0; repeat *r* uses ``base_seed + r``.
    seeds:
        Explicit seed list overriding ``repeats``/``base_seed``.
    metrics:
        Evaluation options: ``label_key`` (ground-truth metadata key for the
        adjusted Rand index; defaults per dataset) and ``reference``
        (whether to evaluate quality against a centralised k-means run).
    """

    name: str
    description: str = ""
    dataset: str = "gaussian"
    dataset_params: dict[str, Any] = field(default_factory=dict)
    participants: int = 100
    base: dict[str, dict[str, Any]] = field(default_factory=dict)
    sweep: dict[str, list[Any]] = field(default_factory=dict)
    cells: list[dict[str, Any]] = field(default_factory=list)
    repeats: int = 1
    base_seed: int = 0
    seeds: list[int] | None = None
    metrics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ExperimentError("an experiment needs a non-empty name")
        if not isinstance(self.participants, int) or self.participants <= 0:
            raise ExperimentError(
                f"participants must be a positive integer, got {self.participants!r}"
            )
        if not isinstance(self.repeats, int) or self.repeats <= 0:
            raise ExperimentError(f"repeats must be a positive integer, got {self.repeats!r}")
        for key in self.dataset_params:
            if str(key) in ("seed",):
                raise ExperimentError(
                    "dataset_params must not set 'seed'; seeds come from the "
                    "repeats/seeds fields"
                )
        if not isinstance(self.base, Mapping):
            raise ExperimentError("base must map section names to field mappings")
        for section, fields_ in self.base.items():
            if section not in CONFIG_SECTIONS:
                raise ExperimentError(
                    f"unknown configuration section {section!r} in base; "
                    f"expected one of {sorted(CONFIG_SECTIONS)}"
                )
            if not isinstance(fields_, Mapping):
                raise ExperimentError(f"base section {section!r} must be a mapping")
            for fieldname in fields_:
                _check_override_key(f"{section}.{fieldname}")
        if not isinstance(self.sweep, Mapping):
            raise ExperimentError("sweep must map dotted axis keys to value lists")
        for axis, values in self.sweep.items():
            _check_override_key(str(axis))
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)) \
                    or len(values) == 0:
                raise ExperimentError(
                    f"sweep axis {axis!r} must be a non-empty list of values"
                )
        self.cells = [
            _check_overrides(cell, f"cells[{position}]")
            for position, cell in enumerate(self.cells)
        ]
        if self.seeds is not None:
            if not isinstance(self.seeds, Sequence) or isinstance(self.seeds, (str, bytes)) \
                    or len(self.seeds) == 0:
                raise ExperimentError("seeds must be a non-empty list of integers")
            self.seeds = [int(seed) for seed in self.seeds]
        unknown_metrics = set(self.metrics) - _METRICS_KEYS
        if unknown_metrics:
            raise ExperimentError(
                f"unknown metrics options {sorted(unknown_metrics)}; "
                f"expected a subset of {sorted(_METRICS_KEYS)}"
            )
        self._check_dataset_size_parameter()

    def _check_dataset_size_parameter(self) -> None:
        """Fail fast on overrides of the dataset's population-size parameter.

        ``load_dataset_for_population`` would reject them anyway, but only
        inside the workers after the whole sweep has been launched; a known
        dataset lets the spec reject them at load time.  Datasets not (yet)
        registered are skipped — they resolve at run time.
        """
        try:
            size_parameter = dataset_size_parameter(self.dataset)
        except DatasetError:
            return
        if size_parameter is None:
            return
        reserved = f"dataset.{size_parameter}"
        if size_parameter in self.dataset_params:
            raise ExperimentError(
                f"dataset parameter {size_parameter!r} is derived from the "
                "population; use the 'participants' field/axis instead"
            )
        for where in (self.sweep, *self.cells):
            if reserved in where:
                raise ExperimentError(
                    f"override key {reserved!r} is derived from the population; "
                    "use the 'participants' axis instead"
                )

    # ------------------------------------------------------------------ metrics
    @property
    def label_key(self) -> str | None:
        """Ground-truth metadata key for external quality metrics."""
        if "label_key" in self.metrics:
            value = self.metrics["label_key"]
            return None if value in (None, "") else str(value)
        return "cluster" if self.dataset == "gaussian" else "archetype"

    @property
    def evaluate_reference(self) -> bool:
        """Whether cells are scored against a centralised k-means reference."""
        return bool(self.metrics.get("reference", True))

    # ------------------------------------------------------------------ seeds
    def cell_seeds(self) -> list[int]:
        """The seed of every repeat, in repeat order."""
        if self.seeds is not None:
            return list(self.seeds)
        return [self.base_seed + repeat for repeat in range(self.repeats)]

    # ------------------------------------------------------------------ expansion
    def scenario_overrides(self) -> list[dict[str, Any]]:
        """The override mapping of every scenario, in deterministic order.

        The sweep axes expand first (cartesian product, spec order, later
        axes varying fastest), followed by the explicit ``cells``.  A spec
        with neither sweep nor cells is a single base scenario; a spec with
        only explicit cells runs exactly those.
        """
        scenarios: list[dict[str, Any]] = []
        if self.sweep:
            axes = list(self.sweep.items())
            for combination in itertools.product(*(values for _, values in axes)):
                scenarios.append({
                    axis: value for (axis, _), value in zip(axes, combination)
                })
        elif not self.cells:
            scenarios.append({})
        scenarios.extend(dict(cell) for cell in self.cells)
        return scenarios

    def expand(self) -> list[ScenarioCell]:
        """The full scenario matrix: scenarios × seeds, in deterministic order."""
        seeds = self.cell_seeds()
        cells: list[ScenarioCell] = []
        for scenario_index, overrides in enumerate(self.scenario_overrides()):
            participants = self.participants
            dataset_params = dict(self.dataset_params)
            sections: dict[str, dict[str, Any]] = {
                name: dict(fields) for name, fields in self.base.items()
            }
            for key, value in overrides.items():
                if key == "participants":
                    if not isinstance(value, int) or value <= 0:
                        raise ExperimentError(
                            f"participants override must be a positive integer, got {value!r}"
                        )
                    participants = value
                elif key.startswith("dataset."):
                    dataset_params[key[len("dataset."):]] = value
                else:
                    section, _, fieldname = key.partition(".")
                    sections.setdefault(section, {})[fieldname] = value
            for repeat, seed in enumerate(seeds):
                cells.append(ScenarioCell(
                    index=len(cells),
                    scenario=scenario_index,
                    repeat=repeat,
                    dataset=self.dataset,
                    dataset_params=dict(dataset_params),
                    participants=participants,
                    seed=int(seed),
                    overrides=dict(overrides),
                    sections={name: dict(fields) for name, fields in sections.items()},
                    label_key=self.label_key,
                    evaluate_reference=self.evaluate_reference,
                ))
        return cells

    def axis_keys(self) -> list[str]:
        """Every dotted key that varies across scenarios (report columns)."""
        keys: list[str] = []
        for overrides in self.scenario_overrides():
            for key in overrides:
                if key not in keys:
                    keys.append(key)
        return keys

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> dict[str, Any]:
        """Plain-data view; ``from_dict`` inverts it exactly."""
        payload: dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "dataset": {"name": self.dataset, "params": dict(self.dataset_params)},
            "participants": self.participants,
            "base": {name: dict(fields) for name, fields in self.base.items()},
            "sweep": {axis: list(values) for axis, values in self.sweep.items()},
            "cells": [dict(cell) for cell in self.cells],
            "repeats": self.repeats,
            "base_seed": self.base_seed,
            "metrics": dict(self.metrics),
        }
        if self.seeds is not None:
            payload["seeds"] = list(self.seeds)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from plain data (the JSON/TOML file shape)."""
        if not isinstance(payload, Mapping):
            raise ExperimentError(
                f"an experiment spec must be a mapping, got {type(payload).__name__}"
            )
        unknown = set(payload) - _SPEC_KEYS
        if unknown:
            raise ExperimentError(
                f"unknown spec fields {sorted(unknown)}; expected a subset of "
                f"{sorted(_SPEC_KEYS)}"
            )
        dataset = payload.get("dataset", "gaussian")
        if isinstance(dataset, Mapping):
            extra = set(dataset) - {"name", "params"}
            if extra:
                raise ExperimentError(f"unknown dataset fields {sorted(extra)}")
            dataset_name = str(dataset.get("name", "gaussian"))
            dataset_params = dict(dataset.get("params", {}))
        else:
            dataset_name = str(dataset)
            dataset_params = {}
        try:
            return cls(
                name=payload.get("name", ""),
                description=str(payload.get("description", "")),
                dataset=dataset_name,
                dataset_params=dataset_params,
                participants=payload.get("participants", 100),
                base={
                    str(section): dict(fields)
                    for section, fields in dict(payload.get("base", {})).items()
                },
                # Axis values are passed through as-is: __post_init__ rejects
                # strings and other non-sequences, which list() would silently
                # explode into per-character scenarios.
                sweep=dict(payload.get("sweep", {})),
                cells=[dict(cell) for cell in payload.get("cells", [])],
                repeats=payload.get("repeats", 1),
                base_seed=int(payload.get("base_seed", 0)),
                seeds=payload.get("seeds"),
                metrics=dict(payload.get("metrics", {})),
            )
        except (TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed experiment spec: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ExperimentError(f"cannot read spec file {path}: {exc}") from exc
        suffix = path.suffix.lower()
        if suffix == ".toml":
            import tomllib

            try:
                payload = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise ExperimentError(f"invalid TOML in {path}: {exc}") from exc
        elif suffix == ".json":
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ExperimentError(f"invalid JSON in {path}: {exc}") from exc
        else:
            raise ExperimentError(
                f"unsupported spec format {path.suffix!r} (expected .json or .toml)"
            )
        return cls.from_dict(payload)

    @property
    def spec_hash(self) -> str:
        """Stable content hash of the whole spec (recorded in store rows)."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()
