"""Tests of the configuration dataclasses and their cross-field validation."""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import pytest

from repro.config import (
    CONFIG_SECTIONS,
    ChiaroscuroConfig,
    CryptoConfig,
    GossipConfig,
    KMeansConfig,
    PrivacyConfig,
    SimulationConfig,
    SmoothingConfig,
)
from repro.exceptions import ConfigurationError, ValidationError

#: Former fields that no program set; each is now a constant where it is read.
CONSTANT_FIELDS = [
    ("kmeans", "init"), ("kmeans", "track_quality"), ("kmeans", "quality_patience"),
    ("privacy", "geometric_ratio"), ("privacy", "count_bound"),
    ("smoothing", "window"), ("smoothing", "alpha"),
]


class TestSectionConfigs:
    def test_kmeans_defaults(self):
        config = KMeansConfig()
        assert config.n_clusters == 5

    def test_kmeans_rejects_zero_clusters(self):
        with pytest.raises(ValidationError):
            KMeansConfig(n_clusters=0)

    def test_privacy_rejects_negative_epsilon(self):
        with pytest.raises(ValidationError):
            PrivacyConfig(epsilon=-1.0)

    def test_privacy_rejects_unknown_strategy(self):
        with pytest.raises(ValidationError):
            PrivacyConfig(budget_strategy="magic")

    def test_privacy_delta_must_be_probability(self):
        with pytest.raises(ValidationError):
            PrivacyConfig(delta_slack=2.0)

    def test_crypto_threshold_cannot_exceed_shares(self):
        with pytest.raises(ConfigurationError):
            CryptoConfig(threshold=9, n_key_shares=8)

    def test_crypto_rejects_tiny_key(self):
        with pytest.raises(ConfigurationError):
            CryptoConfig(key_bits=8)

    def test_crypto_rejects_unknown_backend(self):
        with pytest.raises(ValidationError):
            CryptoConfig(backend="rsa")

    def test_gossip_has_no_topology(self):
        # Peers are sampled uniformly from the online population.
        with pytest.raises(ConfigurationError, match="gossip.topology"):
            ChiaroscuroConfig().with_overrides(gossip={"topology": "ring"})

    def test_gossip_drop_probability_bounds(self):
        with pytest.raises(ValidationError):
            GossipConfig(drop_probability=1.5)

    def test_simulation_rejects_zero_participants(self):
        with pytest.raises(ValidationError):
            SimulationConfig(n_participants=0)

    def test_smoothing_rejects_unknown_method(self):
        with pytest.raises(ValidationError):
            SmoothingConfig(method="fft-magic")

    def test_smoothing_lowpass_cutoff_bounds(self):
        with pytest.raises(ValidationError):
            SmoothingConfig(lowpass_cutoff=0.0)


class TestAggregateConfig:
    def test_defaults_are_consistent(self):
        config = ChiaroscuroConfig()
        assert config.kmeans.n_clusters <= config.simulation.n_participants

    def test_threshold_must_fit_population(self):
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig(
                crypto=CryptoConfig(threshold=5, n_key_shares=8),
                simulation=SimulationConfig(n_participants=4),
            )

    def test_noise_shares_must_fit_population(self):
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig(
                privacy=PrivacyConfig(noise_shares=50),
                simulation=SimulationConfig(n_participants=10),
            )

    def test_clusters_must_fit_population(self):
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig(
                kmeans=KMeansConfig(n_clusters=20),
                privacy=PrivacyConfig(noise_shares=4),
                crypto=CryptoConfig(threshold=2, n_key_shares=4),
                simulation=SimulationConfig(n_participants=10),
            )

    def test_with_overrides_replaces_fields(self):
        config = ChiaroscuroConfig()
        updated = config.with_overrides(privacy={"epsilon": 0.5}, kmeans={"n_clusters": 3})
        assert updated.privacy.epsilon == 0.5
        assert updated.kmeans.n_clusters == 3
        # The original is untouched (frozen dataclasses).
        assert config.privacy.epsilon == 1.0

    def test_with_overrides_rejects_unknown_section(self):
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig().with_overrides(nonexistent={"x": 1})

    @pytest.mark.parametrize("section, fieldname", [
        ("crypto", "fastmath"), ("crypto", "pool_file"),
        ("runtime", "write_buffer_limit"), ("runtime", "concurrency"),
        ("runtime", "connect_timeout"), ("gossip", "fanout"),
        ("network", "batching"), ("network", "compression"),
        *CONSTANT_FIELDS,
    ])
    def test_with_overrides_refuses_a_removed_knob_by_name(self, section, fieldname):
        # Not the raw TypeError of dataclasses.replace().
        with pytest.raises(ConfigurationError) as raised:
            ChiaroscuroConfig().with_overrides(**{section: {fieldname: "off"}})
        message = str(raised.value)
        assert f"{section}.{fieldname}" in message
        for valid in dataclasses.fields(getattr(ChiaroscuroConfig(), section)):
            assert valid.name in message

    def test_sections_are_the_aggregate_fields(self):
        assert CONFIG_SECTIONS == tuple(
            item.name for item in dataclasses.fields(ChiaroscuroConfig)
        )
        assert tuple(ChiaroscuroConfig().describe()) == CONFIG_SECTIONS

    def test_with_overrides_validates_new_values(self):
        with pytest.raises(ValidationError):
            ChiaroscuroConfig().with_overrides(privacy={"epsilon": -3.0})

    def test_describe_round_trips_sections(self):
        description = ChiaroscuroConfig().describe()
        assert set(description) == {
            "kmeans", "privacy", "crypto", "gossip", "simulation", "smoothing",
            "network", "runtime",
        }
        assert description["privacy"]["epsilon"] == 1.0

    def test_configs_are_frozen(self):
        config = ChiaroscuroConfig()
        with pytest.raises(AttributeError):
            config.privacy = PrivacyConfig()  # type: ignore[misc]


def _subcommand_options(parser, path=()):
    """``{"run": n, "experiment run": m, ...}``: options each subcommand takes."""
    counts = {}
    nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not nested:
        counts[" ".join(path)] = sum(
            1 for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        )
    for action in nested:
        for name, subparser in action.choices.items():
            counts.update(_subcommand_options(subparser, path + (name,)))
    return counts


def test_knob_budget():
    """Upper bounds on what a user can set: lower freely; raising needs the
    measured reason ROADMAP aim 2 asks for."""
    from repro import cli

    section_budget = {
        "kmeans": 3, "privacy": 5, "crypto": 7, "gossip": 3, "simulation": 4,
        "smoothing": 2, "network": 1, "runtime": 13,
    }
    config = ChiaroscuroConfig()
    assert set(section_budget) == set(CONFIG_SECTIONS)
    for section, budget in section_budget.items():
        assert len(dataclasses.fields(getattr(config, section))) <= budget, section

    option_budget = {
        "run": 27, "compare": 27, "crypto-bench": 12,
        "experiment run": 7, "experiment list": 3, "experiment report": 4,
    }
    options = _subcommand_options(cli.build_parser())
    assert set(options) == set(option_budget)
    for subcommand, budget in option_budget.items():
        assert options[subcommand] <= budget, subcommand
    # ``run`` and ``compare`` share one declaration of their options.
    assert inspect.getsource(cli).count(".add_argument(") <= 53


def test_every_knob_is_read():
    """A field nothing reads is not a knob: every field of every section is
    an attribute some module of ``src/repro`` other than ``config.py`` loads."""
    import ast
    from pathlib import Path

    import repro

    package = Path(repro.__file__).parent
    read = {
        node.attr
        for path in package.rglob("*.py") if path != package / "config.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    config = ChiaroscuroConfig()
    unread = [
        f"{section}.{item.name}"
        for section in CONFIG_SECTIONS
        for item in dataclasses.fields(getattr(config, section))
        if item.name not in read
    ]
    assert unread == []
