"""Tests of the top-level public API surface."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: Public names (functions, classes, methods, properties) nothing in
#: ``src/``, ``examples/`` or ``benchmarks/`` reads, kept because a test uses
#: them to check a run-path function: the value names that function.
TESTED_REFERENCES = {
    "repro.crypto.threshold.threshold_decrypt":
        "repro.crypto.threshold.combine_partial_decryptions",
    "repro.crypto.wire.write_ciphertext": "repro.crypto.wire.write_encrypted_vector",
    "repro.privacy.noise_shares.sum_of_shares": "repro.privacy.noise_shares.draw_noise_share",
    "repro.privacy.noise_shares.share_variance": "repro.privacy.noise_shares.draw_noise_share",
    "repro.privacy.noise_shares.reconstructed_variance":
        "repro.privacy.noise_shares.draw_noise_share",
    "repro.datasets.synthetic.generate_two_level_series": "repro.clustering.kmeans.kmeans",
    "repro.datasets.synthetic.generate_constant_series": "repro.core.runner.run_chiaroscuro",
    "repro.gossip.encrypted_sum.decode_estimate":
        "repro.gossip.encrypted_sum.average_estimates",
    "repro.crypto.backends.CipherBackend.multiply_scalar":
        "repro.crypto.backends.CipherBackend.linear_combination",
    "repro.crypto.wire.WireReader.read_string":
        "repro.crypto.wire.WireReader.read_vector_block",
    "repro.crypto.wire.WireReader.read_ciphertext":
        "repro.crypto.wire.WireReader.read_vector_block",
}


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.clustering
        import repro.core
        import repro.crypto
        import repro.datasets
        import repro.experiments
        import repro.gossip
        import repro.net
        import repro.privacy
        import repro.simulation
        import repro.timeseries

        for module in (
            repro.analysis, repro.baselines, repro.clustering, repro.core, repro.crypto,
            repro.datasets, repro.experiments, repro.gossip, repro.net, repro.privacy,
            repro.simulation, repro.timeseries,
        ):
            assert hasattr(module, "__all__")
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"

    def test_exception_hierarchy(self):
        from repro import exceptions

        for name in dir(exceptions):
            value = getattr(exceptions, name)
            if isinstance(value, type) and issubclass(value, Exception) and name != "ReproError":
                if value.__module__ == "repro.exceptions":
                    assert issubclass(value, exceptions.ReproError)


class TestQuickstartDocstring:
    def test_quickstart_snippet_runs(self):
        """The snippet advertised in the package docstring must keep working."""
        homes = repro.generate_cer_like(n_households=20, n_days=1, seed=1)
        config = repro.ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 2, "max_iterations": 2},
            privacy={"epsilon": 2.0, "noise_shares": 8},
            gossip={"cycles_per_aggregation": 4},
            crypto={"threshold": 2, "n_key_shares": 4},
            simulation={"n_participants": 20},
        )
        result = repro.run_chiaroscuro(homes, config)
        assert result.profiles.shape == (2, 48)

    def test_default_config_exposed(self):
        assert repro.DEFAULT_CONFIG.kmeans.n_clusters == 5
        assert "geometric" in repro.BUDGET_STRATEGIES


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _loaded_names(node: ast.AST, strings: bool = False) -> set[str]:
    """Names and attributes *node* loads; with *strings*, also every
    identifier inside a string literal (the benchmark tracer patches
    callables it names as ``"module", "Class.method"`` strings)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(part for part in sub.value.replace(":", ".").split(".")
                         if part.isidentifier())
    return names


def _public_names_and_readers() -> tuple[dict[str, str], set[str]]:
    """``{"repro.pkg.module.name": "name"}`` for every public top-level
    function and class of a ``src/repro`` module and
    ``{"repro.pkg.module.Class.name": "name"}`` for every public method and
    property of a public class, and every name something in ``src/``
    (outside ``__init__`` re-exports and the name's own definition),
    ``examples/`` or ``benchmarks/`` loads."""
    public: dict[str, str] = {}
    readers: set[str] = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for statement in ast.parse(path.read_text()).body:
            if not isinstance(statement, (*_FUNCTIONS, ast.ClassDef)):
                readers |= _loaded_names(statement)
                continue
            parts: list[ast.AST] = [statement]
            if isinstance(statement, ast.ClassDef):
                parts = [*statement.decorator_list, *statement.bases,
                         *statement.keywords, *statement.body]
            for part in parts:
                loads = _loaded_names(part)
                loads.discard(statement.name)
                if isinstance(part, _FUNCTIONS):
                    loads.discard(part.name)
                readers |= loads
            if statement.name.startswith("_"):
                continue
            public[f"{module}.{statement.name}"] = statement.name
            if isinstance(statement, ast.ClassDef):
                for member in statement.body:
                    if isinstance(member, _FUNCTIONS) and not member.name.startswith("_"):
                        public[f"{module}.{statement.name}.{member.name}"] = member.name
    for directory in ("examples", "benchmarks"):
        for path in (ROOT / directory).rglob("*.py"):
            readers |= _loaded_names(ast.parse(path.read_text()), strings=True)
    return public, readers


def _resolve(qualified: str) -> object:
    """The module attribute or class member a dotted name denotes."""
    owner, _, attribute = qualified.rpartition(".")
    try:
        return getattr(importlib.import_module(owner), attribute)
    except ModuleNotFoundError:
        return getattr(_resolve(owner), attribute)


def test_every_public_name_is_read():
    """A public function, class, method or property nothing runs is dead
    code: every one is read by a program in the repository, or is
    registered in ``TESTED_REFERENCES`` with the run-path function its
    tests check."""
    public, readers = _public_names_and_readers()
    unread = sorted(
        qualified for qualified, name in public.items()
        if name not in readers and qualified not in TESTED_REFERENCES
    )
    assert not unread, "public names nothing reads: " + ", ".join(unread)


def test_tested_references_are_current():
    """Every registered reference exists, still has no program reader, and
    names a run-path function that exists."""
    public, readers = _public_names_and_readers()
    for reference, checked in TESTED_REFERENCES.items():
        assert reference in public, reference
        assert public[reference] not in readers, f"{reference} is read: unregister it"
        assert callable(_resolve(checked)), checked
