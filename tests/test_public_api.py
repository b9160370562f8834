"""Tests of the top-level public API surface."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

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


def test_every_public_name_is_read():
    """A public function, class, method or property nothing runs is dead
    code: every one is read by a program in the repository.  A test is not
    a reader; a reference a test needs lives in ``tests/oracles.py``."""
    public, readers = _public_names_and_readers()
    unread = sorted(qualified for qualified, name in public.items() if name not in readers)
    assert not unread, "public names nothing reads: " + ", ".join(unread)
