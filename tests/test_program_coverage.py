"""The fast half of the execution guard: its allowlist is well formed.

``tests/program_coverage.py`` runs the program corpus (minutes, a CI step);
this checks, without running anything, that every entry of its allowlist
names a function that still exists and carries one valid reason.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

from program_coverage import ALLOWLIST, REASONS, functions

ROOT = Path(__file__).resolve().parents[1]
TRACE = ROOT / "benchmarks" / "suite" / "trace.py"


def _resolve(qualified: str) -> object:
    """The module attribute or class member a dotted name denotes."""
    owner, _, attribute = qualified.rpartition(".")
    try:
        module = importlib.import_module(owner)
    except ModuleNotFoundError:
        return getattr(_resolve(owner), attribute)
    return getattr(module, attribute)


def _boundaries() -> set[str]:
    """``module.qualified`` of every callable ``trace.BOUNDARIES`` wraps,
    read from the source (the tracer imports the suite's siblings)."""
    for statement in ast.parse(TRACE.read_text(encoding="utf-8")).body:
        target = getattr(statement, "target", None) or (getattr(statement, "targets", [None])[0])
        if isinstance(target, ast.Name) and target.id == "BOUNDARIES":
            return {f"{row.elts[1].value}.{row.elts[2].value}"
                    for row in statement.value.elts}
    raise AssertionError("trace.BOUNDARIES not found")


BOUNDARY_ENTRIES = sorted(name for name, reason in ALLOWLIST.items() if reason == "boundary")


@pytest.fixture(scope="module")
def defined() -> set[str]:
    return functions()


@pytest.fixture(scope="module")
def boundaries() -> set[str]:
    return _boundaries()


@pytest.mark.parametrize("name", sorted(ALLOWLIST))
def test_every_allowlisted_name_resolves(name, defined):
    assert name in defined, f"{name} is no function of src/repro"
    value = _resolve(name)
    assert callable(value) or isinstance(value, property), name


@pytest.mark.parametrize("name", sorted(ALLOWLIST))
def test_every_entry_has_one_valid_reason(name):
    reason = ALLOWLIST[name]
    kind = reason.split()[0]
    assert kind in REASONS, (name, reason)
    if kind == "choice":
        assert re.fullmatch(r"choice --[a-z][a-z-]* \S+", reason), (name, reason)
    else:
        assert reason == kind, (name, reason)


def test_the_tracer_wraps_boundaries(boundaries):
    assert boundaries, "the tracer wraps nothing"


@pytest.mark.parametrize("name", BOUNDARY_ENTRIES)
def test_every_boundary_entry_is_a_traced_boundary(name, boundaries):
    assert name in boundaries, f"{name} is not in trace.BOUNDARIES"
