"""The package order of ``src/repro``, read off its import statements.

A module may import from its own package and from any package of a lower
layer of :data:`LAYERS`.  Two packages of one layer import neither each
other.  An import inside a function that crosses packages must also be on
:data:`LAZY`, with the reason it is deferred.  Imports under
``if TYPE_CHECKING:`` run for no program and are not checked.  The upward
imports the order still tolerates are on :data:`UPWARD`, each with the
roadmap item that removes it; no entry of either list may go stale.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from functools import lru_cache
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Lowest first.  ``repro`` is the root package's ``__init__`` (the public
#: facade) and ``__main__`` its ``python -m repro`` entry point.
LAYERS: tuple[tuple[str, ...], ...] = (
    ("exceptions",),
    ("_validation",),
    ("crypto",),
    ("config",),
    ("timeseries", "privacy"),
    ("clustering", "datasets"),
    ("simulation",),
    ("gossip",),
    ("net",),
    ("core",),
    ("baselines",),
    ("analysis",),
    ("experiments",),
    ("cli",),
    ("repro", "__main__"),
)

#: (importing module, imported module pattern) -> why the upward import
#: stays, and which roadmap item removes it.  Module paths are relative to
#: ``repro``.  The benchmark suite's trace table pins both modules' paths
#: (``benchmarks/suite/trace.py``: ``BOUNDARIES`` wraps
#: ``LoopbackTransport.transmit`` in ``repro.net.transport`` and the live
#: runner's classes in ``repro.net.live``), so neither module can move to
#: the layer its imports ask for until the suite stops naming them.
UPWARD: dict[tuple[str, str], str] = {
    ("simulation.engine", "net.transport"):
        "the cycle engine delivers through its LoopbackTransport; "
        "items 1(b)/4(c) (the suite's trace table goes, the transport moves)",
    ("net.live", "core.*"):
        "the live runner drives core participants and assembles through "
        "core.runner; items 2/14 (one schedule for every engine, then the "
        "live coordinator is split out of net/live.py)",
    ("net.live", "analysis.envelope"):
        "a concurrent live run measures its divergence from the cycle "
        "reference; items 2/14 delete concurrent stepping's envelope",
}

#: (importing module, imported module) -> why the import is deferred to
#: the function that needs it.
LAZY: dict[tuple[str, str], str] = {
    ("repro", "experiments"):
        "PEP 562 re-export: `import repro` does not load the sweep runner "
        "and its multiprocessing machinery (~25 ms)",
    ("cli", "experiments"):
        "only `repro experiment ...` loads the sweep runner and its "
        "multiprocessing machinery (~25 ms of every other command)",
    ("core.runner", "net.live"):
        "net.live imports core.runner (an UPWARD entry), so the run "
        "dispatch imports the live runner when a live run starts",
}


def _layer_of() -> dict[str, int]:
    return {package: rank for rank, layer in enumerate(LAYERS) for package in layer}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "repro"


def _package(module: str) -> str:
    return module.split(".")[0]


def _type_checking_block(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def _imports(path: Path) -> list[tuple[str, int, bool]]:
    """``(imported module, line, inside a function)`` of every ``repro``
    import in *path*, ``TYPE_CHECKING`` blocks left out."""
    module = _module_name(path)
    is_package = path.name == "__init__.py"
    base = [] if module == "repro" else module.split(".")
    found: list[tuple[str, int, bool]] = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if _type_checking_block(child):
                for sibling in child.orelse:
                    visit(sibling, in_function)
                continue
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.startswith("repro."):
                        found.append((alias.name[len("repro."):], child.lineno, in_function))
            elif isinstance(child, ast.ImportFrom):
                if child.level == 0:
                    if child.module and child.module.startswith("repro."):
                        found.append((child.module[len("repro."):], child.lineno, in_function))
                    continue
                anchor = base if is_package else base[:-1]
                anchor = anchor[:len(anchor) - (child.level - 1)]
                if child.module:
                    found.append((".".join(anchor + [child.module]), child.lineno, in_function))
                else:
                    for alias in child.names:
                        found.append((".".join(anchor + [alias.name]), child.lineno, in_function))
            visit(child, nested)

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


@lru_cache(maxsize=None)
def _violations() -> tuple[tuple[str, ...], frozenset, frozenset]:
    layer = _layer_of()
    problems: list[str] = []
    used_upward: set[tuple[str, str]] = set()
    used_lazy: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        source = _module_name(path)
        where = path.relative_to(PACKAGE.parent)
        for target, line, in_function in _imports(path):
            if _package(target) == _package(source):
                continue
            if in_function:
                if (source, target) in LAZY:
                    used_lazy.add((source, target))
                else:
                    problems.append(
                        f"{where}:{line}: function-level import of repro.{target} "
                        "is not on LAZY")
            if layer[_package(target)] < layer[_package(source)]:
                continue
            exception = next(
                (key for key in UPWARD
                 if key[0] == source and fnmatchcase(target, key[1])), None)
            if exception is not None:
                used_upward.add(exception)
            else:
                problems.append(
                    f"{where}:{line}: {_package(source)} may not import "
                    f"repro.{target} ({_package(target)} is not in a lower layer)")
    return tuple(problems), frozenset(used_upward), frozenset(used_lazy)


def test_every_package_has_a_layer():
    packages = {_package(_module_name(path)) for path in PACKAGE.rglob("*.py")}
    assert packages == set(_layer_of())


def test_no_package_imports_upward_or_lazily_without_a_reason():
    problems, _, _ = _violations()
    assert problems == ()


def test_every_declared_exception_is_still_needed():
    _, used_upward, used_lazy = _violations()
    assert set(UPWARD) - used_upward == set()
    assert set(LAZY) - used_lazy == set()
