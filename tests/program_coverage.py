"""Execution guard: every function in ``src/repro`` is entered by a program.

The dead-name guard (``tests/test_public_api.py``) asks whether a name is
*loaded* somewhere; a registry, a test or a name collision satisfies it.  This
script asks whether a function *runs*.  It executes a fixed corpus of the
repository's programs under a function-entry profiler and compares the
functions and methods of ``src/repro`` that were never entered with the
committed :data:`ALLOWLIST`.  It exits non-zero when

* a function that is not allowlisted is never entered (delete it, move it to
  ``tests/`` or make a program reach it), or
* an allowlisted function is entered (remove its entry: the list only
  shrinks), or an allowlisted name no longer exists.

The corpus is the examples, the benchmark suite's workloads at smoke scale,
the pytest benchmarks (``benchmarks/bench_*.py``, timing disabled), every
committed scenario spec's cells shrunk to smoke scale, and ``repro``
commands that between them pick every value of every ``choices=`` flag,
including a two-shard slab run.  Each program runs in its own interpreter
with ``sys.setprofile`` / ``threading.setprofile`` on ``call`` events;
forked workers write their entries when they leave through ``os._exit`` or
on SIGTERM, the main process at exit.

Run it from the repository root (it needs Python 3.11+ for ``co_qualname``)::

    PYTHONPATH=src python tests/program_coverage.py

About ten minutes on a 2-vCPU box; it needs pytest and pytest-benchmark.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import runpy
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
EXAMPLES = ROOT / "examples"
SCENARIOS = EXAMPLES / "scenarios"
PROGRAM_TIMEOUT_S = 900

#: Functions and methods of ``src/repro`` no corpus program enters, each with
#: its one reason: ``refusal`` (it only refuses bad input or an impossible
#: state), ``abstract`` (a base method every subclass overrides), ``boundary``
#: (named in ``benchmarks/suite/trace.py::BOUNDARIES``, which resolves it by
#: name) or ``choice <flag> <value>`` (only that value of a flag reaches it,
#: and the corpus cannot run that value).
ALLOWLIST: dict[str, str] = {
    "repro.core.collaborative.collaborative_decrypt": "boundary",
    "repro.crypto.backends.CipherBackend._combine_payloads": "abstract",
    "repro.crypto.backends.CipherBackend._encrypt_plaintexts": "abstract",
    "repro.crypto.backends.CipherBackend._linear_combination_payloads": "abstract",
    "repro.crypto.backends.CipherBackend._partial_decrypt_payload": "abstract",
    "repro.crypto.backends.CipherBackend.add": "boundary",
    "repro.crypto.backends.CipherBackend.encrypt_integer_vector": "boundary",
    "repro.crypto.backends.CipherBackend.encrypt_zero_vector": "boundary",
    "repro.crypto.wire._truncated": "refusal",
    "repro.crypto.wire._unfit_ciphertext": "refusal",
    # The CLI loads a dataset registered without a size parameter as-is;
    # every dataset the repository registers declares one.
    "repro.datasets.registry.load_dataset": "choice --dataset custom",
    "repro.gossip.messages.WireMessage._read_body": "abstract",
    "repro.gossip.messages.WireMessage._write_body": "abstract",
    "repro.net.live.LiveRunner._fail": "refusal",
    "repro.net.live.LiveRunner._process_ended": "refusal",
    "repro.privacy.strategies.BudgetStrategy.epsilon_for_iteration": "abstract",
    "repro.privacy.strategies.BudgetStrategy.minimum_iteration_epsilon": "abstract",
    "repro.simulation.node.Node.next_cycle": "abstract",
    "repro.simulation.observers.Observer.after_cycle": "abstract",
}

REASONS = ("refusal", "abstract", "boundary", "choice")


# ----------------------------------------------------------------- the corpus
_SMALL = ("--participants", "12", "--clusters", "2", "--iterations", "2",
          "--gossip-cycles", "4", "--noise-shares", "4")
_SLAB = ("--engine", "slab", "--participants", "400", "--clusters", "2",
         "--iterations", "2", "--gossip-cycles", "4", "--noise-shares", "8",
         "--sample-fraction", "0", "--json")


def _repro(*arguments: str) -> list[str]:
    return ["-m", "repro", *arguments]


def corpus(work: Path) -> list[tuple[str, list[str], int]]:
    """``(label, argv, exit status)`` of every program, in the order they
    run; *argv* is what follows ``python`` (a script path or ``-m repro``)."""
    programs = [(f"example {path.stem}", [str(path)])
                for path in sorted(EXAMPLES.glob("*.py"))]
    programs.append(("suite smoke", [
        str(ROOT / "benchmarks" / "suite" / "run.py"), "--scale", "smoke",
        "--reps", "1", "--out", str(work / "suite.json")]))
    programs.append(("benchmarks (pytest, timing off)", [
        "-m", "pytest", *map(str, sorted((ROOT / "benchmarks").glob("bench_*.py"))),
        "--benchmark-disable", "-q", "-p", "no:cacheprovider"]))
    programs += [
        ("run gaussian uniform none", _repro(
            "run", "--dataset", "gaussian", *_SMALL, "--budget-strategy", "uniform",
            "--smoothing", "none", "--json")),
        ("run cer adaptive exponential packing-off", _repro(
            "run", "--dataset", "cer", *_SMALL, "--budget-strategy", "adaptive",
            "--smoothing", "exponential", "--packing", "off")),
        ("run numed lowpass paillier", _repro(
            "run", "--dataset", "numed", *_SMALL, "--smoothing", "lowpass",
            "--backend", "paillier", "--json")),
        ("run damgard_jurik corrupted", _repro(
            "run", "--dataset", "gaussian", *_SMALL, "--backend", "damgard_jurik",
            "--corruption-rate", "0.05", "--json")),
        ("run live sequential", _repro(
            "run", "--dataset", "gaussian", *_SMALL, "--live", "--processes", "2",
            "--json")),
        ("run live concurrent envelope", _repro(
            "run", "--dataset", "gaussian", *_SMALL, "--live", "--processes", "2",
            "--stepping", "concurrent")),
        ("run live concurrent no envelope", _repro(
            "run", "--dataset", "gaussian", *_SMALL, "--live", "--processes", "2",
            "--stepping", "concurrent", "--envelope", "off", "--json")),
        ("run slab two shards", _repro("run", "--dataset", "gaussian", *_SLAB,
                                       "--slab-shards", "2")),
        ("run slab float32 mmap", _repro(
            "run", "--dataset", "gaussian", *_SLAB, "--slab-dtype", "float32",
            "--slab-backing", f"mmap:{work}", "--slab-chunk-rows", "64",
            "--matrix-backed")),
        ("compare", _repro("compare", "--dataset", "gaussian", *_SMALL)),
        ("compare json", _repro("compare", "--dataset", "cer", *_SMALL, "--json")),
        ("compare matrix-backed", _repro("compare", "--dataset", "gaussian", *_SMALL,
                                         "--matrix-backed", "--json")),
        ("crypto-bench sweep", _repro(
            "crypto-bench", "--key-bits", "128", "--repetitions", "1", "--iterations",
            "2", "--fastmath", "sweep", "--populations", "1000", "--json")),
        ("crypto-bench auto", _repro(
            "crypto-bench", "--key-bits", "128", "--repetitions", "1", "--iterations",
            "2", "--fastmath", "auto", "--slots", "4", "--populations", "1000")),
        ("crypto-bench off", _repro(
            "crypto-bench", "--key-bits", "128", "--repetitions", "1", "--iterations",
            "2", "--populations", "1000", "--json")),
    ]
    for spec in sorted(SCENARIOS.glob("*.json")) + sorted(SCENARIOS.glob("*.toml")):
        smoke = work / f"{spec.stem}.json"
        smoke.write_text(json.dumps(smoke_spec(spec)), encoding="utf-8")
        store = str(work / f"{spec.stem}.jsonl")
        programs += [
            (f"experiment list {spec.name}", _repro(
                "experiment", "list", "--spec", str(spec), "--store", store)),
            (f"experiment run {spec.stem} (smoke)", _repro(
                "experiment", "run", "--spec", str(smoke), "--store", store,
                "--jobs", "2", "--timeout", "300", "--quiet")),
            (f"experiment list {spec.stem} (smoke)", _repro(
                "experiment", "list", "--spec", str(smoke), "--store", store, "--json")),
            (f"experiment report {spec.stem} (smoke)", _repro(
                "experiment", "report", "--spec", str(smoke), "--store", store,
                "--markdown", "--out", str(work / f"{spec.stem}.md"))),
        ]
    ci_smoke = str(work / "ci_smoke.json")
    programs += [
        ("experiment run ci_smoke resume", _repro(
            "experiment", "run", "--spec", ci_smoke, "--store",
            str(work / "ci_smoke.jsonl"), "--resume", "--json")),
        ("experiment run ci_smoke second store", _repro(
            "experiment", "run", "--spec", ci_smoke, "--store",
            str(work / "ci_smoke_b.jsonl"), "--quiet", "--json")),
        ("experiment report ci_smoke cross-store", _repro(
            "experiment", "report", "--spec", ci_smoke, "--store",
            str(work / "ci_smoke.jsonl"), "--store", str(work / "ci_smoke_b.jsonl"))),
        ("experiment list ci_smoke default store", _repro(
            "experiment", "list", "--spec", ci_smoke)),
    ]
    programs = [(label, argv, 0) for label, argv in programs]
    # A cell over its wall-clock limit is recorded as a failure: exit 1.
    programs.append(("experiment run ci_smoke timed out", _repro(
        "experiment", "run", "--spec", ci_smoke, "--store",
        str(work / "ci_smoke_timeout.jsonl"), "--timeout", "0.01", "--quiet"), 1))
    return programs


def smoke_spec(path: Path) -> dict:
    """The spec at *path* with the same cells at smoke scale: one repeat,
    populations ranked onto 16, 20, 24, …, at most 8 noise shares, 2
    iterations and 4 gossip cycles per aggregation."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".toml":
        import tomllib

        spec = tomllib.loads(text)
    else:
        spec = json.loads(text)
    spec["repeats"] = 1
    spec.pop("seeds", None)
    overrides = [*spec.get("cells", [])]
    sizes = {spec.get("participants", 100),
             *spec.get("sweep", {}).get("participants", ()),
             *(cell["participants"] for cell in overrides if "participants" in cell)}
    smoke_size = {size: 16 + 4 * rank for rank, size in enumerate(sorted(sizes))}
    spec["participants"] = smoke_size[spec.get("participants", 100)]
    if "participants" in spec.get("sweep", {}):
        spec["sweep"]["participants"] = [smoke_size[size]
                                         for size in spec["sweep"]["participants"]]
    for cell in overrides:
        if "participants" in cell:
            cell["participants"] = smoke_size[cell["participants"]]
    base = spec.setdefault("base", {})
    for section, key, cap in (("privacy", "noise_shares", 8),
                              ("kmeans", "max_iterations", 2),
                              ("gossip", "cycles_per_aggregation", 4)):
        fields = base.setdefault(section, {})
        fields[key] = min(fields.get(key, cap), cap)
    return spec


# -------------------------------------------------------------- the collector
def collect(dumps: Path, argv: list[str]) -> None:
    """Run ``python *argv`` in this interpreter with every function entry of
    this process, its threads and its forks recorded in *dumps*."""
    codes: dict[int, object] = {}

    def profile(frame, event, arg, codes=codes, id=id):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    prefix = str(PACKAGE) + os.sep
    exit_now = os._exit

    def dump() -> None:
        sys.setprofile(None)
        entered = {f"{code.co_filename}:{code.co_qualname}" for code in codes.values()
                   if code.co_filename.startswith(prefix)}
        with open(dumps / f"{os.getpid()}.txt", "a", encoding="utf-8") as out:
            out.write("".join(line + "\n" for line in sorted(entered)))

    def exit_with_dump(status: int) -> None:
        dump()
        exit_now(status)

    def terminated(signum, frame) -> None:
        exit_with_dump(128 + signum)

    os._exit = exit_with_dump
    signal.signal(signal.SIGTERM, terminated)
    atexit.register(dump)
    # What ``python -m module`` and ``python script`` put first on the path.
    module = argv[1] if argv[0] == "-m" else None
    sys.argv = [module, *argv[2:]] if module else list(argv)
    sys.path[0] = os.getcwd() if module else str(Path(argv[0]).resolve().parent)
    threading.setprofile(profile)
    sys.setprofile(profile)
    if module:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(argv[0], run_name="__main__")


# ---------------------------------------------------------------- the analysis
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_BLOCKS = (ast.If, ast.Try, ast.With, ast.For, ast.While)


def _defined(body: list[ast.stmt], prefix: str) -> set[str]:
    """Qualified names of the functions and methods in *body* (not those
    nested in another function)."""
    names: set[str] = set()
    for statement in body:
        if isinstance(statement, _FUNCTIONS):
            names.add(prefix + statement.name)
        elif isinstance(statement, ast.ClassDef):
            names |= _defined(statement.body, f"{prefix}{statement.name}.")
        elif isinstance(statement, _BLOCKS):
            for block in ("body", "orelse", "finalbody"):
                names |= _defined(getattr(statement, block, []), prefix)
            for handler in getattr(statement, "handlers", []):
                names |= _defined(handler.body, prefix)
    return names


def _module(path: Path) -> str:
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    return module.removesuffix(".__init__")


def functions() -> set[str]:
    """``repro.pkg.module.Class.method`` of every function and method."""
    names: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= {f"{_module(path)}.{name}" for name in _defined(tree.body, "")}
    return names


def entered(dumps: Path) -> set[str]:
    """Qualified names of the functions some process of the corpus entered."""
    names: set[str] = set()
    for dump in dumps.glob("*.txt"):
        for line in dump.read_text(encoding="utf-8").splitlines():
            filename, _, qualname = line.rpartition(":")
            if "<" not in qualname:
                names.add(f"{_module(Path(filename))}.{qualname}")
    return names


def verdict(known: set[str], never: set[str]) -> list[str]:
    """The guard's complaints about the never-entered subset *never* of the
    functions *known*."""
    problems = [f"never entered, not allowlisted: {name}"
                for name in sorted(never - set(ALLOWLIST))]
    for name in sorted(ALLOWLIST):
        if name not in known:
            problems.append(f"allowlisted but no longer defined: {name}")
        elif name not in never:
            problems.append(f"allowlisted but entered (remove the entry): {name}")
    return problems


def run_corpus(dumps: Path) -> bool:
    with tempfile.TemporaryDirectory(prefix="program-coverage-") as scratch:
        work = Path(scratch)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        ok = True
        for label, argv, status in corpus(work):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--child", str(dumps),
                 *argv],
                cwd=scratch, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=PROGRAM_TIMEOUT_S)
            print(f"{time.perf_counter() - started:7.1f} s  exit {done.returncode}  {label}",
                  flush=True)
            if done.returncode != status:
                ok = False
                print(done.stderr[-4000:], file=sys.stderr)
        return ok


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:  # one corpus program: --child DUMPS ARGV...
        collect(Path(argv[1]), argv[2:])
        return 0
    with tempfile.TemporaryDirectory(prefix="program-coverage-dumps-") as scratch:
        dumps = Path(scratch)
        started = time.perf_counter()
        programs_ok = run_corpus(dumps)
        known = functions()
        never = known - entered(dumps)
        problems = verdict(known, never)
    print(f"{len(known) - len(never)} of {len(known)} functions and methods entered, "
          f"{len(never)} never ({len(ALLOWLIST)} allowlisted), "
          f"{time.perf_counter() - started:.0f} s")
    for problem in problems:
        print(problem)
    if not programs_ok:
        print("a corpus program failed (its stderr is above)")
    return 0 if programs_ok and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
