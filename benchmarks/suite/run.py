"""The end-to-end benchmark: every metric by name, from one command.

    PYTHONPATH=src python benchmarks/suite/run.py [--seed 7] [--reps 5]
        [--workloads a,b] [--out FILE]

runs every workload ``--reps`` times untraced (end-to-end metrics), once more
traced (per-layer table) with that workload's isolated probes, checks every
repetition's outputs, prints each metric with unit, n, median, min and max,
and writes the result file ``compare.py`` reads.

The benchmark driver calls the same program one workload at a time,

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

and reads the JSON object on the last line of standard output.

Closed loop, one run at a time, from this one process.  A repetition is a
fresh fork of the suite (imports warm, as a long-lived caller has them; the
cold import is charged to ``setup_s``) that builds the inputs from the seed,
calls ``repro.core.runner.run_chiaroscuro`` once and reports wall, CPU and
peak RSS of itself and its descendants.  Fresh children pay first-touch page
faults on every repetition, as a CLI user does, and isolate peak RSS.  All
timing is taken from outside the program, around calls to public functions.

Seconds are calibrated: the suite and all it starts run on one core, a thread
of the suite does a fixed burst of work on that core five times a second while
a repetition runs, and the repetition's seconds are divided by how much slower
than nominal the bursts ran (``calibrate.py`` says why and how).  The raw
seconds and the divisor of every repetition are in the result file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from importlib import util as importlib_util
from pathlib import Path
from typing import Any, Callable

# One BLAS thread, set before NumPy loads.  With OpenBLAS's default of one
# thread per core the second thread mostly spins on a 2-vCPU box, and
# slab_dense's ten-seed spread was 0.2-0.4 instead of 0.07-0.13 (README).
# An explicit setting of the caller's wins, and a process that already
# loaded NumPy (the test runner) is left alone.
if "numpy" not in sys.modules:
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_variable, "1")

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parents[1]
SRC = REPO / "src"
if (SRC / "repro").is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402  (siblings: the script's directory is on sys.path)
import check  # noqa: E402
import probes  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402
from workloads import END_TO_END, PER_LAYER, SERIES_LENGTH, WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 120.0
MIN_TIMED_REPS = 3
IMPORT_STATEMENT = ("import repro, repro.core.runner, repro.net.live, "
                    "repro.core.slab_runner")
#: What the driver's result line carries with ``--trace 0``: everything but
#: ``fail_share``, which that line reports as ``failed``/``attempted``.
DRIVER_END_TO_END = tuple(name for name in END_TO_END if name != "fail_share")


# ------------------------------------------------------------ child processes
def _child_main(sender: Any, function: Callable[..., dict], args: tuple) -> None:
    # Lead a process group, so that whatever the repetition leaves behind
    # (live workers of a run that timed out) can be stopped with it.
    os.setsid()
    try:
        payload = function(*args)
    except Exception:  # the boundary that must report, not crash
        payload = {"error": traceback.format_exc().strip().splitlines()[-1],
                   "traceback": traceback.format_exc()}
    sender.send(payload)
    sender.close()


def in_child(function: Callable[..., dict], *args: Any,
             kernel: str | None = None) -> dict[str, Any]:
    """``function(*args)`` in a fresh fork of this process, with a hard
    timeout; failures come back as ``{"error": ...}``.  With *kernel*, the
    box's slowdown on that calibration kernel while the child lived comes
    back as ``slowdown``, and the core time the sampling took as ``sampler_s``.

    Fork, not spawn: the child must start with the suite's imports warm.  The
    sampling thread starts after the fork and ends before this returns, so
    this process has one thread whenever it forks.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child_main, args=(sender, function, args))
    sampler = calibrate.Sampler(kernel) if kernel else None
    started = time.perf_counter()
    process.start()
    sender.close()
    if sampler:
        sampler.start()
    try:
        if receiver.poll(RUN_TIMEOUT_S):
            payload = receiver.recv()
        else:
            payload = {"error": f"timed out after {RUN_TIMEOUT_S:.0f} s"}
    except EOFError:
        payload = {"error": "the child exited without a result"}
    finally:
        receiver.close()
        process.join(5)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the usual case: the group ended with its leader
        process.join()
        if sampler:
            sampler.stop()
    payload["child_wall_s"] = time.perf_counter() - started
    payload["slowdown"] = sampler.slowdown if sampler else 1.0
    payload["sampler_s"] = sampler.core_s if sampler else 0.0
    return payload


def calibrated(row: dict[str, Any], key: str) -> float:
    """``row[key]`` seconds of a repetition at the box's nominal speed.  The
    sampling thread shared the repetition's core, so the run's wall first
    loses the run's share of the core time the bursts took; CPU seconds are
    the child's own and need no such correction."""
    seconds = row[key]
    if key == "run_wall_s":
        seconds -= row["sampler_s"] * seconds / row["child_wall_s"]
    return seconds / row["slowdown"]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    waited = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + waited.ru_utime + waited.ru_stime


def _peak_rss_mib() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def repetition(name: str, seed: int, scale: str, scratch: str,
               traced: bool) -> dict[str, Any]:
    """Child body: build the inputs, run the program once, report."""
    from repro.core.runner import run_chiaroscuro

    if WORKLOADS[name]["calibration"] is None:
        calibrate.unpin()  # concurrent by design: all cores, raw seconds
    recorder = None
    if traced:
        recorder = trace.Recorder(scratch)
        trace.install(recorder)
    started = time.perf_counter()
    collection, config = workloads.build(name, seed, scale, scratch)
    built = time.perf_counter()
    cpu_before = _cpu_seconds()
    with recorder.root() if recorder else nullcontext():
        result = run_chiaroscuro(collection, config)
    wall = time.perf_counter() - built
    row = {"build_s": built - started, "run_wall_s": wall,
           "cpu_s": _cpu_seconds() - cpu_before,
           "peak_rss_mib": _peak_rss_mib(), **workloads.read_result(result)}
    if recorder:
        import numpy as np

        tables = [trace.layer_table(spans, recorder.names)
                  for spans in recorder.processes()]
        root = tables[0].pop(trace.ROOT)
        row_bytes = (config.kmeans.n_clusters * (SERIES_LENGTH + 1)
                     * np.dtype(config.runtime.slab_dtype).itemsize)
        layers = trace.layer_metrics(
            trace.merge_tables(tables), row, wall, row["cpu_s"], row_bytes)
        layers["trace.unattributed_s"] = root["self_s"]
        row.update(
            layers=layers, traced_wall_s=root["total_s"],
            main_self_s=sum(entry["self_s"] for entry in tables[0].values()),
            traced_workers=len(tables) - 1, frames=recorder.frames)
    return row


def reference_run(name: str, seed: int, scale: str, scratch: str) -> dict[str, Any]:
    """Child body: the untimed run a workload's outputs are checked against."""
    from repro.core.runner import run_chiaroscuro

    collection, config = workloads.reference_inputs(name, seed, scale, scratch)
    return workloads.read_result(run_chiaroscuro(collection, config))


def probe_run(name: str, seed: int, scale: str, scratch: str,
              frames: list[bytes], seconds: float) -> dict[str, Any]:
    """Child body: the isolated probes that belong to *name*'s layers."""
    from repro.core.runner import build_run_setup

    collection, config = workloads.build(name, seed, scale, scratch)
    columns = config.kmeans.n_clusters * (SERIES_LENGTH + 1)
    measured: dict[str, Any] = {}
    for probe in WORKLOADS[name]["probes"]:
        family, _, variant = probe.partition(".")
        if family == "wire":
            for key, value in probes.wire_probe(frames, seconds).items():
                measured[f"probe.wire.{key}.{variant}"] = value
        elif family == "crypto":
            backend = build_run_setup(collection, config).backend
            for key, value in probes.crypto_probe(
                    backend, columns, seed, seconds).items():
                measured[f"probe.crypto.{key}.{variant}"] = value
        elif family == "slab":
            measured[f"probe.slab.average_ns_row.{variant}"] = probes.slab_probe(
                len(collection), columns, config.runtime, seed, seconds)
        else:
            if not frames:
                raise ValueError("the traced live run captured no frame")
            for key, value in probes.net_probe(max(frames, key=len), seconds).items():
                measured[f"probe.net.{key}"] = value
    return measured


def _timed_probe_sections(name: str) -> int:
    sections = {"wire": 2, "crypto": len(workloads.CRYPTO_OPS), "slab": 1, "net": 1}
    return sum(sections[probe.split(".")[0]] for probe in WORKLOADS[name]["probes"])


def import_seconds(times: int) -> list[float]:
    """Calibrated wall of a fresh interpreter importing the program, *times*
    times."""
    inherited = os.environ.get("PYTHONPATH")
    environment = {**os.environ, "PYTHONPATH":
                   str(SRC) + (os.pathsep + inherited if inherited else "")}
    samples = []
    for _ in range(times):
        sampler = calibrate.Sampler("interpreter")
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", IMPORT_STATEMENT],
                              env=environment) as process:
            sampler.start()
            status = process.wait()
        wall = time.perf_counter() - started
        sampler.stop()
        if status:
            raise subprocess.CalledProcessError(status, process.args)
        samples.append((wall - sampler.core_s) / sampler.slowdown)
    return samples


# ------------------------------------------------------------------- metrics
def _spread(values: list[float]) -> dict[str, Any]:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "values": values}


def end_to_end_metrics(name: str, rows: list[dict[str, Any]],
                       imports: list[float], attempted: int, failed: int,
                       ) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics of one workload from its good repetitions."""
    import_median = statistics.median(imports) if imports else 0.0
    per_rep: dict[str, list[float]] = {metric: [] for metric in DRIVER_END_TO_END}
    for row in rows:
        node_iterations = row["n_iterations"]
        wall = calibrated(row, "run_wall_s")
        per_rep["run_wall_s"].append(wall)
        per_rep["node_iters_per_s"].append(
            row["population"] * node_iterations / wall)
        per_rep["cpu_s"].append(calibrated(row, "cpu_s"))
        per_rep["peak_rss_mib"].append(row["peak_rss_mib"])
        per_rep["setup_s"].append(import_median + calibrated(row, "build_s"))
        per_rep["wire_bytes_per_node_iter"].append(
            row["bytes_sent"] / (row["executed_nodes"] * node_iterations))
    per_rep["fail_share"] = [failed / attempted] if attempted else []
    metrics = {}
    for metric, values in per_rep.items():
        if values:
            unit, better, _bound, _per_workload = END_TO_END[metric]
            metrics[metric] = {"unit": unit, "better": better,
                               "bound": workloads.bound_for(metric, name),
                               **_spread(values)}
    return metrics


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    import numpy

    def git(*command: str) -> str | None:
        try:
            done = subprocess.run(["git", *command], cwd=REPO, capture_output=True,
                                  text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None  # the driver's checkout is not a git repository
        return done.stdout.strip()

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "schema": workloads.SCHEMA_VERSION,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib_util.find_spec("gmpy2") is not None,
        "seed": args.seed, "scale": args.scale, "reps": args.reps,
        "seconds": args.seconds, "trace": args.trace,
        "unix_time": time.time(),
    }


# ---------------------------------------------------------------------- suite
def run_suite(args: argparse.Namespace, names: list[str], scratch: str,
              ) -> dict[str, Any]:
    seed, scale = args.seed, args.scale
    report: dict[str, Any] = {"provenance": provenance(args), "workloads": {}}
    state = {name: {"rows": [], "failures": [], "attempted": 0, "failed": 0,
                    "spent": 0.0, "repetition_s": 0.0, "anchor": None,
                    "reference": None, "traced": None}
             for name in names}

    def judge(name: str, row: dict[str, Any]) -> None:
        entry = state[name]
        failures = check.check_repetition(
            name, row, entry["anchor"], entry["reference"], seed, scale)
        entry["attempted"] += 1
        if failures:
            entry["failed"] += 1
            entry["failures"].append(
                {"repetition": entry["attempted"], "failures": failures})
            print(f"FAIL {name} repetition {entry['attempted']}: "
                  + "; ".join(failures), file=sys.stderr)
        elif entry["anchor"] is None:
            entry["anchor"] = row

    def timed(name: str, traced: bool) -> dict[str, Any]:
        """One repetition, with the box's slowdown while it ran."""
        row = in_child(repetition, name, seed, scale, scratch, traced,
                       kernel=WORKLOADS[name]["calibration"])
        state[name]["spent"] += row["child_wall_s"]
        state[name]["repetition_s"] += row["child_wall_s"]
        return row

    def untraced(name: str) -> None:
        row = timed(name, False)
        judge(name, row)
        if "error" not in row:
            state[name]["rows"].append(row)

    def traced_layers(name: str) -> dict[str, float]:
        """One traced repetition and the workload's probes: the layer table."""
        entry = state[name]
        traced = entry["traced"] = timed(name, True)
        frames = traced.pop("frames", [])
        for leftover in Path(scratch).glob("spans-*"):
            leftover.unlink()
        judge(name, traced)
        if "error" in traced:
            return {}
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(traced["layers"])
        if entry["rows"]:
            untraced_wall = statistics.median(
                calibrated(row, "run_wall_s") for row in entry["rows"])
            layers["trace.overhead_ratio"] = (
                calibrated(traced, "run_wall_s") / untraced_wall - 1)
        sections = _timed_probe_sections(name)
        if sections:
            each = 0.5
            if args.seconds is not None:
                each = min(0.5, max(0.1, (args.seconds - entry["spent"]) / sections))
            probed = in_child(probe_run, name, seed, scale, scratch, frames, each)
            if "error" in probed:
                judge(name, probed)
            else:
                layers.update((metric, value) for metric, value in probed.items()
                              if metric in PER_LAYER)
        return layers

    # ``--seconds`` covers everything measured for a workload: its reference
    # run, its share of the import timing and its repetitions.
    for name in names:
        if WORKLOADS[name]["reference"] is not None:
            reference = in_child(reference_run, name, seed, scale, scratch)
            state[name]["reference"] = reference
            state[name]["spent"] += reference["child_wall_s"]

    imports: list[float] = []
    if args.trace != "1":
        started = time.perf_counter()
        imports = import_seconds(
            1 if scale == "smoke" else 5 if args.seconds is None else 3)
        for name in names:
            state[name]["spent"] += (time.perf_counter() - started) / len(names)

    def wants_more(name: str) -> bool:
        entry = state[name]
        done = len(entry["rows"]) + entry["failed"]
        if args.trace == "1":  # only the baseline of trace.overhead_ratio
            return done < min(args.reps, MIN_TIMED_REPS)
        if args.seconds is None:
            return done < args.reps
        if done < MIN_TIMED_REPS:
            return True
        # Another one only if at least half of it fits the budget.
        return entry["spent"] + 0.5 * entry["repetition_s"] / done < args.seconds

    # Round-robin, so that drift of the box hits every workload alike.
    while any(wants_more(name) for name in names):
        for name in names:
            if wants_more(name):
                untraced(name)

    for name in names:
        entry = state[name]
        layers = traced_layers(name) if args.trace != "0" else {}
        report["workloads"][name] = {
            "definition": WORKLOADS[name],
            "repetitions": entry["rows"],
            "reference": entry["reference"],
            "traced": entry["traced"],
            "failures": entry["failures"],
            "attempted": entry["attempted"], "failed": entry["failed"],
            "end_to_end": end_to_end_metrics(
                name, entry["rows"], imports, entry["attempted"], entry["failed"]),
            "per_layer": {metric: {"unit": PER_LAYER[metric][0], "value": value}
                          for metric, value in layers.items()},
        }
    report["import_seconds"] = imports
    report["cross_failures"] = check.check_across(
        {name: state[name]["anchor"] for name in names if state[name]["anchor"]})
    for failure in report["cross_failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    return report


def print_report(report: dict[str, Any]) -> None:
    for name, entry in report["workloads"].items():
        print(f"== {name}: {entry['attempted']} repetitions, "
              f"{entry['failed']} failed ==")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<28} {row['unit']:<6} n={row['n']:<2} "
                  f"median {row['median']:<14.6g} min {row['min']:<14.6g} "
                  f"max {row['max']:.6g}")
        if entry["repetitions"]:
            print("  seconds above are calibrated; raw run_wall_s median "
                  f"{statistics.median(r['run_wall_s'] for r in entry['repetitions']):.6g}"
                  " at slowdown median "
                  f"{statistics.median(r['slowdown'] for r in entry['repetitions']):.4g}")
        if entry["per_layer"]:
            print("  -- per layer: one traced run, probes are medians of "
                  f"{probes.BATCHES} batches --")
        for metric, row in entry["per_layer"].items():
            print(f"  {metric:<42} {row['unit']:<6} {row['value']:.6g}")


def driver_line(report: dict[str, Any], name: str, trace_mode: str) -> str:
    entry = report["workloads"][name]
    if trace_mode == "1":
        metrics = {metric: {"value": row["value"], "unit": row["unit"]}
                   for metric, row in entry["per_layer"].items()}
    else:
        metrics = {metric: {"value": entry["end_to_end"][metric]["median"],
                            "unit": entry["end_to_end"][metric]["unit"]}
                   for metric in DRIVER_END_TO_END if metric in entry["end_to_end"]}
    return json.dumps({
        "correct": entry["failed"] == 0 and not report["cross_failures"],
        "attempted": max(1, entry["attempted"]), "failed": entry["failed"],
        "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced repetitions per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload instead of --reps")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset (default: all seven)")
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="driver mode: this workload alone, result line last")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end only, 1: traced run and probes only")
    parser.add_argument("--scale", choices=("pinned", "smoke"), default="pinned")
    parser.add_argument("--out", default=None, help="result file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program is not at {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else args.workloads.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or args.reps < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--reps < 1")
    __import__("repro.core.runner")  # warm, and compiled before imports are timed
    __import__("repro.net.live")
    __import__("repro.core.slab_runner")

    scratch = SUITE / ".work" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    allowed = calibrate.pin()
    try:
        report = run_suite(args, names, str(scratch))
    finally:
        calibrate.unpin(allowed)
        shutil.rmtree(scratch, ignore_errors=True)
    print_report(report)
    out = args.out or (None if args.workload else str(SUITE / ".work" / "last_result.json"))
    if out:
        Path(out).write_text(json.dumps(report, indent=1, default=repr) + "\n",
                             encoding="utf-8")
        print(f"wrote {out}")
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    if args.workload:
        print(driver_line(report, args.workload, args.trace))
        return 0
    return 1 if failed or report["cross_failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
