"""Live-runner saturation: sequential vs concurrent stepping over the wire.

The live runner's sequential stepping steps one node at a time in the cycle
engine's scheduler order — the workers replay it and pass one stepping
token among themselves, so only one worker works at a time and N worker
processes buy zero wall-clock parallelism.  Concurrent stepping
(``runtime.stepping="concurrent"``) drops that order: the coordinator only
enforces iteration epochs while every worker drives its whole shard with
many exchanges in flight.  This benchmark measures what that buys —
exchanges/sec and bytes/sec across process counts, for both modes — and
what it costs: the committed JSON also carries the nondeterminism envelope
(profile distance, assignment churn, byte spread vs the deterministic
cycle-mode reference) of a concurrent run.

Run as a script, it writes the datapoints to ``BENCH_live_throughput.json``::

    PYTHONPATH=src python benchmarks/bench_live_throughput.py \
        --process-counts 1 2 4 --out BENCH_live_throughput.json

Each measurement runs in a forked subprocess so one run's worker processes
and sockets cannot leak into the next.  Timing rows run with
``runtime.envelope="off"`` — the envelope's cycle-mode reference run is an
analysis step, not part of the live run's wall clock.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import time

from conftest import run_once

from repro.analysis import format_table

#: The smoke scenario every row runs: small enough for CI, enough gossip
#: work in flight that stepping a whole shard at once is visible.
SCENARIO = {
    "participants": 20,
    "clusters": 2,
    "iterations": 3,
    "gossip_cycles": 4,
    "noise_shares": 8,
    "seed": 0,
}


def _live_probe(connection, processes: int, stepping: str,
                envelope: str, scenario: dict) -> None:
    """Subprocess body: one live run, timed, throughput counters attached."""
    from repro.config import ChiaroscuroConfig
    from repro.core.runner import run_chiaroscuro
    from repro.datasets import load_dataset_for_population

    try:
        collection = load_dataset_for_population(
            "gaussian", scenario["participants"], scenario["seed"],
            n_clusters=scenario["clusters"], noise_std=0.05,
        )
        config = ChiaroscuroConfig().with_overrides(
            simulation={"n_participants": scenario["participants"],
                        "seed": scenario["seed"]},
            kmeans={"n_clusters": scenario["clusters"],
                    "max_iterations": scenario["iterations"]},
            privacy={"epsilon": 2.0, "noise_shares": scenario["noise_shares"]},
            gossip={"cycles_per_aggregation": scenario["gossip_cycles"]},
            crypto={"threshold": 3, "n_key_shares": 6},
            runtime={"mode": "live", "processes": processes,
                     "stepping": stepping, "envelope": envelope,
                     "run_timeout": 240.0},
        )
        started = time.perf_counter()
        result = run_chiaroscuro(collection, config)
        wall_clock = time.perf_counter() - started
        # One exchange = one accounted request/reply frame pair, so the
        # exchange count is half the charged message count.
        exchanges = result.costs.messages_sent / 2.0
        row = {
            "stepping": stepping,
            "processes": processes,
            "wall_clock_seconds": wall_clock,
            "exchanges": exchanges,
            "bytes_sent": result.costs.bytes_sent,
            "exchanges_per_second": exchanges / max(wall_clock, 1e-9),
            "bytes_per_second": result.costs.bytes_sent / max(wall_clock, 1e-9),
            "cycles_run": result.metadata["live"]["cycles_run"],
            "n_iterations": result.n_iterations,
        }
        if result.costs.envelope is not None:
            row["envelope"] = dict(result.costs.envelope)
        connection.send(row)
    except Exception as error:  # pragma: no cover - surfaced by the parent
        connection.send({"error": f"{type(error).__name__}: {error}"})
    finally:
        connection.close()


def measure_live(processes: int, stepping: str, envelope: str = "off",
                 scenario: dict | None = None) -> dict:
    """Time one live run in a forked subprocess (isolated workers/sockets)."""
    context = multiprocessing.get_context("fork")
    parent, child = context.Pipe()
    worker = context.Process(
        target=_live_probe,
        args=(child, processes, stepping, envelope, scenario or dict(SCENARIO)),
    )
    worker.start()
    child.close()
    payload = parent.recv()
    worker.join()
    parent.close()
    if "error" in payload:
        raise RuntimeError(
            f"{stepping} live run at processes={processes} failed: "
            f"{payload['error']}"
        )
    return payload


def measure_saturation(process_counts: list[int],
                       scenario: dict | None = None) -> list[dict]:
    """Sequential vs concurrent stepping over growing process counts.

    Concurrent rows carry ``speedup`` — the sequential wall clock at the
    same process count divided by theirs.
    """
    rows: list[dict] = []
    for processes in process_counts:
        sequential = measure_live(processes, "sequential", scenario=scenario)
        concurrent = measure_live(processes, "concurrent", scenario=scenario)
        concurrent["speedup"] = (
            sequential["wall_clock_seconds"]
            / max(concurrent["wall_clock_seconds"], 1e-9)
        )
        rows.extend([sequential, concurrent])
    return rows


def test_concurrent_stepping_outruns_sequential(benchmark):
    """Dropping the one-step-at-a-time order must pay off at 4 worker processes.

    The CI bench-smoke assertion behind the tentpole claim: on the smoke
    scenario, ``--stepping concurrent`` at 4 processes beats sequential
    wall-clock.  The committed BENCH_live_throughput.json shows the full
    process-count sweep.
    """
    rows = run_once(benchmark, measure_saturation, [4])
    print()
    print(format_table(
        rows,
        columns=["stepping", "processes", "wall_clock_seconds",
                 "exchanges_per_second", "bytes_per_second", "cycles_run"],
        title="live throughput: sequential vs concurrent, 4 processes",
    ))
    sequential, concurrent = rows
    assert concurrent["wall_clock_seconds"] < sequential["wall_clock_seconds"], rows
    assert concurrent["n_iterations"] > 0


def main(argv=None) -> int:
    """Write the BENCH_live_throughput.json saturation datapoints."""
    parser = argparse.ArgumentParser(
        description="Measure live-runner throughput (sequential vs concurrent "
                    "stepping) and write BENCH_live_throughput.json"
    )
    parser.add_argument("--process-counts", type=int, nargs="+",
                        default=[1, 2, 4])
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="fail unless concurrent stepping beats sequential "
                             "by this factor at the largest process count")
    parser.add_argument("--out", default="BENCH_live_throughput.json")
    args = parser.parse_args(argv)
    rows = measure_saturation(args.process_counts)
    # One extra concurrent run with the envelope enabled: the committed
    # datapoint quantifies the nondeterminism the speedup buys.  Kept out
    # of the timing rows — its wall clock includes the cycle reference.
    envelope_run = measure_live(
        max(args.process_counts), "concurrent", envelope="auto"
    )
    payload = {
        "benchmark": "live_throughput",
        "scenario": dict(SCENARIO),
        "rows": rows,
        "envelope": envelope_run.get("envelope"),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(format_table(
        rows,
        columns=["stepping", "processes", "wall_clock_seconds",
                 "exchanges_per_second", "bytes_per_second", "speedup"],
        title=f"live throughput saturation (written to {args.out})",
    ))
    if payload["envelope"] is not None:
        print(format_table(
            [payload["envelope"]],
            columns=["profile_distance_relative", "assignment_churn",
                     "byte_spread"],
            title="nondeterminism envelope of the concurrent run",
        ))
    if args.assert_speedup is not None:
        largest = max(args.process_counts)
        candidates = [row for row in rows
                      if row["stepping"] == "concurrent"
                      and row["processes"] == largest]
        slow = [row for row in candidates
                if row["speedup"] < args.assert_speedup]
        if slow:
            print(f"FAIL: concurrent speedup below {args.assert_speedup}x "
                  f"at {largest} processes: {slow}")
            return 1
        print(f"concurrent stepping >= {args.assert_speedup}x faster than "
              f"sequential at {largest} processes")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
