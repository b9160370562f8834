"""E10 — noise-magnitude / population-size scaling and the realised guarantee (claim C1).

Section III.B of the paper explains that the demo "scales the differential
privacy level to obtain the same 'noise magnitude / population size' ratio"
as a full-scale deployment.  This benchmark regenerates both directions:

* at a fixed ε, quality improves as the population grows (the noise is
  amortised over more contributions);
* following the demo's recipe, scaling ε so that the noise-to-population
  ratio stays constant keeps quality roughly constant across population
  sizes;
* the realised probabilistic guarantee (ε', δ) is reported for each run
  (claim C1: "a high level of privacy can be reached").

Since PR 5 the sweeps are thin wrappers over the experiment subsystem: each
direction is an :class:`~repro.experiments.ExperimentSpec` (the correlated
population/ε direction uses explicit ``cells``, the rest a ``sweep`` axis)
executed by the parallel runner — the same machinery behind
``repro experiment run --spec examples/scenarios/population_scaling.json``.

Run as a script, this module races the object engine against the slab
engine (``runtime.engine``) over growing populations and writes the
wall-clock / peak-RSS datapoints to ``BENCH_population_scaling.json``::

    PYTHONPATH=src python benchmarks/bench_population_scaling.py \
        --populations 1000 10000 100000 --out BENCH_population_scaling.json

Each measurement runs in a forked subprocess so peak RSS is attributed per
run.  The slab engine executes the real crypto pipeline on a sampled node
subset (``--sample-fraction``) and extrapolates the rest — that *is* the
optimisation under test, not an unfair shortcut: both engines produce a
full quality result over all N nodes.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import time

from conftest import run_once

from repro.analysis import format_table
from repro.experiments import (
    ExperimentSpec,
    ResultStore,
    comparison_rows,
    run_experiment,
)

POPULATIONS = [40, 80, 160]

_BASE = {
    "kmeans": {"n_clusters": 4, "max_iterations": 5},
    "privacy": {"epsilon": 2.0, "noise_shares": 32},
    "gossip": {"cycles_per_aggregation": 10},
    "crypto": {"threshold": 3, "n_key_shares": 6},
}

_DATASET_PARAMS = {"n_clusters": 4, "noise_std": 0.05}


def _sweep(spec: ExperimentSpec, store_path, metrics: list[str]) -> list[dict]:
    store = ResultStore(store_path)
    progress = run_experiment(spec, store, jobs=2)
    assert progress.failed == 0, progress.failures
    return comparison_rows(spec, store, metrics=metrics)


def test_quality_vs_population_at_fixed_epsilon(benchmark, tmp_path):
    spec = ExperimentSpec(
        name="bench_population_scaling_fixed_epsilon",
        dataset="gaussian",
        dataset_params=dict(_DATASET_PARAMS),
        participants=POPULATIONS[0],
        base=_BASE,
        sweep={"participants": POPULATIONS},
        base_seed=300,
        metrics={"label_key": "cluster"},
    )
    rows = run_once(
        benchmark, _sweep, spec, tmp_path / "e10a.jsonl",
        ["relative_inertia", "adjusted_rand_index", "effective_epsilon", "delta"],
    )
    print()
    print(format_table(
        rows, title="E10a - quality vs population size at fixed epsilon=2",
    ))
    # More participants amortise the same noise: quality improves (or at least
    # does not degrade) as the population grows.
    assert rows[-1]["relative_inertia"] <= rows[0]["relative_inertia"] * 1.2


def test_packed_ciphertexts_cut_costs_without_changing_results(benchmark, tmp_path):
    """Packing is a pure cost optimisation: identical output, fewer bigint ops.

    The packed run must produce bit-identical profiles (the fixed-point
    arithmetic is exact in both layouts) while the operation counters and the
    network volume drop by roughly the slot count.  The identity check reads
    the ``profiles_digest`` the result store records for every cell.
    """
    spec = ExperimentSpec(
        name="bench_population_scaling_packing",
        dataset="gaussian",
        dataset_params=dict(_DATASET_PARAMS),
        participants=POPULATIONS[0],
        base=_BASE,
        sweep={"crypto.packing": ["off", "auto"]},
        base_seed=300,
        metrics={"label_key": "cluster", "reference": False},
    )
    rows = run_once(
        benchmark, _sweep, spec, tmp_path / "e10c.jsonl",
        ["profiles_digest", "encryptions", "messages_sent", "bytes_sent"],
    )
    print()
    print(format_table(
        rows,
        columns=["crypto.packing", "encryptions", "messages_sent", "bytes_sent"],
        title="E10c - packed ciphertexts: identical quality, smaller costs",
    ))
    off, auto = rows[0], rows[1]
    assert off["profiles_digest"] == auto["profiles_digest"]
    assert auto["encryptions"] * 4 <= off["encryptions"]
    assert auto["bytes_sent"] * 2 <= off["bytes_sent"]


# ---------------------------------------------------------------- engine race
def _engine_probe(connection, n_participants: int, engine: str,
                  sample_fraction: float, iterations: int, seed: int,
                  slab_options: dict | None = None) -> None:
    """Subprocess body: one engine run, timed, with its own peak RSS.

    ``slab_options`` selects the out-of-core layout (``slab_dtype``,
    ``slab_backing``, ``slab_chunk_rows``) and whether the dataset is
    generated matrix-backed — one dense matrix instead of N Python series
    objects, mandatory above ~10^6 where the object-per-series dataset
    alone would dwarf the slabs being measured.
    """
    from repro.config import ChiaroscuroConfig
    from repro.core.runner import run_chiaroscuro
    from repro.datasets import load_dataset_for_population

    slab_options = slab_options or {}
    try:
        dataset_params = {"n_clusters": 4, "noise_std": 0.05}
        if slab_options.get("matrix_backed"):
            dataset_params["matrix_backed"] = True
            dataset_params["dtype"] = slab_options.get("slab_dtype", "float64")
        collection = load_dataset_for_population(
            "gaussian", n_participants, seed, **dataset_params
        )
        runtime = {
            "engine": engine,
            "crypto_sample_fraction":
                sample_fraction if engine == "slab" else 1.0,
        }
        for knob in ("slab_dtype", "slab_backing", "slab_chunk_rows"):
            if knob in slab_options:
                runtime[knob] = slab_options[knob]
        config = ChiaroscuroConfig().with_overrides(
            simulation={"n_participants": n_participants, "seed": seed},
            kmeans={"n_clusters": 4, "max_iterations": iterations},
            privacy={"epsilon": 2.0, "noise_shares": 32},
            gossip={"cycles_per_aggregation": 6},
            crypto={"threshold": 3, "n_key_shares": 6},
            runtime=runtime,
        )
        started = time.perf_counter()
        result = run_chiaroscuro(collection, config)
        wall_clock = time.perf_counter() - started
        row = {
            "engine": engine,
            "n_participants": n_participants,
            "wall_clock_seconds": wall_clock,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "n_iterations": result.n_iterations,
            "inertia": result.inertia,
        }
        if engine == "slab" and slab_options:
            row["slab_options"] = dict(slab_options)
        if engine == "slab" and result.costs.phase_seconds is not None:
            row["phase_seconds"] = {
                phase: round(seconds, 4)
                for phase, seconds in result.costs.phase_seconds.items()
            }
        connection.send(row)
    except Exception as error:  # pragma: no cover - surfaced by the parent
        connection.send({"error": f"{type(error).__name__}: {error}"})
    finally:
        connection.close()


def measure_engine(n_participants: int, engine: str,
                   sample_fraction: float = 0.01, iterations: int = 3,
                   seed: int = 7, slab_options: dict | None = None) -> dict:
    """Time one engine run in a forked subprocess (isolated peak RSS)."""
    context = multiprocessing.get_context("fork")
    parent, child = context.Pipe()
    worker = context.Process(
        target=_engine_probe,
        args=(child, n_participants, engine, sample_fraction, iterations,
              seed, slab_options),
    )
    worker.start()
    child.close()
    payload = parent.recv()
    worker.join()
    parent.close()
    if "error" in payload:
        raise RuntimeError(
            f"{engine} run at N={n_participants} failed: {payload['error']}"
        )
    return payload


def measure_engine_race(populations: list[int], sample_fraction: float = 0.01,
                        iterations: int = 3, seed: int = 7,
                        object_max: int | None = None,
                        huge_threshold: int | None = None,
                        slab_options: dict | None = None,
                        sample_max_nodes: int | None = None) -> list[dict]:
    """Object-vs-slab wall clock and peak RSS over growing populations.

    Populations above ``object_max`` run the slab engine only: the object
    engine holds every node as a live Python object (~1 MiB/node with the
    plain backend's bigint estimates), so at N=10^5 its resident set blows
    past 100 GiB and the probe would be OOM-killed before finishing.  Those
    rows carry ``object_skipped: "exceeds memory"`` instead of a speedup.

    Populations at or above ``huge_threshold`` additionally switch to the
    out-of-core layout in ``slab_options`` (chunked float32 slab on a
    memory-mapped file, matrix-backed dataset) — the N=10^7 configuration;
    smaller populations keep the dense bit-exact float64 layout so the
    committed speedup rows stay comparable across refreshes.
    ``sample_max_nodes`` caps the sampled crypto sub-run size so huge
    populations do not drag 10^5 object-engine nodes along.
    """
    rows = []
    for n_participants in populations:
        fraction = sample_fraction
        if sample_max_nodes is not None:
            fraction = min(fraction, sample_max_nodes / n_participants)
        options = None
        if huge_threshold is not None and n_participants >= huge_threshold:
            options = dict(slab_options or {})
            options.setdefault("matrix_backed", True)
        slab_row = measure_engine(n_participants, "slab",
                                  sample_fraction=fraction,
                                  iterations=iterations, seed=seed,
                                  slab_options=options)
        if object_max is not None and n_participants > object_max:
            slab_row["object_skipped"] = "exceeds memory"
            rows.append(slab_row)
            continue
        object_row = measure_engine(n_participants, "object",
                                    iterations=iterations, seed=seed)
        slab_row["speedup"] = (object_row["wall_clock_seconds"]
                               / max(slab_row["wall_clock_seconds"], 1e-9))
        rows.extend([object_row, slab_row])
    return rows


# ---------------------------------------------------------------- RSS gate
def measure_rss_ratio(n_participants: int, sample_fraction: float = 0.01,
                      iterations: int = 3, seed: int = 7,
                      slab_options: dict | None = None) -> dict:
    """Peak RSS of the out-of-core slab layout relative to the dense one.

    Both probes run the same slab workload at the same N; the dense side
    uses the default in-memory float64 slab and per-object dataset, the
    chunked side the full out-of-core stack (chunked slab on a memory-mapped
    file, float32, matrix-backed dataset).  The ratio is the CI gate that
    keeps the memory win from regressing.
    """
    dense = measure_engine(n_participants, "slab",
                           sample_fraction=sample_fraction,
                           iterations=iterations, seed=seed)
    chunked_options = {
        "slab_dtype": "float32",
        "slab_backing": "mmap:/tmp",
        # Only the madvise cadence of the mapped slab since the kernels
        # went blockwise (and capped at ADVISE_PAIR_CHUNK there): kept so
        # the gate runs the knobs an out-of-core user sets.
        "slab_chunk_rows": 16384,
        "matrix_backed": True,
    }
    chunked_options.update(slab_options or {})
    chunked = measure_engine(n_participants, "slab",
                             sample_fraction=sample_fraction,
                             iterations=iterations, seed=seed,
                             slab_options=chunked_options)
    dense["layout"] = "dense"
    chunked["layout"] = "chunked"
    ratio = chunked["peak_rss_mib"] / max(dense["peak_rss_mib"], 1e-9)
    return {"rows": [dense, chunked], "rss_ratio": ratio}


def test_slab_engine_outruns_object_engine(benchmark):
    """The slab engine's vectorised gossip beats per-object simulation.

    A small-N smoke of the committed BENCH_population_scaling.json race: at
    N=2000 the struct-of-arrays path must already win by a wide margin (the
    committed datapoints show >=10x at N=10^4).
    """
    rows = run_once(benchmark, measure_engine_race, [2000])
    print()
    print(format_table(
        rows,
        columns=["engine", "n_participants", "wall_clock_seconds",
                 "peak_rss_mib", "n_iterations"],
        title="E10d - object vs slab engine wall clock, N=2000",
    ))
    object_row, slab_row = rows
    assert object_row["n_iterations"] == slab_row["n_iterations"]
    assert slab_row["speedup"] >= 5.0, rows


def main(argv=None) -> int:
    """Write the BENCH_population_scaling.json perf-trajectory datapoint."""
    parser = argparse.ArgumentParser(
        description="Race the object vs slab engines and write "
                    "BENCH_population_scaling.json"
    )
    parser.add_argument("--populations", type=int, nargs="+",
                        default=[1000, 10_000, 100_000])
    parser.add_argument("--sample-fraction", type=float, default=0.01)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="fail unless the slab engine beats the object "
                             "engine by this factor at every population")
    parser.add_argument("--object-max", type=int, default=None,
                        help="largest population the object engine is raced "
                             "at; beyond it only the slab engine runs (the "
                             "object engine needs ~1 MiB per node and is "
                             "OOM-killed near N=10^5 on a 128 GiB machine)")
    parser.add_argument("--huge-threshold", type=int, default=1_000_000,
                        help="populations at or above this switch to the "
                             "out-of-core slab layout (chunked float32 slab "
                             "on a memory-mapped file, matrix-backed dataset)")
    parser.add_argument("--slab-dtype", default="float32",
                        choices=["float64", "float32"],
                        help="slab dtype of the out-of-core (huge) rows")
    parser.add_argument("--slab-backing", default="mmap:/tmp",
                        help="slab backing of the out-of-core (huge) rows")
    parser.add_argument("--slab-chunk-rows", type=int, default=65536,
                        help="row-block size of the out-of-core (huge) rows")
    parser.add_argument("--sample-max-nodes", type=int, default=None,
                        help="cap on sampled crypto sub-run size: the "
                             "effective fraction at population N is "
                             "min(sample-fraction, cap/N)")
    parser.add_argument("--assert-rss-ratio", type=float, default=None,
                        help="run the RSS gate instead of the race: fail "
                             "unless the chunked slab's peak RSS is at most "
                             "this fraction of the dense slab's at "
                             "--rss-population")
    parser.add_argument("--rss-population", type=int, default=100_000,
                        help="population of the --assert-rss-ratio probes")
    parser.add_argument("--out", default="BENCH_population_scaling.json")
    args = parser.parse_args(argv)
    slab_options = {
        "slab_dtype": args.slab_dtype,
        "slab_backing": args.slab_backing,
        "slab_chunk_rows": args.slab_chunk_rows,
    }
    if args.assert_rss_ratio is not None:
        # The gate always compares against its canonical chunked layout;
        # the --slab-* knobs only shape the huge rows of the engine race.
        comparison = measure_rss_ratio(
            args.rss_population, sample_fraction=args.sample_fraction,
            iterations=args.iterations, seed=args.seed,
        )
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "benchmark": "population_scaling_rss",
                "population": args.rss_population,
                "iterations": args.iterations,
                "sample_fraction": args.sample_fraction,
                "seed": args.seed,
                **comparison,
            }, handle, indent=2)
            handle.write("\n")
        print(format_table(
            comparison["rows"],
            columns=["layout", "n_participants", "wall_clock_seconds",
                     "peak_rss_mib"],
            title=f"chunked vs dense slab peak RSS, N={args.rss_population}",
        ))
        ratio = comparison["rss_ratio"]
        if ratio > args.assert_rss_ratio:
            print(f"FAIL: chunked/dense RSS ratio {ratio:.3f} exceeds "
                  f"{args.assert_rss_ratio}")
            return 1
        print(f"chunked slab peak RSS is {ratio:.3f}x the dense slab's "
              f"(gate: <= {args.assert_rss_ratio}x)")
        return 0
    rows = measure_engine_race(
        args.populations, sample_fraction=args.sample_fraction,
        iterations=args.iterations, seed=args.seed,
        object_max=args.object_max,
        huge_threshold=args.huge_threshold,
        slab_options=slab_options,
        sample_max_nodes=args.sample_max_nodes,
    )
    payload = {
        "benchmark": "population_scaling_engines",
        "iterations": args.iterations,
        "sample_fraction": args.sample_fraction,
        "seed": args.seed,
        "object_max": args.object_max,
        "huge_threshold": args.huge_threshold,
        "huge_slab_options": slab_options,
        "sample_max_nodes": args.sample_max_nodes,
        "config": {
            "n_clusters": 4,
            "epsilon": 2.0,
            "noise_shares": 32,
            "cycles_per_aggregation": 6,
            "threshold": 3,
            "backend": "plain",
        },
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(format_table(
        rows,
        columns=["engine", "n_participants", "wall_clock_seconds",
                 "peak_rss_mib", "speedup"],
        title=f"object vs slab engine race (written to {args.out})",
    ))
    if args.assert_speedup is not None:
        slab_rows = [row for row in rows
                     if row["engine"] == "slab" and "speedup" in row]
        slow = [row for row in slab_rows
                if row["speedup"] < args.assert_speedup]
        if slow:
            print(f"FAIL: slab speedup below {args.assert_speedup}x: {slow}")
            return 1
        print(f"slab engine >= {args.assert_speedup}x faster at every "
              f"population")
    return 0


def test_demo_scaling_rule_keeps_quality_constant(benchmark, tmp_path):
    """Scale ε with 1/population to keep the noise/population ratio constant."""
    base_population = POPULATIONS[0]
    base_epsilon = 4.0
    spec = ExperimentSpec(
        name="bench_population_scaling_demo_rule",
        dataset="gaussian",
        dataset_params=dict(_DATASET_PARAMS),
        participants=base_population,
        base=_BASE,
        # The demo's rule correlates the two axes, which a cartesian sweep
        # cannot express: enumerate the (population, ε) pairs explicitly.
        cells=[
            {"participants": population,
             "privacy.epsilon": base_epsilon * base_population / population}
            for population in POPULATIONS
        ],
        base_seed=300,
        metrics={"label_key": "cluster"},
    )
    rows = run_once(
        benchmark, _sweep, spec, tmp_path / "e10b.jsonl",
        ["relative_inertia", "effective_epsilon", "delta"],
    )
    print()
    print(format_table(
        rows,
        title="E10b - demo scaling rule: epsilon ~ 1/population keeps noise ratio constant",
    ))
    inertias = [row["relative_inertia"] for row in rows]
    # The scaling rule keeps quality in the same ballpark across populations.
    assert max(inertias) <= min(inertias) * 3.0


if __name__ == "__main__":
    import sys

    sys.exit(main())
