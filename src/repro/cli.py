"""Command-line interface: run Chiaroscuro experiments without writing code.

Four subcommands mirror the demonstration's workflow:

* ``run`` — execute the protocol on one of the registered datasets and print
  the run summary, the profile sizes and the realised privacy guarantee;
* ``compare`` — compare Chiaroscuro against the centralised, centralised-DP
  and plain-gossip baselines on the same dataset;
* ``crypto-bench`` — measure the Damgård–Jurik per-operation costs for a
  given key size and print the extrapolated per-participant cost of a run;
* ``experiment run|report`` — execute a declarative scenario matrix (a
  JSON/TOML experiment spec, see :mod:`repro.experiments`) in parallel
  worker processes with resumable caching, and render the cross-scenario
  comparison report.

Examples
--------
::

    python -m repro run --dataset cer --participants 100 --clusters 4 --epsilon 2
    python -m repro compare --dataset numed --participants 80 --epsilon 5
    python -m repro crypto-bench --key-bits 512 --populations 1000 1000000
    python -m repro experiment run --spec examples/scenarios/privacy_vs_quality.json --jobs 2
    python -m repro experiment report --spec examples/scenarios/privacy_vs_quality.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    CostModel,
    ProtocolWorkload,
    compare_with_baselines,
    format_comparison,
    format_table,
    measure_crypto_costs,
    sweep_crypto_costs,
)
from .config import ChiaroscuroConfig
from .core import run_chiaroscuro
from .crypto import normalize_packing
from .datasets import (
    available_datasets,
    dataset_size_parameter,
    load_dataset,
    load_dataset_for_population,
)
from .exceptions import ConfigurationError, ReproError


def _dataset_from_args(args: argparse.Namespace):
    """Instantiate the requested dataset with a size fitting the population.

    Population sizing and validation live in one place —
    :func:`repro.datasets.load_dataset_for_population` — shared with the
    experiment subsystem; datasets that do not declare a size parameter
    (custom registrations) are loaded as-is with the seed only.
    """
    if dataset_size_parameter(args.dataset) is None:
        return load_dataset(args.dataset, seed=args.seed)
    extra = {"n_clusters": args.clusters} if args.dataset == "gaussian" else {}
    if getattr(args, "matrix_backed", False):
        # One flat array instead of N TimeSeries objects; the generator dtype
        # follows the slab dtype so a float32 out-of-core run never
        # materialises a float64 copy of the data matrix.
        extra.update(matrix_backed=True, dtype=getattr(args, "slab_dtype", "float64"))
    return load_dataset_for_population(
        args.dataset, args.participants, seed=args.seed, **extra,
    )


def _config_from_args(args: argparse.Namespace) -> ChiaroscuroConfig:
    if args.stepping == "concurrent" and not args.live:
        # ChiaroscuroConfig accepts the pair (the envelope's cycle-mode
        # reference is derived from a concurrent configuration).
        raise ConfigurationError("--stepping concurrent needs --live")
    return ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": args.clusters, "max_iterations": args.iterations},
        privacy={"epsilon": args.epsilon,
                 "noise_shares": min(args.noise_shares, args.participants),
                 "budget_strategy": args.budget_strategy},
        gossip={"cycles_per_aggregation": args.gossip_cycles},
        smoothing={"method": args.smoothing},
        crypto={"backend": args.backend, "packing": normalize_packing(args.packing)},
        simulation={"n_participants": args.participants, "seed": args.seed},
        network={"corruption_rate": args.corruption_rate},
        runtime={
            "mode": "live" if args.live else "cycle",
            "processes": args.processes,
            "base_port": args.live_port,
            "run_timeout": args.live_timeout,
            "stepping": args.stepping,
            "envelope": args.envelope,
            "engine": args.engine,
            "slab_shards": args.slab_shards,
            "slab_dtype": args.slab_dtype,
            "slab_backing": args.slab_backing,
            "slab_chunk_rows": args.slab_chunk_rows,
            "crypto_sample_fraction": args.sample_fraction,
        },
    )


def _add_common_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="cer", choices=sorted(available_datasets()),
                        help="registered dataset to cluster")
    parser.add_argument("--participants", type=int, default=100,
                        help="number of simulated personal devices")
    parser.add_argument("--clusters", type=int, default=4, help="number of profiles k")
    parser.add_argument("--iterations", type=int, default=6, help="maximum k-means iterations")
    parser.add_argument("--epsilon", type=float, default=2.0, help="total privacy budget")
    parser.add_argument("--noise-shares", type=int, default=32,
                        help="number of noise-share contributors")
    parser.add_argument("--budget-strategy", default="geometric",
                        choices=["uniform", "geometric", "adaptive"])
    parser.add_argument("--smoothing", default="moving_average",
                        choices=["none", "moving_average", "lowpass", "exponential"])
    parser.add_argument("--gossip-cycles", type=int, default=10,
                        help="gossip cycles per aggregation")
    parser.add_argument("--backend", default="plain",
                        choices=["plain", "paillier", "damgard_jurik"],
                        help="cipher backend (plain = demo mode with simulated crypto)")
    parser.add_argument("--packing", default="auto",
                        help="ciphertext slot packing: auto, off, or a slot count")
    parser.add_argument("--corruption-rate", type=float, default=0.0,
                        help="probability that a delivered wire frame has one bit "
                             "flipped in transit")
    parser.add_argument("--live", action="store_true",
                        help="run over real TCP sockets between worker processes "
                             "(the live runner) instead of the in-process cycle "
                             "simulation")
    parser.add_argument("--processes", type=int, default=2,
                        help="worker processes of the live runner (with --live)")
    parser.add_argument("--live-port", type=int, default=0,
                        help="first worker port of the live runner (0 = ephemeral)")
    parser.add_argument("--live-timeout", type=float, default=300.0,
                        help="hard wall-clock limit in seconds on a live run")
    parser.add_argument("--stepping", default="sequential",
                        choices=["sequential", "concurrent"],
                        help="live stepping discipline (with --live): sequential "
                             "replays the cycle engine's scheduler (bit-identical "
                             "results), "
                             "concurrent drives every worker's shard with many "
                             "exchanges in flight (faster, nondeterministic — "
                             "the divergence is reported as envelope metrics)")
    parser.add_argument("--envelope", default="auto", choices=["auto", "off"],
                        help="with --stepping concurrent: auto runs the "
                             "deterministic cycle-mode reference afterwards and "
                             "reports divergence metrics in the cost summary; "
                             "off skips the reference run")
    parser.add_argument("--engine", default="object", choices=["object", "slab"],
                        help="population engine: object (one participant object "
                             "per node) or slab (vectorised struct-of-arrays "
                             "population with sampled crypto — the million-node "
                             "path)")
    parser.add_argument("--sample-fraction", type=float, default=1.0,
                        help="fraction of nodes running the real crypto pipeline "
                             "under --engine slab (1.0 = everything, results "
                             "bit-identical to the object engine; 0 = the "
                             "smallest sample that can run the protocol; "
                             "symbolic totals: repro crypto-bench)")
    parser.add_argument("--slab-shards", type=int, default=1,
                        help="shared-memory worker shards of the slab engine's "
                             "assignment, scatter/means and gossip-averaging "
                             "phases (results are shard-invariant)")
    parser.add_argument("--slab-dtype", default="float64",
                        choices=["float64", "float32"],
                        help="element type of the slab engine's estimate slab: "
                             "float64 is bit-identical to the object engine, "
                             "float32 halves resident memory for very large "
                             "populations")
    parser.add_argument("--slab-backing", default="memory",
                        help="estimate-slab storage: memory, or mmap:<dir> to "
                             "back the slab with an unlinked memory-mapped "
                             "temporary file so huge populations run in "
                             "bounded resident memory (bit-identical)")
    parser.add_argument("--slab-chunk-rows", type=int, default=0,
                        help="pairs averaged between two page releases of an "
                             "mmap-backed slab (0 = the built-in cap of 8192); "
                             "never changes results")
    parser.add_argument("--matrix-backed", action="store_true",
                        help="generate the dataset as one flat array instead "
                             "of per-node TimeSeries objects (gaussian only); "
                             "with --slab-dtype float32 the data matrix is "
                             "float32 end to end")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _command_run(args: argparse.Namespace) -> int:
    collection = _dataset_from_args(args)
    config = _config_from_args(args)
    result = run_chiaroscuro(collection, config)
    if args.json:
        payload = {
            "summary": result.summary(),
            "profiles": result.profiles.tolist(),
            "cluster_sizes": result.cluster_sizes(),
            "guarantee": result.guarantee.as_dict(),
            "costs": result.costs.as_dict(),
        }
        if "live" in result.metadata:
            payload["live"] = result.metadata["live"]
        print(json.dumps(payload, indent=2))
        return 0
    print(format_table([result.summary()], title=f"Chiaroscuro run on {collection.name}"))
    print()
    print(format_table(
        [{"profile": cluster, "members": size}
         for cluster, size in result.cluster_sizes().items()],
        title="profile sizes",
    ))
    print()
    print(format_table([result.guarantee.as_dict()], title="realised privacy guarantee"))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    collection = _dataset_from_args(args)
    config = _config_from_args(args)
    label_key = "cluster" if args.dataset == "gaussian" else "archetype"
    reports = compare_with_baselines(collection, config, label_key=label_key)
    if args.json:
        print(json.dumps(reports, indent=2))
        return 0
    print(format_comparison(
        reports,
        columns=["relative_inertia", "adjusted_rand_index", "centroid_matching_error"],
        title=f"Chiaroscuro vs baselines on {collection.name} (epsilon={args.epsilon})",
    ))
    return 0


def _command_crypto_bench(args: argparse.Namespace) -> int:
    n_shares = max(args.threshold, args.threshold + 2)
    if args.fastmath == "sweep":
        profiles = sweep_crypto_costs(
            key_bits=args.key_bits, degree=args.degree, threshold=args.threshold,
            n_shares=n_shares, repetitions=args.repetitions,
        )
    else:
        profiles = {
            args.fastmath: measure_crypto_costs(
                key_bits=args.key_bits, degree=args.degree, threshold=args.threshold,
                n_shares=n_shares, repetitions=args.repetitions,
                fastmath=args.fastmath,
            )
        }
    payload: dict = {"profiles": {}, "rows": {}}
    profile_rows = []
    for mode, profile in profiles.items():
        workload = ProtocolWorkload(
            n_clusters=args.clusters, series_length=args.series_length,
            iterations=args.iterations, gossip_cycles=args.gossip_cycles,
            exchanges_per_cycle=1, threshold=args.threshold, slots=args.slots,
            amortized_encryptions=mode != "off",
        )
        rows = CostModel(profile).sweep_population(workload, args.populations)
        accounting = workload.byte_accounting(profile.ciphertext_bytes)
        for row in rows:
            row["wire_bytes_sent"] = accounting.bytes_measured
            row["wire_overhead_fraction"] = accounting.overhead_fraction
        payload["profiles"][mode] = profile.as_dict()
        payload["rows"][mode] = rows
        profile_rows.append({"fastmath": mode, **profile.as_dict()})
    if args.json:
        if len(profiles) == 1:
            mode = next(iter(profiles))
            print(json.dumps({"profile": payload["profiles"][mode],
                              "rows": payload["rows"][mode]}, indent=2))
        else:
            print(json.dumps(payload, indent=2))
        return 0
    print(format_table(profile_rows, title="measured per-operation costs"))
    for mode in profiles:
        print()
        print(format_table(
            payload["rows"][mode],
            title=f"extrapolated per-participant run costs (fastmath={mode})",
        ))
    return 0


def _default_store_path(spec_path: str) -> Path:
    """Default result-store location of a spec: ``results/<spec-stem>.jsonl``.

    Kept out of the spec directory so running example specs never litters
    the checked-in scenario files with result stores.
    """
    return Path("results") / (Path(spec_path).stem + ".jsonl")


def _command_experiment_run(args: argparse.Namespace) -> int:
    # Deferred import: the experiment subsystem pulls in multiprocessing
    # machinery the one-shot commands never need.
    from .experiments import ExperimentSpec, ResultStore, run_experiment

    spec = ExperimentSpec.from_file(args.spec)
    store = ResultStore(args.store or _default_store_path(args.spec))
    progress = None
    if not args.quiet and not args.json:
        def progress(message: str) -> None:
            print(message)
    summary = run_experiment(
        spec, store, jobs=args.jobs, resume=args.resume,
        timeout=args.timeout, progress=progress,
    )
    if args.json:
        print(json.dumps({
            "experiment": spec.name,
            "spec_hash": spec.spec_hash,
            "store": str(store.path),
            **summary.as_dict(),
        }, indent=2))
    else:
        print(f"experiment {spec.name}: {summary.executed} executed "
              f"({summary.failed} failed), {summary.skipped} cached, "
              f"store={store.path}")
        for failure in summary.failures:
            print(f"  {failure['status']}: cell {failure['cell']['index']} "
                  f"({failure.get('error', '')})")
    return 1 if summary.failed else 0


def _command_experiment_list(args: argparse.Namespace) -> int:
    """Show a spec's cells and their store status (cached/pending/failed).

    The inspection companion of ``experiment run --resume``: before starting
    (or resuming) a long sweep, list which cells already have a cached ``ok``
    row, which failed or timed out (they will re-run), and which were never
    attempted.
    """
    from .experiments import ExperimentSpec, ResultStore

    spec = ExperimentSpec.from_file(args.spec)
    store = ResultStore(args.store or _default_store_path(args.spec))
    latest = store.latest_by_key()
    rows = []
    counts = {"cached": 0, "pending": 0, "error": 0, "timeout": 0}
    for cell in spec.expand():
        row = latest.get(cell.key)
        if row is None:
            status = "pending"
        elif row.get("status") == "ok":
            status = "cached"
        else:
            status = str(row.get("status"))
        counts[status] = counts.get(status, 0) + 1
        rows.append({
            "cell": cell.index,
            "label": cell.label(),
            "key": cell.key,
            "status": status,
        })
    if args.json:
        print(json.dumps({
            "experiment": spec.name,
            "spec_hash": spec.spec_hash,
            "store": str(store.path),
            "counts": counts,
            "cells": rows,
        }, indent=2))
        return 0
    print(f"experiment {spec.name}: {len(rows)} cells, store={store.path}")
    print(format_table(
        [{"cell": row["cell"], "status": row["status"], "label": row["label"]}
         for row in rows],
        title="cells",
    ))
    summary = ", ".join(f"{key}={value}" for key, value in counts.items() if value)
    print(f"\n{summary}")
    return 0


def _command_experiment_report(args: argparse.Namespace) -> int:
    from .experiments import (
        ExperimentSpec,
        ResultStore,
        format_cross_report,
        format_report,
    )

    spec = ExperimentSpec.from_file(args.spec)
    stores = args.store or [str(_default_store_path(args.spec))]
    if len(stores) > 1:
        # Cross-store join: one table aligning the same spec's cells across
        # several result stores (e.g. a sequential and a concurrent sweep).
        sources = [(Path(path).stem, ResultStore(path)) for path in stores]
        report = format_cross_report(spec, sources, markdown=args.markdown)
    else:
        store = ResultStore(stores[0])
        report = format_report(spec, store, markdown=args.markdown)
    if args.out:
        out_path = Path(args.out)
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(report + "\n", encoding="utf-8")
        print(f"report written to {out_path}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chiaroscuro: privacy-preserving clustering of distributed time-series",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run the protocol on a dataset")
    _add_common_run_options(run_parser)
    run_parser.set_defaults(handler=_command_run)

    compare_parser = subparsers.add_parser("compare", help="compare against the baselines")
    _add_common_run_options(compare_parser)
    compare_parser.set_defaults(handler=_command_compare)

    crypto_parser = subparsers.add_parser("crypto-bench",
                                          help="measure and extrapolate encryption costs")
    crypto_parser.add_argument("--key-bits", type=int, default=512)
    crypto_parser.add_argument("--degree", type=int, default=1)
    crypto_parser.add_argument("--threshold", type=int, default=3)
    crypto_parser.add_argument("--repetitions", type=int, default=3)
    crypto_parser.add_argument("--clusters", type=int, default=5)
    crypto_parser.add_argument("--series-length", type=int, default=48)
    crypto_parser.add_argument("--iterations", type=int, default=10)
    crypto_parser.add_argument("--gossip-cycles", type=int, default=12)
    crypto_parser.add_argument("--slots", type=int, default=1,
                               help="ciphertext slots per plaintext charged by the model")
    crypto_parser.add_argument("--fastmath", default="auto",
                               choices=["auto", "off", "sweep"],
                               help="'auto' times the arithmetic every run uses "
                                    "(per-key caches, ready blinders, multi-exp), "
                                    "'off' the textbook functions; 'sweep' "
                                    "measures both and prints them side by side")
    crypto_parser.add_argument("--populations", type=int, nargs="+",
                               default=[10**3, 10**6])
    crypto_parser.add_argument("--json", action="store_true")
    crypto_parser.set_defaults(handler=_command_crypto_bench)

    experiment_parser = subparsers.add_parser(
        "experiment",
        help="run and report declarative scenario sweeps (experiment specs)",
    )
    experiment_sub = experiment_parser.add_subparsers(
        dest="experiment_command", required=True
    )

    exp_run = experiment_sub.add_parser(
        "run", help="execute a spec's scenario matrix with resumable caching"
    )
    exp_run.add_argument("--spec", required=True,
                         help="experiment spec file (.json or .toml)")
    exp_run.add_argument("--store", default=None,
                         help="result store path (default: results/<spec>.jsonl)")
    exp_run.add_argument("--jobs", type=int, default=1,
                         help="scenario cells run concurrently (worker processes)")
    exp_run.add_argument("--resume", action="store_true",
                         help="skip cells whose results are already in the store")
    exp_run.add_argument("--timeout", type=float, default=None,
                         help="hard per-cell wall-clock limit in seconds")
    exp_run.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress lines")
    exp_run.add_argument("--json", action="store_true",
                         help="emit a machine-readable run summary")
    exp_run.set_defaults(handler=_command_experiment_run)

    exp_list = experiment_sub.add_parser(
        "list", help="show cached vs pending cells of a spec's scenario matrix"
    )
    exp_list.add_argument("--spec", required=True,
                          help="experiment spec file (.json or .toml)")
    exp_list.add_argument("--store", default=None,
                          help="result store path (default: results/<spec>.jsonl)")
    exp_list.add_argument("--json", action="store_true",
                          help="emit a machine-readable cell listing")
    exp_list.set_defaults(handler=_command_experiment_list)

    exp_report = experiment_sub.add_parser(
        "report", help="render the cross-scenario comparison report of a spec"
    )
    exp_report.add_argument("--spec", required=True,
                            help="experiment spec file (.json or .toml)")
    exp_report.add_argument("--store", action="append", default=None,
                            help="result store path (default: results/<spec>.jsonl); "
                                 "repeat the flag to join several stores of the "
                                 "same spec into one cross-store comparison table")
    exp_report.add_argument("--markdown", action="store_true",
                            help="emit a markdown report instead of aligned text")
    exp_report.add_argument("--out", default=None,
                            help="also write the report to this file")
    exp_report.set_defaults(handler=_command_experiment_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
