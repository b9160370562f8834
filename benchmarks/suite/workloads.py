"""The suite's registry: workloads, metrics, and the one result adapter.

Everything here is plain data plus a few small functions, so the result
file can carry each workload's pinned configuration verbatim and
``test_suite.py`` can hold ``BENCHMARK.json`` against it name by name.

Sizes are part of a workload's identity.  They are the largest at which
one repetition takes about two seconds on this class of box, so that a
driver invocation of half a minute (set-up measurement, reference run,
repetitions, output checks) holds eight or more; see the README for the
sizes the issue first proposed and the shares measured at both.
"""

from __future__ import annotations

from typing import Any, Mapping

#: Bumped whenever a result file's layout changes.
SCHEMA_VERSION = 1

SERIES_LENGTH = 24
_DATASET = {"n_clusters": 4, "noise_std": 0.05, "series_length": SERIES_LENGTH}


def _sections(participants: int, k: int = 4, cycles: int = 6, shares: int = 32,
              **extra: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    """The common configuration, with per-workload sections merged in."""
    sections: dict[str, dict[str, Any]] = {
        "simulation": {"n_participants": participants},
        "kmeans": {"n_clusters": k, "max_iterations": 3},
        "privacy": {"epsilon": 2.0, "noise_shares": shares},
        "gossip": {"cycles_per_aggregation": cycles},
        "crypto": {"threshold": 3, "n_key_shares": 6},
    }
    for section, values in extra.items():
        sections.setdefault(section, {}).update(values)
    return sections


_FAULTS = {
    "simulation": {"churn_rate": 0.05, "rejoin_rate": 0.5},
    "gossip": {"drop_probability": 0.05},
    "network": {"corruption_rate": 0.02},
}
_LIVE = {"mode": "live", "processes": 2}
_SLAB = {"engine": "slab", "crypto_sample_fraction": 0.0005}
#: ``mmap:`` is completed with the run's scratch directory by :func:`build`.
_SLAB_MMAP = {**_SLAB, "slab_dtype": "float32", "slab_backing": "mmap:",
              "slab_chunk_rows": 65536}

#: name -> definition.  ``reference`` names the untimed run a workload's
#: outputs are checked against (``cycle``: the same configuration in cycle
#: mode; otherwise another workload's configuration); ``pinned`` holds the
#: message/byte counts at seed 7; ``probes`` are the isolated layer probes
#: measured next to this workload's traced run; ``calibration`` names the
#: kernel of ``calibrate.py`` that does the kind of work the workload's
#: dominant layer does, and so slows down with it when the box does.
WORKLOADS: dict[str, dict[str, Any]] = {
    "object_plain": {
        "why": "object engine, plain backend: the pure-Python wire codec, the "
               "protocol step and the engine loop do the work, crypto is plain arithmetic",
        "calibration": "interpreter",
        "smoke_participants": 24,
        "sections": _sections(160),
        "deterministic": True, "reference": None,
        "pinned": {"messages_sent": 8166, "bytes_sent": 55932020},
        "probes": ("wire.plain",),
    },
    "object_dj": {
        "why": "object engine, Damgard-Jurik 256-bit packed: modular "
               "exponentiation (blinder refills) does the work, codec under 5%",
        "calibration": "bigint",
        "smoke_participants": 6,
        "sections": _sections(
            8, k=2, cycles=4, shares=8,
            crypto={"backend": "damgard_jurik", "key_bits": 256}),
        "deterministic": True, "reference": None,
        "pinned": {"messages_sent": 316, "bytes_sent": 586156},
        "probes": ("wire.dj", "crypto.dj256"),
    },
    "object_faults": {
        "why": "object_plain driven through churn, loss and corruption: the "
               "same layers on their failure paths (CRC reject, retry)",
        "calibration": "interpreter",
        "smoke_participants": 24,
        "sections": _sections(160, **_FAULTS),
        "deterministic": True, "reference": None,
        "pinned": {"messages_sent": 6905, "bytes_sent": 47064865},
        "probes": ("crypto.plain",),
    },
    "live_seq": {
        "why": "live sockets, 2 workers, sequential stepping: socket, envelope, "
               "asyncio and the per-step coordinator barrier dominate",
        "calibration": "interpreter",
        "smoke_participants": 12,
        "sections": _sections(80, runtime=_LIVE),
        "deterministic": True, "reference": "cycle",
        "pinned": {"messages_sent": 4098, "bytes_sent": 28090060},
        "probes": ("net",),
    },
    "live_conc": {
        "why": "live sockets with concurrent stepping: the same net layer "
               "without the per-step barrier, requests overlapped",
        "calibration": None,  # runs on all cores at once: raw seconds, unpinned
        "smoke_participants": 12,
        "sections": _sections(
            80, runtime={**_LIVE, "stepping": "concurrent", "envelope": "off"}),
        "deterministic": False, "reference": "cycle", "pinned": None,
        "probes": (),
    },
    "slab_dense": {
        "why": "slab engine, float64 in memory: vectorised pair averaging over "
               "a 64 MB slab plus a 40-node sampled object sub-run",
        "calibration": "memory",
        "smoke_participants": 4000,
        "sections": _sections(80000, runtime=_SLAB),
        "dataset": {"matrix_backed": True, "dtype": "float64"},
        "deterministic": True, "reference": None,
        "pinned": {"messages_sent": 2016, "bytes_sent": 13770576},
        "probes": ("slab.f64mem",),
    },
    "slab_mmap32": {
        "why": "slab engine through the out-of-core path (float32, mmap, "
               "65536-row chunks): page traffic instead of arithmetic",
        "calibration": "memory",
        "smoke_participants": 4000,
        "sections": _sections(80000, runtime=_SLAB_MMAP),
        "dataset": {"matrix_backed": True, "dtype": "float32"},
        "deterministic": True, "reference": "slab_dense",
        "pinned": {"messages_sent": 2016, "bytes_sent": 13770576},
        "probes": ("slab.f32mmap",),
    },
}

SINGLE_PROCESS = ("object_plain", "object_dj", "object_faults",
                  "slab_dense", "slab_mmap32")

#: The workloads ``BENCHMARK.json`` lists, one per family of layers (codec,
#: crypto, sockets, slab).  The driver makes 22 invocations per listed workload
#: inside a fixed hour, and with all seven an invocation had 12 s, three
#: repetitions, and was refused as too noisy; four leave 28 s each.  The other
#: three run in suite mode and under ``compare.py`` like these.
DRIVER_WORKLOADS = ("object_plain", "object_dj", "live_seq", "slab_dense")

#: name -> (unit, better, bound, per-workload bounds).  ``bound`` is the share
#: of the baseline median by which the metric may worsen; ``BENCHMARK.json``
#: carries the widest bound of each metric because its schema has one per
#: metric, ``compare.py`` applies the per-workload ones.
END_TO_END: dict[str, tuple[str, str, float, dict[str, float]]] = {
    "run_wall_s": ("s", "lower", 0.10, {"live_seq": 0.15, "live_conc": 0.15}),
    "node_iters_per_s": ("1/s", "higher", 0.10,
                         {"live_seq": 0.15, "live_conc": 0.15}),
    "cpu_s": ("s", "lower", 0.10, {}),
    "peak_rss_mib": ("MiB", "lower", 0.05, {}),
    "setup_s": ("s", "lower", 0.15, {}),
    "wire_bytes_per_node_iter": ("B", "lower", 0.0,
                                 {"live_conc": 0.01}),
    # Always 0 on a healthy tree, so the driver reads it from the result
    # line's attempted/failed pair instead of a BENCHMARK.json metric.
    "fail_share": ("ratio", "lower", 0.0, {}),
}


def bound_for(metric: str, workload: str) -> float:
    _unit, _better, bound, per_workload = END_TO_END[metric]
    return per_workload.get(workload, bound)


CRYPTO_OPS = ("encrypt", "rerandomize", "linear_combination",
               "partial_decrypt", "combine")


def _per_layer() -> dict[str, tuple[str, str, str]]:
    """name -> (unit, better, what it should move, on which workload)."""
    codec = "run_wall_s, cpu_s on object_plain, object_faults (live_* less)"
    crypto = "run_wall_s, cpu_s on object_dj"
    loop = "run_wall_s on object_plain, object_faults"
    net = "run_wall_s (not cpu_s) on live_seq, live_conc"
    slab = "run_wall_s on slab_dense, slab_mmap32"
    table: dict[str, tuple[str, str, str]] = {
        "core.runner.setup_s": ("s", "lower", "run_wall_s on object_dj"),
        "core.runner.assemble_s": ("s", "lower", "run_wall_s, weakly"),
        "simulation.engine.self_s": ("s", "lower", loop),
        "simulation.engine.cycles": ("count", "lower", loop),
        "core.participant.self_s": ("s", "lower", loop),
        "core.participant.steps": ("count", "lower", loop),
        "core.collaborative.self_s": ("s", "lower", loop),
        "core.collaborative.rounds": ("count", "lower", loop),
        "core.collaborative.retries": ("count", "lower", "run_wall_s on object_faults"),
        "gossip.messages.encode_s": ("s", "lower", codec),
        "gossip.messages.encode_calls": ("count", "lower", codec),
        "gossip.messages.encode_bytes": (
            "B", "lower", "wire_bytes_per_node_iter (a frame sent twice is encoded once)"),
        "gossip.messages.decode_s": ("s", "lower", codec),
        "gossip.messages.decode_calls": ("count", "lower", codec),
        "gossip.messages.decode_bytes": ("B", "lower", codec),
        "gossip.messages.decode_errors": ("count", "lower", "object_faults only"),
    }
    for op in CRYPTO_OPS:
        table[f"crypto.backends.{op}_s"] = ("s", "lower", crypto)
        table[f"crypto.backends.{op}_calls"] = ("count", "lower", crypto)
    table.update({
        "crypto.fastmath.pool_take_s": ("s", "lower", crypto),
        "crypto.fastmath.pool_take_calls": ("count", "lower", crypto),
        "net.transport.transmit_s": ("s", "lower", loop),
        "net.transport.transmit_calls": ("count", "lower", loop),
        "net.transport.transmit_bytes": ("B", "lower", "wire_bytes_per_node_iter, exactly"),
        "net.transport.lost": ("count", "lower", "object_faults only"),
        "net.live.coordinator_s": ("s", "lower", net),
        "net.live.step_s": ("s", "lower", net),
        "net.live.steps": ("count", "lower", net),
        "net.live.request_wait_s": ("s", "lower", net),
        "net.live.request_calls": ("count", "lower", net),
        "net.live.socket_bytes": ("B", "lower", "run_wall_s weakly on live_*"),
        "net.live.socket_records": ("count", "lower", "run_wall_s weakly on live_*"),
        "net.live.drain_waits": ("count", "lower", "run_wall_s weakly on live_*"),
        "net.live.idle_s": ("s", "lower", net),
        "net.envelope.encode_s": ("s", "lower", net),
        "net.envelope.decode_s": ("s", "lower", net),
        "net.envelope.calls": ("count", "lower", net),
        "simulation.slab.assign_s": ("s", "lower", slab + "; peak_rss_mib on slab_mmap32"),
        "simulation.slab.scatter_s": ("s", "lower", slab + "; peak_rss_mib on slab_mmap32"),
        "simulation.slab.average_s": ("s", "lower", slab),
        "simulation.slab.half_average_s": ("s", "lower", slab),
        "simulation.slab.online_mean_s": ("s", "lower", slab),
        "simulation.slab.pairing_s": ("s", "lower", slab),
        "simulation.slab.churn_s": ("s", "lower", slab),
        "simulation.slab.pairs": ("count", "lower", slab),
        "simulation.slab.average_bytes_computed": ("B", "lower", slab),
        "simulation.slab.average_gb_s": ("GB/s", "higher", slab),
        "core.slab_runner.self_s": ("s", "lower", slab),
        "core.slab_runner.sample_s": ("s", "lower", slab),
        "core.slab_runner.sample_nodes": ("count", "lower", slab),
        "trace.overhead_ratio": ("ratio", "lower", "nothing: the cost of tracing"),
        "trace.unattributed_s": ("s", "lower", "nothing: wall no boundary covers"),
        "probe.wire.encode_mb_s.plain": ("MB/s", "higher", codec),
        "probe.wire.encode_mb_s.dj": ("MB/s", "higher", "nothing end to end (<5% of object_dj)"),
        "probe.wire.decode_mb_s.plain": ("MB/s", "higher", codec),
        "probe.wire.decode_mb_s.dj": ("MB/s", "higher", "nothing end to end (<5% of object_dj)"),
    })
    for op in CRYPTO_OPS:
        table[f"probe.crypto.{op}_us.plain"] = ("us", "lower", loop)
        table[f"probe.crypto.{op}_us.dj256"] = ("us", "lower", crypto)
    table.update({
        "probe.slab.average_ns_row.f64mem": ("ns", "lower", "run_wall_s on slab_dense"),
        "probe.slab.average_ns_row.f32mmap": ("ns", "lower", "run_wall_s on slab_mmap32"),
        "probe.net.frame_rtt_us": ("us", "lower", net),
        "probe.net.frame_mb_s": ("MB/s", "higher", net),
    })
    return table


PER_LAYER = _per_layer()

#: Per-layer counts that must repeat exactly on a single-process workload.
EXACT_UNITS = ("count", "B")


def build(name: str, seed: int, scale: str = "pinned", scratch: str = "."):
    """Make one workload's inputs from *seed*: ``(collection, config)``.

    The program sees only these generated inputs.  ``scale="smoke"`` shrinks
    the population and stops after two iterations (tests only).
    """
    from repro.config import ChiaroscuroConfig
    from repro.datasets import load_dataset_for_population

    definition = WORKLOADS[name]
    sections = {key: dict(values) for key, values in definition["sections"].items()}
    participants = sections["simulation"]["n_participants"]
    if scale == "smoke":
        participants = definition["smoke_participants"]
        sections["kmeans"]["max_iterations"] = 2
        sections["privacy"]["noise_shares"] = min(
            sections["privacy"]["noise_shares"], participants)
        if "crypto_sample_fraction" in sections.get("runtime", {}):
            sections["runtime"]["crypto_sample_fraction"] = 0.005
    sections["simulation"].update(n_participants=participants, seed=seed)
    runtime = sections.get("runtime", {})
    if runtime.get("slab_backing") == "mmap:":
        runtime["slab_backing"] = f"mmap:{scratch}"
    collection = load_dataset_for_population(
        "gaussian", participants, seed, **_DATASET, **definition.get("dataset", {}))
    return collection, ChiaroscuroConfig().with_overrides(**sections)


def reference_inputs(name: str, seed: int, scale: str, scratch: str):
    """Inputs of the untimed run *name*'s outputs are checked against."""
    reference = WORKLOADS[name]["reference"]
    if reference == "cycle":
        collection, config = build(name, seed, scale, scratch)
        return collection, config.with_overrides(runtime={"mode": "cycle"})
    return build(reference, seed, scale, scratch)


def read_result(result: Any) -> dict[str, Any]:
    """Every fact the suite reads off a ``ChiaroscuroResult``, in one place.

    A later telemetry change that moves ``costs.*`` or ``metadata["live"]``
    has this function to edit and nothing else in the suite.
    """
    from repro.experiments.store import profiles_digest

    costs = result.costs
    engine = result.metadata.get("engine", {})
    live = result.metadata.get("live", {})
    return {
        "profiles_digest": profiles_digest(result.profiles),
        "messages_sent": int(costs.messages_sent),
        "bytes_sent": int(costs.bytes_sent),
        "n_iterations": int(result.n_iterations),
        "inertia": float(result.inertia),
        "population": int(costs.n_participants),
        # Nodes that ran the real pipeline: the sample under the slab engine.
        "executed_nodes": int(engine.get("sample_size", costs.n_participants)),
        "sample_nodes": int(engine.get("sample_size", 0)),
        "processes": int(live.get("processes", 0)),
        "socket": {key: int(value) for key, value in live.get("socket", {}).items()},
    }
