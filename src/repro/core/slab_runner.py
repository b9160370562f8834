"""Million-node slab execution path with sampled crypto.

:func:`run_slab_chiaroscuro` is the ``runtime.engine="slab"`` entry point
dispatched by :func:`~repro.core.runner.run_chiaroscuro`.  It runs the
protocol's *quality* path — assignment, noisy distributed averaging via
gossip, convergence — as vectorised struct-of-arrays operations over the
whole population (see :mod:`repro.simulation.slab`), while the *crypto* path
(Damgård–Jurik, packing, wire frames) executes for real only on a
statistically chosen node sample.  A bootstrap extrapolator
(:func:`bootstrap_extrapolate`) calibrated against the sample's measured
per-node operation counts and wire bytes, priced by
:data:`~repro.crypto.cost_profile.REFERENCE_PROFILE`, reports the
population-total crypto cost with confidence intervals (the methodology of
Section III.B: real measurement on what fits, extrapolation for the rest).

Two regimes, selected by ``runtime.crypto_sample_fraction``:

* ``1.0`` (default): the whole run is delegated to the object engine, so the
  result is bit-identical to ``engine="object"``; the cost block is attached
  with ``method="measured"`` and degenerate intervals.
* ``fraction < 1``: the bulk population runs the plain slab path, the sample
  runs the full object pipeline; costs are bootstrap-extrapolated
  (``method="sampled"``).  The sample is never smaller than one complete
  miniature run, ``max(threshold, k, 2)`` nodes, which is what ``0.0`` asks
  for.  (Purely symbolic totals: ``repro crypto-bench --populations N``.)

What the slab loop shares with the object engine it calls rather than
copies, from :mod:`repro.core.runner` and :mod:`repro.core.convergence`:
``prepare_data`` (the clustered matrix), ``perturbed_means`` (step 3 of the
execution sequence), ``build_run_setup``, ``make_engine`` and
``run_to_completion`` for the sample (the object run itself), and
``finish_result``, which finishes every engine's result; the slab passes it
only its own parts: profiles, blockwise assignments and inertia, the
``extrapolated`` block, ``phase_seconds`` and ``metadata["engine"]``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .._validation import check_positive_int
from ..clustering.kmeans import public_initial_centroids
from ..config import ChiaroscuroConfig
from ..crypto.cost_profile import REFERENCE_PROFILE
from ..exceptions import AnalysisError, ProtocolError
from ..privacy.noise_shares import NoiseShareSpec, draw_noise_share
from ..simulation.rng import RngRegistry
from ..simulation.slab import (
    ShardCoordinator,
    blockwise_assign,
    blockwise_cluster_sums,
    blockwise_inertia,
    pair_online,
    plan_pair_faults,
    slab_churn_step,
)
from ..timeseries import TimeSeriesCollection
from .convergence import iteration_policy, perturbed_means
from .execution_log import ExecutionLog, IterationRecord
from .result import ChiaroscuroResult
from .runner import (
    N_TRACKED_PARTICIPANTS,
    build_run_setup,
    finish_result,
    make_engine,
    plan_max_cycles,
    prepare_data,
    run_chiaroscuro,
    run_to_completion,
)

#: Key prefix of the per-iteration phase wall-clock series in the execution
#: log's cost mappings (``phase_seconds.<phase>``).
PHASE_SECONDS_PREFIX = "phase_seconds."


class PhaseTimer:
    """Per-phase wall-clock accounting of the slab loop.

    Every piece of work inside the slab engine's measured window runs under
    :meth:`phase`, which charges its wall-clock both to the run totals and
    to the current iteration.  The totals therefore sum to the measured
    slab wall-clock up to loop bookkeeping overhead — that is the invariant
    the CI phase gate checks — and "shard phase X next" becomes a measured
    decision instead of a guess.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.iteration: dict[str, float] = {}

    def start_iteration(self) -> None:
        """Reset the per-iteration accumulator (totals keep accruing)."""
        self.iteration = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Charge the wall-clock of the enclosed block to *name*."""
        begin = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - begin
            self.iteration[name] = self.iteration.get(name, 0.0) + elapsed
            self.totals[name] = self.totals.get(name, 0.0) + elapsed

    def iteration_costs(self) -> dict[str, float]:
        """The iteration's phase series as flat ``phase_seconds.*`` keys."""
        return {
            f"{PHASE_SECONDS_PREFIX}{name}": float(seconds)
            for name, seconds in self.iteration.items()
        }


def _sample_size(config: ChiaroscuroConfig, population: int) -> int:
    """Number of nodes the real crypto pipeline runs on."""
    requested = int(np.ceil(config.runtime.crypto_sample_fraction * population))
    # The sample is a complete miniature run: it needs enough nodes for the
    # decryption committee, the cluster count and a non-trivial gossip.
    floor = max(config.crypto.threshold, config.kmeans.n_clusters, 2)
    return min(population, max(requested, floor))


def _stratified_sample(
    data: np.ndarray,
    centroids: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick *size* node ids stratified by initial cluster assignment.

    Strata are the clusters of the public initial centroids; each stratum
    contributes proportionally to its population share (largest-remainder
    rounding), so the sample sees the same mixture of series shapes the full
    population does.
    """
    assigned = blockwise_assign(data, centroids)
    population = data.shape[0]
    clusters = centroids.shape[0]
    counts = np.bincount(assigned, minlength=clusters)
    exact = counts * (size / population)
    quota = np.floor(exact).astype(int)
    remainder = size - int(quota.sum())
    if remainder > 0:
        order = np.argsort(-(exact - quota))
        quota[order[:remainder]] += 1
    picked: list[np.ndarray] = []
    for cluster in range(clusters):
        members = np.nonzero(assigned == cluster)[0]
        take = min(quota[cluster], members.shape[0])
        if take > 0:
            picked.append(rng.choice(members, size=take, replace=False))
    ids = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    # Top up from anywhere if empty strata left the quota unfilled.
    if ids.shape[0] < size:
        remaining = np.setdiff1d(np.arange(population), ids, assume_unique=False)
        extra = rng.choice(remaining, size=size - ids.shape[0], replace=False)
        ids = np.concatenate([ids, extra])
    return np.sort(ids.astype(np.int64))


def _sub_config(config: ChiaroscuroConfig, sample_size: int) -> ChiaroscuroConfig:
    """Configuration of the sample's full-pipeline object-mode sub-run.

    The sample population is deliberately NOT pinned static: the bulk run's
    churn and rejoin rates carry over, so the measured per-node costs see
    the same membership dynamics the extrapolation claims to cover.
    """
    return config.with_overrides(
        runtime={"engine": "object", "crypto_sample_fraction": 1.0},
        simulation={"n_participants": sample_size},
        crypto={"threshold": min(config.crypto.threshold, sample_size)},
        privacy={"noise_shares": min(config.privacy.noise_shares, sample_size)},
    )


def _run_crypto_sample(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    sample_ids: np.ndarray,
    normalize: bool,
) -> dict[str, Any]:
    """Run the real pipeline on the sample, metering per-node costs.

    The sample sub-run is a complete object-mode protocol execution over the
    sampled series.  Because the cycle engine is strictly sequential, taking
    an operation-counter snapshot around each participant's ``next_cycle``
    yields *exact* per-node crypto-operation attributions; per-node traffic
    comes from the network's own per-node counters.
    """
    sample_size = int(sample_ids.shape[0])
    sub_collection = collection.subset(
        [int(i) for i in sample_ids], name=f"{collection.name}[crypto-sample]"
    )
    sub_config = _sub_config(config, sample_size)
    setup = build_run_setup(sub_collection, sub_config, normalize=normalize)
    participants, engine = make_engine(setup)
    counter = setup.backend.counter
    per_node_ops: dict[str, np.ndarray] = {
        key: np.zeros(sample_size) for key in counter.as_dict()
    }

    def _meter(participant: Any) -> None:
        inner = participant.next_cycle

        def metered(*args: Any) -> None:
            before = counter.as_dict()
            inner(*args)
            after = counter.as_dict()
            for key, value in after.items():
                delta = value - before.get(key, 0)
                if delta:
                    per_node_ops[key][participant.node_id] += delta

        participant.next_cycle = metered

    for participant in participants:
        _meter(participant)
    run_to_completion(engine, participants, plan_max_cycles(sub_config))
    if not all(p.is_done for p in participants):
        raise ProtocolError("crypto sample sub-run did not terminate")
    stats = engine.network.per_node_stats()
    return {
        "setup": setup,
        "per_node_ops": per_node_ops,
        "per_node_messages": np.array([s.messages_sent for s in stats], dtype=float),
        "per_node_bytes": np.array([s.bytes_sent for s in stats], dtype=float),
        "traffic": engine.network.total,
        "crypto": counter.as_dict(),
        "iterations": max(p.iteration for p in participants),
    }


def _bulk_noise_free_means(
    data: np.ndarray,
    assigned: np.ndarray,
    reference: np.ndarray,
) -> np.ndarray:
    """Exact per-cluster means of the current assignment (analysis only).

    Accumulated over the canonical block partition (bounded temporaries at
    any population; bitwise-equal to the dense per-cluster means for
    single-block float64 populations).
    """
    means = reference.copy()
    sums, counts = blockwise_cluster_sums(data, assigned, reference.shape[0])
    for cluster in range(reference.shape[0]):
        if counts[cluster] > 0:
            means[cluster] = sums[cluster] / counts[cluster]
    return means


@dataclass(frozen=True)
class ExtrapolatedCost:
    """Population-total crypto cost extrapolated from a measured node sample.

    ``totals`` maps each metric (``encryptions``, ``crypto_seconds``,
    ``bytes_sent``, ...) to its ``(estimate, low, high)`` population total:
    the bootstrap point estimate and the percentile confidence interval at
    level ``confidence``.  ``method`` records how the numbers were obtained:

    ``"measured"``
        every node ran the real pipeline (sample = population); the interval
        is degenerate (low = estimate = high).
    ``"sampled"``
        a node subset ran the real pipeline; totals are ``population x`` the
        bootstrap-resampled per-node mean.

    (Symbolic totals, with nothing measured, are
    :meth:`~repro.analysis.costs.CostModel.sweep_population`.)
    """

    population: int
    sample_size: int
    method: str
    confidence: float = 0.95
    totals: Mapping[str, tuple[float, float, float]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain nested dictionary view (for stored rows and reports)."""
        return {
            "population": int(self.population),
            "sample_size": int(self.sample_size),
            "method": self.method,
            "confidence": float(self.confidence),
            "totals": {
                key: {
                    "estimate": float(estimate),
                    "low": float(low),
                    "high": float(high),
                }
                for key, (estimate, low, high) in self.totals.items()
            },
        }


def bootstrap_extrapolate(
    per_node: Mapping[str, Sequence[float]],
    population: int,
    n_boot: int = 200,
    confidence: float = 0.95,
    seed: int = 0,
) -> ExtrapolatedCost:
    """Extrapolate per-node sample measurements to population totals.

    *per_node* maps each metric to the per-node totals measured on the
    crypto sample (all metrics over the same node sample, so the arrays
    share a length).  The point estimate of a metric is
    ``population * mean(values)``; its interval comes from *n_boot*
    bootstrap resamples of the node sample (percentile method, seeded and
    deterministic).  When the sample covers the whole population the totals
    are exact sums and the intervals collapse.
    """
    check_positive_int(population, "population")
    check_positive_int(n_boot, "n_boot")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    if not per_node:
        raise AnalysisError("bootstrap_extrapolate needs at least one metric")
    arrays = {
        key: np.asarray(values, dtype=np.float64) for key, values in per_node.items()
    }
    sizes = {array.shape[0] for array in arrays.values()}
    if len(sizes) != 1 or 0 in sizes:
        raise AnalysisError(
            "per-node metric arrays must be non-empty and share one length; "
            f"got lengths {sorted(array.shape[0] for array in arrays.values())}"
        )
    sample_size = sizes.pop()
    totals: dict[str, tuple[float, float, float]] = {}
    if sample_size >= population:
        for key, array in arrays.items():
            exact = float(array.sum())
            totals[key] = (exact, exact, exact)
        return ExtrapolatedCost(
            population=population,
            sample_size=sample_size,
            method="measured",
            confidence=confidence,
            totals=totals,
        )
    rng = np.random.default_rng(seed)
    # One resample-index matrix shared by every metric: resamples pick whole
    # nodes, preserving the cross-metric correlation of each node's costs.
    indices = rng.integers(0, sample_size, size=(n_boot, sample_size))
    tail = (1.0 - confidence) / 2.0
    for key, array in arrays.items():
        estimate = float(array.mean()) * population
        replicate_means = array[indices].mean(axis=1)
        low = float(np.quantile(replicate_means, tail)) * population
        high = float(np.quantile(replicate_means, 1.0 - tail)) * population
        totals[key] = (estimate, low, high)
    return ExtrapolatedCost(
        population=population,
        sample_size=sample_size,
        method="sampled",
        confidence=confidence,
        totals=totals,
    )


def _extrapolated_metrics(
    counts: Mapping[str, Any], messages: Any, bytes_sent: Any, factor: float
) -> dict[str, Any]:
    """The nine metrics of the ``extrapolated`` cost block, scaled by *factor*.

    *counts* uses the :class:`~repro.crypto.backends.OperationCounter`
    vocabulary; counts, *messages* and *bytes_sent* are run totals or per-node
    arrays, and the seconds are their :data:`REFERENCE_PROFILE` prices.
    """
    priced = REFERENCE_PROFILE.price(counts)
    online = sum(priced["online"].values()) * factor
    offline = sum(priced["offline"].values()) * factor
    return {
        "encryptions": counts["encryptions"] * factor,
        "homomorphic_additions": counts["additions"] * factor,
        "partial_decryptions": counts["partial_decryptions"] * factor,
        "combinations": counts["combinations"] * factor,
        "messages_sent": messages * factor,
        "bytes_sent": bytes_sent * factor,
        "online_seconds": online,
        "offline_seconds": offline,
        "crypto_seconds": online + offline,
    }


def _engine_metadata(config: ChiaroscuroConfig) -> dict[str, Any]:
    """Leading entries of ``metadata["engine"]``: the slab knobs of the run."""
    runtime = config.runtime
    return {
        "name": "slab",
        "crypto_sample_fraction": float(runtime.crypto_sample_fraction),
        "slab_shards": runtime.slab_shards,
        "slab_dtype": runtime.slab_dtype,
        "slab_backing": runtime.slab_backing,
        "slab_chunk_rows": runtime.slab_chunk_rows,
    }


def run_slab_chiaroscuro(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig | None = None,
    normalize: bool = True,
) -> ChiaroscuroResult:
    """Run Chiaroscuro with the slab population engine (see module docstring)."""
    config = config if config is not None else ChiaroscuroConfig()
    if config.runtime.crypto_sample_fraction < 1.0:
        return _run_sampled(collection, config, normalize)
    # Sampling fraction 1.0: delegate to the object engine (bit-identical)
    # and attach the measured population-cost block.
    result = run_chiaroscuro(
        collection,
        config.with_overrides(runtime={"engine": "object"}),
        normalize=normalize,
    )
    costs = result.costs
    measured = _extrapolated_metrics(
        costs.crypto_counts, costs.messages_sent, costs.bytes_sent, 1.0
    )
    extrapolated = ExtrapolatedCost(
        population=costs.n_participants,
        sample_size=costs.n_participants,
        method="measured",
        totals={key: (value, value, value) for key, value in measured.items()},
    )
    result.costs = replace(costs, extrapolated=extrapolated.as_dict())
    result.metadata["engine"] = {
        **_engine_metadata(config),
        "population": costs.n_participants,
        "sample_size": costs.n_participants,
    }
    return result


def _run_sampled(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    normalize: bool,
) -> ChiaroscuroResult:
    """Sampling fraction below 1: vectorised bulk path + sampled crypto."""
    population = len(collection)
    value_bound = config.privacy.value_bound
    data, transform = prepare_data(collection, value_bound, normalize)
    n, series_length = data.shape
    k = config.kmeans.n_clusters

    registry = RngRegistry(config.simulation.seed)
    churn_rng = registry.stream("slab.churn")
    pairing_rng = registry.stream("slab.pairing")
    noise_rng = registry.stream("slab.noise")
    sampling_rng = registry.stream("slab.sampling")

    centroids = public_initial_centroids(
        k, series_length, value_low=0.0, value_high=value_bound,
        seed=config.simulation.seed,
    )
    initial_centroids = centroids.copy()
    sensitivity, strategy, accountant, termination = iteration_policy(config, series_length)
    n_noise = min(config.privacy.noise_shares, n)
    contributors = np.sort(
        noise_rng.choice(n, size=n_noise, replace=False).astype(np.int64)
    )
    tracked_ids = sorted(
        int(i)
        for i in sampling_rng.choice(
            n, size=min(N_TRACKED_PARTICIPANTS, n), replace=False
        )
    )

    width = k * (series_length + 1)
    # Modelled wire payload of one gossip message: the protocol ships float64
    # estimate vectors regardless of the engine-internal slab dtype.
    row_bytes = width * 8
    drop_probability = config.gossip.drop_probability
    corruption_rate = config.network.corruption_rate
    faults_enabled = drop_probability > 0.0 or corruption_rate > 0.0
    loss_rng = registry.stream("slab.loss")
    corruption_rng = registry.stream("slab.corruption")

    log = ExecutionLog(
        metadata={
            "dataset": collection.name,
            "n_participants": n,
            "series_length": series_length,
            "config": config.describe(),
            "normalization": transform,
            "tracked_participants": tracked_ids,
            "engine": "slab",
        }
    )
    progress: float | None = None
    stop_reason = "max_iterations"
    iteration = 0
    bulk_messages = 0
    bulk_bytes = 0
    bulk_dropped = 0
    bulk_corrupted = 0
    timer = PhaseTimer()
    with ShardCoordinator(
        n,
        width,
        shards=config.runtime.slab_shards,
        dtype=config.runtime.slab_dtype,
        backing=config.runtime.slab_backing,
        chunk_rows=config.runtime.slab_chunk_rows,
        data=data,
    ) as coordinator:
        wall_begin = time.perf_counter()
        while True:
            timer.start_iteration()
            with timer.phase("analysis"):
                epsilon = strategy.epsilon_for_iteration(
                    iteration, accountant.remaining_epsilon, progress
                )
                budget_stop = epsilon <= 0.0 or not accountant.can_spend(epsilon)
            if budget_stop:
                stop_reason = "budget_exhausted"
                break
            iteration += 1
            accountant.spend(epsilon, label=f"iteration-{iteration}")
            with timer.phase("assignment"):
                previous_assigned = (
                    coordinator.assigned.copy() if iteration > 1 else None
                )
                coordinator.assign(centroids)
                # Reference-free convergence signal: the fraction of nodes
                # whose cluster label survived from the previous iteration.
                # It is a byproduct of the assignment pass (one vector
                # compare over the slab), and unlike displacement it reads
                # directly in label space — a flat 1.0 tail is the slab
                # run's convergence curve.
                label_agreement = (
                    float(np.mean(coordinator.assigned == previous_assigned))
                    if previous_assigned is not None else 1.0
                )
            with timer.phase("scatter"):
                coordinator.scatter()
            with timer.phase("noise"):
                spec = NoiseShareSpec(
                    scale=sensitivity.laplace_scale(epsilon),
                    n_shares=n_noise,
                    vector_length=series_length + 1,
                )
                for node in contributors:
                    for cluster in range(k):
                        start = cluster * (series_length + 1)
                        coordinator.estimates[node, start:start + series_length + 1] += (
                            draw_noise_share(spec, noise_rng)
                        )
            messages_before = bulk_messages
            bytes_before = bulk_bytes
            dropped_before = bulk_dropped
            corrupted_before = bulk_corrupted
            for _cycle in range(config.gossip.cycles_per_aggregation):
                with timer.phase("churn"):
                    slab_churn_step(
                        coordinator.online,
                        config.simulation.churn_rate,
                        config.simulation.rejoin_rate,
                        churn_rng,
                    )
                for _exchange in range(config.gossip.exchanges_per_cycle):
                    with timer.phase("pairing"):
                        # Without faults the plan draws nothing and keeps
                        # every pair whole.
                        plan = plan_pair_faults(
                            pair_online(coordinator.online, pairing_rng),
                            frame_bits=row_bytes * 8,
                            drop_probability=drop_probability,
                            corruption_rate=corruption_rate,
                            loss_rng=loss_rng,
                            corruption_rng=corruption_rng,
                        )
                    with timer.phase("averaging"):
                        coordinator.average_pairs(plan.full_pairs)
                        coordinator.half_average_pairs(plan.half_pairs)
                        bulk_messages += plan.messages_sent
                        bulk_bytes += plan.messages_sent * row_bytes
                        bulk_dropped += plan.dropped_frames
                        bulk_corrupted += plan.corrupted_frames
            with timer.phase("means"):
                mean_vector, online_count = coordinator.online_mean()
                if online_count == 0:
                    raise ProtocolError("every node went offline during gossip")
                perturbed, displacement = perturbed_means(
                    mean_vector.reshape(k, series_length + 1),
                    centroids, n, iteration, config,
                )
            with timer.phase("analysis"):
                noise_free_means = _bulk_noise_free_means(
                    data, coordinator.assigned, perturbed
                )
            iteration_costs = {
                "messages_sent": float(bulk_messages - messages_before),
                "bytes_sent": float(bulk_bytes - bytes_before),
                "label_agreement": label_agreement,
            }
            if faults_enabled:
                iteration_costs["dropped_frames"] = float(
                    bulk_dropped - dropped_before
                )
                iteration_costs["corrupted_frames"] = float(
                    bulk_corrupted - corrupted_before
                )
            iteration_costs.update(timer.iteration_costs())
            log.append(
                IterationRecord(
                    iteration=iteration,
                    epsilon_spent=epsilon,
                    centroids_before=centroids.copy(),
                    perturbed_means=perturbed.copy(),
                    noise_free_means=noise_free_means,
                    displacement=displacement,
                    tracked_assignments={
                        node_id: int(coordinator.assigned[node_id])
                        for node_id in tracked_ids
                    },
                    costs=iteration_costs,
                )
            )
            centroids = perturbed
            progress = float(
                np.clip(1.0 - displacement / max(value_bound, 1e-12), 0.0, 1.0)
            )
            stop, reason = termination.should_stop(iteration, displacement)
            if stop:
                stop_reason = reason
                break

    # ---------------------------------------------------------------- sample
    with timer.phase("sample"):
        sample_ids = _stratified_sample(
            data, initial_centroids, _sample_size(config, population), sampling_rng
        )
        sample = _run_crypto_sample(collection, config, sample_ids, normalize)
        iterations = max(1, iteration)
        extrapolated = bootstrap_extrapolate(
            _extrapolated_metrics(
                sample["per_node_ops"],
                sample["per_node_messages"],
                sample["per_node_bytes"],
                iterations / max(1, sample["iterations"]),
            ),
            population=population,
            n_boot=200,
            confidence=0.95,
            seed=config.simulation.seed,
        )
    slab_wall_seconds = time.perf_counter() - wall_begin

    # ---------------------------------------------------------------- result
    assignments = blockwise_assign(data, centroids)
    return finish_result(
        config,
        log,
        sample["setup"].packing_info(),
        sample["traffic"],
        sample["crypto"],
        profiles=centroids,
        assignments=assignments,
        per_participant_profiles={node_id: centroids.copy() for node_id in tracked_ids},
        inertia=blockwise_inertia(data, centroids, assignments),
        n_iterations=iterations,
        stop_reasons={stop_reason: population},
        epsilon_spent=accountant.spent_epsilon,
        extrapolated=extrapolated.as_dict(),
        phase_seconds={
            name: float(seconds) for name, seconds in timer.totals.items()
        },
        extra_metadata={
            "engine": {
                **_engine_metadata(config),
                "slab_wall_seconds": float(slab_wall_seconds),
                "population": population,
                "sample_size": int(sample_ids.shape[0]),
                "sample_iterations": sample["iterations"],
                "bulk_messages_modelled": bulk_messages,
                "bulk_bytes_modelled": bulk_bytes,
                "bulk_dropped_frames": bulk_dropped,
                "bulk_corrupted_frames": bulk_corrupted,
            },
        },
    )
