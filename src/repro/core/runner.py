"""High-level orchestration of a Chiaroscuro run.

:func:`run_chiaroscuro` is the main entry point of the library: given a
collection of personal time-series (each series conceptually living on its
owner's device) and a configuration, it builds the simulation, runs the
protocol to completion and returns a :class:`~repro.core.result.ChiaroscuroResult`
containing the final profiles, the privacy accounting, the cost summary and
the full execution log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..clustering.kmeans import assign_to_centroids, compute_inertia, public_initial_centroids
from ..config import ChiaroscuroConfig
from ..crypto.backends import CipherBackend, make_backend
from ..exceptions import ConfigurationError, ProtocolError
from ..gossip.encrypted_sum import check_headroom
from ..privacy.noise_shares import slot_magnitude_bound
from ..privacy.probabilistic import guarantee_for_run
from ..simulation.engine import CycleEngine
from ..timeseries import TimeSeriesCollection
from .convergence import iteration_policy
from .execution_log import ExecutionLog, IterationRecord
from .participant import ChiaroscuroParticipant
from .result import ChiaroscuroResult, CostSummary

#: Participants whose per-iteration assignment the execution log records
#: (the demo GUI follows four of them).
N_TRACKED_PARTICIPANTS = 4

#: Safety margin of cycles added to the theoretical number a run needs.
MAX_EXTRA_CYCLES = 50


def normalize_collection(
    collection: TimeSeriesCollection, value_bound: float
) -> tuple[np.ndarray, dict[str, float]]:
    """Min-max normalise a collection into [0, value_bound].

    Returns the normalised matrix and the transform parameters needed to map
    profiles back to the original units (``original = normalised / scale +
    offset``).  The bounds are treated as public domain knowledge (e.g. "a
    household draws between 0 and 10 kW"), which is the standard assumption
    behind the clipping bound of the Laplace sensitivity.
    """
    matrix = collection.to_matrix()
    low = float(matrix.min())
    high = float(matrix.max())
    span = high - low
    if span <= 0:
        span = 1.0
    scale = value_bound / span
    normalised = (matrix - low) * scale
    return normalised, {"offset": low, "scale": scale, "value_bound": value_bound}


def prepare_data(
    collection: TimeSeriesCollection, value_bound: float, normalize: bool
) -> tuple[np.ndarray, dict[str, float]]:
    """The matrix a run clusters, inside [0, value_bound], and its transform:
    min-max normalised, or the raw values clipped to the bound."""
    if normalize:
        return normalize_collection(collection, value_bound)
    data = np.clip(collection.to_matrix(), 0.0, value_bound)
    return data, {"offset": 0.0, "scale": 1.0, "value_bound": value_bound}


def denormalize_profiles(profiles: np.ndarray, transform: dict[str, float]) -> np.ndarray:
    """Map profiles produced on normalised data back to the original units."""
    scale = float(transform.get("scale", 1.0))
    offset = float(transform.get("offset", 0.0))
    if scale == 0:
        raise ProtocolError("invalid normalisation transform: scale is zero")
    return profiles / scale + offset


def _packed_slot_bound(
    config: ChiaroscuroConfig, series_length: int, value_bound: float
) -> float:
    """Magnitude one fresh packed slot must hold for this configuration.

    A slot carries either one (clipped) series point, one membership
    indicator, or one noise-share coordinate.  The noise dominates: its
    Laplace scale follows from the sensitivity and the *smallest*
    per-iteration budget the configured strategy may grant, inflated by the
    noise-share tail bound so that encoding a share essentially never
    overflows a slot.
    """
    sensitivity, strategy, _, _ = iteration_policy(config, series_length)
    # Whatever the runtime spending pattern, every strategy grants either 0
    # (budget exhausted) or at least this much — the unconditional bound the
    # slot width must absorb.
    min_epsilon = strategy.minimum_iteration_epsilon()
    noise_bound = slot_magnitude_bound(sensitivity.laplace_scale(min_epsilon))
    return max(value_bound, 1.0, config.privacy.count_bound) + noise_bound


@dataclass
class RunSetup:
    """Everything a run derives deterministically from (collection, config).

    The cycle runner builds this once, and so does the slab engine for its
    crypto sample; every live-runner worker rebuilds the cheap parts
    identically from the same inputs (data, centroids, seeds) while
    inheriting the expensive/random part — the cipher backend and its key
    material — from the coordinator process.  Keeping the whole derivation
    in one place is what makes the execution modes agree.
    """

    config: ChiaroscuroConfig
    data: np.ndarray
    transform: dict[str, float]
    backend: CipherBackend
    initial_centroids: np.ndarray
    noise_contributor_ids: set[int]
    n_noise_contributors: int
    participant_seeds: list[int]
    tracked_ids: list[int]

    @property
    def n_participants(self) -> int:
        return self.data.shape[0]

    @property
    def series_length(self) -> int:
        return self.data.shape[1]

    def packing_info(self) -> dict[str, Any]:
        backend = self.backend
        return {
            "enabled": backend.is_packed,
            "slots": backend.packing.slots if backend.packing is not None else 1,
            "slot_bits": backend.packing.slot_bits if backend.packing is not None else 0,
        }

    def make_participant(self, node_id: int) -> ChiaroscuroParticipant:
        """Instantiate one participant from the precomputed derivations."""
        return ChiaroscuroParticipant(
            node_id=node_id,
            series_values=self.data[node_id],
            initial_centroids=self.initial_centroids,
            config=self.config,
            backend=self.backend,
            noise_contributor=node_id in self.noise_contributor_ids,
            n_noise_contributors=self.n_noise_contributors,
            seed=self.participant_seeds[node_id],
        )

    def make_participants(self) -> list[ChiaroscuroParticipant]:
        """Instantiate every participant (the cycle engine's population)."""
        return [self.make_participant(node_id) for node_id in range(self.n_participants)]


def build_run_setup(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    normalize: bool = True,
) -> RunSetup:
    """Derive a :class:`RunSetup` (backend, seeds) for one run.

    The master-seed randomness is consumed in exactly the order the
    historical inline code consumed it — noise-contributor choice, one seed
    per participant, tracked-participant choice — so runs are bit-identical
    to pre-refactor builds.
    """
    n_participants = len(collection)
    if config.crypto.threshold > n_participants:
        raise ConfigurationError(
            "decryption threshold exceeds the number of participants "
            f"({config.crypto.threshold} > {n_participants})"
        )
    if config.kmeans.n_clusters > n_participants:
        raise ConfigurationError(
            "cannot ask for more clusters than participants "
            f"({config.kmeans.n_clusters} > {n_participants})"
        )
    value_bound = config.privacy.value_bound
    data, transform = prepare_data(collection, value_bound, normalize)
    n_participants, series_length = data.shape

    # Each iteration performs at most ~2 * cycles averaging steps per estimate
    # (own exchanges plus exchanges initiated by peers).
    total_halvings = (
        2 * config.gossip.cycles_per_aggregation * config.gossip.exchanges_per_cycle + 4
    )
    # Estimate halvings compound across merges (both parties adopt the same
    # averaged estimate), empirically reaching ~6 per cycle in the worst
    # lineage; the packed slot headroom must absorb that whole depth.
    packed_halving_budget = (
        6 * config.gossip.cycles_per_aggregation * config.gossip.exchanges_per_cycle + 16
    )
    backend = make_backend(
        config.crypto.backend,
        key_bits=config.crypto.key_bits,
        degree=config.crypto.degree,
        threshold=config.crypto.threshold,
        n_shares=config.crypto.n_key_shares,
        encoding_scale=config.crypto.encoding_scale,
        packing=config.crypto.packing,
        packing_value_bound=_packed_slot_bound(config, series_length, value_bound),
        packing_weight_bits=packed_halving_budget,
    )
    check_headroom(
        backend,
        value_bound=max(value_bound, 1.0),
        total_halvings=total_halvings,
    )
    initial_centroids = public_initial_centroids(
        config.kmeans.n_clusters,
        series_length,
        value_low=0.0,
        value_high=value_bound,
        seed=config.simulation.seed,
    )
    master_rng = np.random.default_rng(config.simulation.seed)
    n_noise_contributors = min(config.privacy.noise_shares, n_participants)
    noise_contributor_ids = set(
        master_rng.choice(n_participants, size=n_noise_contributors, replace=False).tolist()
    )
    participant_seeds = [
        int(master_rng.integers(0, 2**31 - 1)) for _ in range(n_participants)
    ]
    tracked_ids = sorted(
        master_rng.choice(
            n_participants,
            size=min(N_TRACKED_PARTICIPANTS, n_participants),
            replace=False,
        ).tolist()
    )
    return RunSetup(
        config=config,
        data=data,
        transform=transform,
        backend=backend,
        initial_centroids=initial_centroids,
        noise_contributor_ids=noise_contributor_ids,
        n_noise_contributors=n_noise_contributors,
        participant_seeds=participant_seeds,
        tracked_ids=tracked_ids,
    )


@dataclass(frozen=True)
class ParticipantOutcome:
    """The per-participant facts both execution modes report identically."""

    node_id: int
    profiles: np.ndarray
    stop_reason: str
    spent_epsilon: float
    iteration: int


def outcome_of(participant: ChiaroscuroParticipant) -> ParticipantOutcome:
    """Snapshot one participant's end-of-run outcome."""
    profiles = (
        participant.final_profiles
        if participant.final_profiles is not None
        else participant.centroids
    )
    return ParticipantOutcome(
        node_id=participant.node_id,
        profiles=profiles.copy(),
        stop_reason=participant.stop_reason or "unfinished",
        spent_epsilon=participant.accountant.spent_epsilon,
        iteration=participant.iteration,
    )


def assemble_result(
    setup: RunSetup,
    collection_name: str,
    outcomes: Sequence[ParticipantOutcome],
    messages_sent: int,
    bytes_sent: int,
    bytes_modelled: int,
    crypto_counts: dict[str, int],
    log: ExecutionLog,
    extra_metadata: dict[str, Any] | None = None,
) -> ChiaroscuroResult:
    """Build the :class:`ChiaroscuroResult` both execution modes return."""
    ordered = sorted(outcomes, key=lambda outcome: outcome.node_id)
    data = setup.data
    profiles_stack = np.stack([outcome.profiles for outcome in ordered])
    profiles = profiles_stack.mean(axis=0)
    assignments = assign_to_centroids(data, profiles)
    inertia = compute_inertia(data, profiles, assignments)
    epsilon_spent = max(outcome.spent_epsilon for outcome in ordered)
    n_iterations = max(outcome.iteration for outcome in ordered)
    stop_reasons: dict[str, int] = {}
    for outcome in ordered:
        stop_reasons[outcome.stop_reason] = stop_reasons.get(outcome.stop_reason, 0) + 1
    converged = any(
        outcome.stop_reason in ("converged", "synchronized") for outcome in ordered
    )
    guarantee = guarantee_for_run(
        epsilon=max(epsilon_spent, 1e-12),
        cycles=setup.config.gossip.cycles_per_aggregation,
        n_participants=setup.n_participants,
    )
    costs = CostSummary(
        n_participants=setup.n_participants,
        n_iterations=n_iterations,
        messages_sent=messages_sent,
        bytes_sent=bytes_sent,
        crypto_counts=crypto_counts,
        bytes_sent_modelled=bytes_modelled,
        iteration_costs=tuple(
            {str(key): float(value) for key, value in record.costs.items()}
            for record in log
        ),
    )
    per_participant_profiles = {
        outcome.node_id: outcome.profiles.copy() for outcome in ordered
    }
    # Deferred import: repro.analysis imports this module back for the
    # quality comparisons.
    from ..analysis.costs import REFERENCE_PROFILE

    metadata: dict[str, Any] = {
        "normalization": setup.transform,
        "tracked_participants": setup.tracked_ids,
        "dataset": collection_name,
        "packing": setup.packing_info(),
        "cost_profile": REFERENCE_PROFILE.as_dict(),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return ChiaroscuroResult(
        profiles=profiles,
        assignments=assignments,
        per_participant_profiles=per_participant_profiles,
        inertia=inertia,
        n_iterations=n_iterations,
        converged=converged,
        stop_reasons=stop_reasons,
        epsilon_spent=epsilon_spent,
        guarantee=guarantee,
        costs=costs,
        log=log,
        metadata=metadata,
    )


@dataclass(frozen=True)
class NodeHistory:
    """What one participant's run leaves behind for the execution log: one
    entry per iteration it took part in.  Read off the participant, in the
    cycle runner directly, in the live runner on the hosting worker."""

    node_id: int
    assignments: Sequence[int]
    perturbed_means: Sequence[Any]
    displacements: Sequence[float]
    epsilons: Sequence[float]


def history_of(participant: ChiaroscuroParticipant) -> NodeHistory:
    return NodeHistory(
        node_id=participant.node_id,
        assignments=participant.assignment_history,
        perturbed_means=participant.perturbed_means_history,
        displacements=participant.displacement_history,
        epsilons=[spend.epsilon for spend in participant.accountant],
    )


def iteration_record(
    index: int,
    histories: Sequence[NodeHistory],
    data: np.ndarray,
    tracked_ids: Sequence[int],
    centroids_before: np.ndarray,
    costs: dict[str, float],
) -> IterationRecord:
    """The execution-log record of iteration ``index + 1``, in both engines.

    *histories* are in node-id order; the first participant that completed
    the iteration reports its perturbed means, displacement and budget
    spend.  The noise-free means are the plain means of each cluster's
    assigned members (the perturbed mean where a cluster has none).
    """
    reporter = next(
        history for history in histories if len(history.perturbed_means) > index
    )
    perturbed = np.array(reporter.perturbed_means[index], dtype=float)
    assigned = {
        history.node_id: history.assignments[index]
        for history in histories
        if len(history.assignments) > index
    }
    noise_free = perturbed.copy()
    for cluster in range(perturbed.shape[0]):
        member_ids = [node_id for node_id, choice in assigned.items() if choice == cluster]
        if member_ids:
            noise_free[cluster] = data[member_ids].mean(axis=0)
    return IterationRecord(
        iteration=index + 1,
        epsilon_spent=(
            float(reporter.epsilons[index]) if index < len(reporter.epsilons) else 0.0
        ),
        centroids_before=centroids_before.copy(),
        perturbed_means=perturbed,
        noise_free_means=noise_free,
        displacement=float(reporter.displacements[index]),
        tracked_assignments={
            node_id: assigned[node_id] for node_id in tracked_ids if node_id in assigned
        },
        costs=costs,
    )


class _RunObserver:
    """Engine observer that fills the execution log as iterations complete."""

    def __init__(
        self,
        participants: list[ChiaroscuroParticipant],
        data: np.ndarray,
        initial_centroids: np.ndarray,
        tracked_ids: list[int],
        backend: CipherBackend,
        log: ExecutionLog,
    ) -> None:
        self._participants = participants
        self._data = data
        self._previous_centroids = initial_centroids
        self._tracked_ids = tracked_ids
        self._backend = backend
        self._log = log
        self._last_messages = 0
        self._last_bytes = 0
        self._last_crypto = backend.counter.as_dict()

    def after_cycle(self, engine: CycleEngine, cycle: int) -> None:
        completed = max(len(p.perturbed_means_history) for p in self._participants)
        if len(self._log) == completed:
            return
        histories = [history_of(participant) for participant in self._participants]
        for index in range(len(self._log), completed):
            crypto_now = self._backend.counter.as_dict()
            costs = {
                "messages_sent": float(engine.network.total.messages_sent - self._last_messages),
                "bytes_sent": float(engine.network.total.bytes_sent - self._last_bytes),
            }
            for key, value in crypto_now.items():
                costs[key] = float(value - self._last_crypto.get(key, 0))
            self._last_messages = engine.network.total.messages_sent
            self._last_bytes = engine.network.total.bytes_sent
            self._last_crypto = crypto_now
            record = iteration_record(
                index, histories, self._data, self._tracked_ids,
                self._previous_centroids, costs,
            )
            self._log.append(record)
            self._previous_centroids = record.perturbed_means


def run_chiaroscuro(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig | None = None,
    normalize: bool = True,
) -> ChiaroscuroResult:
    """Run the complete Chiaroscuro protocol on a collection of time-series.

    Parameters
    ----------
    collection:
        One series per participant; the population size is the collection
        size (the ``simulation.n_participants`` configuration field is
        ignored in favour of it).
    config:
        Full protocol configuration (library defaults when omitted).
    normalize:
        Min-max normalise the data into [0, value_bound] before running
        (recommended; the normalisation parameters are returned in the result
        metadata so profiles can be mapped back to original units).

    Returns
    -------
    ChiaroscuroResult
    """
    config = config if config is not None else ChiaroscuroConfig()
    if config.runtime.mode == "live":
        # Deferred import: the live runner imports this module back for the
        # shared setup/assembly helpers.
        from ..net.live import run_live_chiaroscuro

        return run_live_chiaroscuro(collection, config, normalize=normalize)
    if config.runtime.engine == "slab":
        # Deferred import: the slab runner imports this module back for the
        # shared normalisation/setup helpers.
        from .slab_runner import run_slab_chiaroscuro

        return run_slab_chiaroscuro(collection, config, normalize=normalize)
    setup = build_run_setup(collection, config, normalize=normalize)
    participants, engine = make_engine(setup)
    log = ExecutionLog(metadata=run_log_metadata(setup, collection.name))
    observer = _RunObserver(
        participants, setup.data, setup.initial_centroids, setup.tracked_ids,
        setup.backend, log,
    )
    engine.add_observer(observer)
    run_to_completion(engine, participants, plan_max_cycles(config))

    return assemble_result(
        setup,
        collection.name,
        [outcome_of(participant) for participant in participants],
        messages_sent=engine.network.total.messages_sent,
        bytes_sent=engine.network.total.bytes_sent,
        bytes_modelled=engine.network.total.bytes_modelled,
        crypto_counts=setup.backend.counter.as_dict(),
        log=log,
    )


def make_engine(setup: RunSetup) -> tuple[list[ChiaroscuroParticipant], CycleEngine]:
    """The population of an object run and the cycle engine that steps it."""
    config = setup.config
    participants = setup.make_participants()
    engine = CycleEngine(
        participants,
        seed=config.simulation.seed,
        churn_rate=config.simulation.churn_rate,
        rejoin_rate=config.simulation.rejoin_rate,
        drop_probability=config.gossip.drop_probability,
        corruption_rate=config.network.corruption_rate,
    )
    return participants, engine


def run_to_completion(
    engine: CycleEngine, participants: Sequence[ChiaroscuroParticipant], max_cycles: int
) -> None:
    """Run *engine* until every participant is done or the budget is spent.

    After *max_cycles* cycles, any straggler (e.g. a node offline at the
    end) is brought online and stepped for at most *max_cycles* more; a
    participant still unfinished after that is left for the caller to report.
    """
    def all_done() -> bool:
        return all(participant.is_done for participant in participants)

    engine.run(max_cycles, stop_when=lambda _engine: all_done())
    for participant in participants:
        if not participant.is_done:
            participant.online = True
    extra_cycles = 0
    while not all_done() and extra_cycles < max_cycles:
        engine.run_cycle()
        extra_cycles += 1


def plan_max_cycles(config: ChiaroscuroConfig) -> int:
    """Cycle budget of a run (shared by the cycle engine and the live runner)."""
    cycles_per_iteration = config.gossip.cycles_per_aggregation + 3
    return config.kmeans.max_iterations * cycles_per_iteration + MAX_EXTRA_CYCLES


def run_log_metadata(setup: RunSetup, collection_name: str) -> dict[str, Any]:
    """Execution-log metadata both execution modes record identically."""
    return {
        "dataset": collection_name,
        "n_participants": setup.n_participants,
        "series_length": setup.series_length,
        "config": setup.config.describe(),
        "normalization": setup.transform,
        "tracked_participants": setup.tracked_ids,
        "packing": setup.packing_info(),
    }
