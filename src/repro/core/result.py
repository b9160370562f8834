"""Result objects of a Chiaroscuro run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..crypto.cost_profile import REFERENCE_PROFILE
from ..privacy.probabilistic import ProbabilisticGuarantee
from ..simulation.network import ByteAccounting
from .execution_log import ExecutionLog


@dataclass(frozen=True)
class CostSummary:
    """Aggregate cost measures of a run (claim C3 of the paper).

    All figures are totals over the run unless stated otherwise.

    ``bytes_sent`` is what the network accounted: *measured* serialized
    frame lengths.  ``bytes_sent_modelled`` holds what the size formula
    charges for the same messages, so the difference is the exact framing
    overhead.

    ``iteration_costs`` holds the per-iteration cost deltas recorded in the
    execution log (one mapping per protocol iteration, in order).  The
    cycle engine and the live runner both record ``messages_sent``,
    ``bytes_sent`` and the crypto-operation deltas (the live workers meter
    their counters with ``net.live._CryptoMeter``, which leaves out an
    operation whose delta is zero).  Attribution: traffic and operations
    are charged to the iteration the participant was working on.  A sampled
    slab run records its bulk loop instead: the modelled ``messages_sent``
    and ``bytes_sent``, ``label_agreement``, the ``phase_seconds.<phase>``
    wall-clock series, and ``dropped_frames``/``corrupted_frames`` when
    loss or corruption is on.

    ``extrapolated`` is only set by the slab engine: the
    :meth:`~repro.core.slab_runner.ExtrapolatedCost.as_dict` view of the
    population-total crypto cost with bootstrap confidence intervals
    (degenerate ones when every node was measured).  On the sampled path
    the plain counter fields above hold what was actually *executed* (the
    sample), while ``extrapolated`` holds the inferred population totals.

    ``envelope`` is only set by concurrent live runs
    (``runtime.stepping="concurrent"`` with ``runtime.envelope="auto"``):
    the :func:`~repro.analysis.envelope.nondeterminism_envelope` view of
    this run's divergence from the deterministic cycle-mode reference —
    profile distance, assignment churn and byte spread — quantifying the
    speed/determinism trade-off the concurrent scheduler makes.

    ``crypto_counts`` is the run's full operation counter
    (:meth:`~repro.crypto.backends.OperationCounter.as_dict`); the four count
    attributes and the phase split are read off it.  ``offline_seconds`` /
    ``online_seconds`` split its modelled compute, priced by
    :data:`~repro.crypto.cost_profile.REFERENCE_PROFILE`, between the
    input-independent phase (blinder exponentiations, which a device may
    precompute in idle time; the simulator makes each blinder when it is
    used) and the hot path (blinder multiplies, homomorphic additions,
    decryptions); ``phase_ops`` carries the operation counts behind the split.

    ``phase_seconds`` is only set by the slab engine's sampled path: the
    *measured* wall-clock totals of the bulk loop's phases (assignment,
    scatter, noise, churn, pairing, averaging, means, analysis, sample),
    which sum to the engine's measured wall-clock.  The per-iteration
    series lives in ``iteration_costs`` under ``phase_seconds.<phase>``
    keys.
    """

    n_participants: int
    n_iterations: int
    messages_sent: int
    bytes_sent: int
    crypto_counts: Mapping[str, int]
    bytes_sent_modelled: int = 0
    iteration_costs: tuple[Mapping[str, float], ...] = ()
    extrapolated: Mapping[str, Any] | None = None
    envelope: Mapping[str, Any] | None = None
    phase_seconds: Mapping[str, float] | None = None

    @property
    def encryptions(self) -> int:
        return self.crypto_counts["encryptions"]

    @property
    def homomorphic_additions(self) -> int:
        return self.crypto_counts["additions"]

    @property
    def partial_decryptions(self) -> int:
        return self.crypto_counts["partial_decryptions"]

    @property
    def combinations(self) -> int:
        return self.crypto_counts["combinations"]

    def _modelled_seconds(self, phase: str) -> float:
        return float(sum(REFERENCE_PROFILE.price(self.crypto_counts)[phase].values()))

    @property
    def offline_seconds(self) -> float:
        """Modelled seconds of blinder precomputation behind this run."""
        return self._modelled_seconds("offline")

    @property
    def online_seconds(self) -> float:
        """Modelled hot-path crypto seconds of this run."""
        return self._modelled_seconds("online")

    @property
    def phase_ops(self) -> dict[str, dict[str, int]]:
        """Operation counts per phase: every pooled encryption or
        rerandomization consumed one blinder, priced as exponentiated offline."""
        counts = self.crypto_counts
        drawn = counts.get("pooled_encryptions", 0) + counts.get("rerandomizations", 0)
        return {"offline": {"blinder_exponentiations": drawn}, "online": dict(counts)}

    @property
    def messages_per_participant(self) -> float:
        """Average messages sent per participant over the whole run."""
        return self.messages_sent / max(1, self.n_participants)

    @property
    def bytes_per_participant(self) -> float:
        """Average bytes sent per participant over the whole run."""
        return self.bytes_sent / max(1, self.n_participants)

    @property
    def encryptions_per_participant(self) -> float:
        """Average encryptions per participant over the whole run."""
        return self.encryptions / max(1, self.n_participants)

    @property
    def byte_accounting(self) -> ByteAccounting:
        """Measured-vs-modelled view of this run's bytes.

        See :class:`~repro.simulation.network.ByteAccounting`.
        """
        return ByteAccounting(
            bytes_modelled=float(self.bytes_sent_modelled),
            bytes_measured=float(self.bytes_sent),
        )

    @property
    def wire_overhead_fraction(self) -> float:
        """Measured-over-modelled byte overhead of the wire format.

        Zero when no bytes were sent.
        """
        return self.byte_accounting.overhead_fraction

    def bytes_per_iteration(self) -> list[float]:
        """Per-iteration byte deltas (empty when no per-iteration costs)."""
        return [float(costs.get("bytes_sent", 0.0)) for costs in self.iteration_costs]

    def messages_per_iteration(self) -> list[float]:
        """Per-iteration message deltas (empty when no per-iteration costs)."""
        return [float(costs.get("messages_sent", 0.0)) for costs in self.iteration_costs]

    def as_dict(self) -> dict[str, Any]:
        """Plain dictionary view (totals, per-participant averages and
        per-iteration delta series)."""
        view: dict[str, Any] = {
            "n_participants": float(self.n_participants),
            "n_iterations": float(self.n_iterations),
            "messages_sent": float(self.messages_sent),
            "bytes_sent": float(self.bytes_sent),
            "encryptions": float(self.encryptions),
            "homomorphic_additions": float(self.homomorphic_additions),
            "partial_decryptions": float(self.partial_decryptions),
            "combinations": float(self.combinations),
            "messages_per_participant": self.messages_per_participant,
            "bytes_per_participant": self.bytes_per_participant,
            "encryptions_per_participant": self.encryptions_per_participant,
            "bytes_sent_modelled": float(self.bytes_sent_modelled),
            "wire_overhead_fraction": self.wire_overhead_fraction,
            "iteration_bytes_sent": self.bytes_per_iteration(),
            "iteration_messages_sent": self.messages_per_iteration(),
        }
        # Only slab-engine runs carry extrapolated totals, and only
        # concurrent live runs carry an envelope; keeping the keys absent
        # otherwise leaves historical store rows byte-identical.
        if self.extrapolated is not None:
            view["extrapolated"] = dict(self.extrapolated)
        if self.envelope is not None:
            view["envelope"] = dict(self.envelope)
        view["offline_seconds"] = self.offline_seconds
        view["online_seconds"] = self.online_seconds
        view["phase_ops"] = {
            phase: {key: float(value) for key, value in ops.items()}
            for phase, ops in self.phase_ops.items()
        }
        # Per-phase wall-clock of the slab engine's bulk loop (absent for
        # the object engine and for full-measured slab runs).
        if self.phase_seconds is not None:
            view["phase_seconds"] = {
                phase: float(seconds)
                for phase, seconds in self.phase_seconds.items()
            }
        return view


@dataclass
class ChiaroscuroResult:
    """Outcome of a complete Chiaroscuro run.

    Attributes
    ----------
    profiles:
        The consensus final centroids (``(k, series_length)``): the average of
        the participants' final profiles, which are all within gossip error of
        each other.
    assignments:
        Final cluster assignment of every participant (index into
        ``profiles``).
    per_participant_profiles:
        Final profiles as seen by each participant (participant id -> array);
        the demo GUI shows that these views agree.
    inertia:
        Intra-cluster inertia of ``profiles`` on the participants' data.
    n_iterations:
        Number of protocol iterations executed (max over participants).
    converged:
        Whether any participant stopped because of the displacement criterion.
    stop_reasons:
        Participant stop reasons, as a histogram.
    epsilon_spent:
        Privacy budget consumed (max over participants — they follow the same
        schedule, so this is also the per-participant spend).
    guarantee:
        Probabilistic differential-privacy guarantee achieved by the run.
    costs:
        Aggregate cost summary.
    log:
        The per-iteration execution log.
    """

    profiles: np.ndarray
    assignments: np.ndarray
    per_participant_profiles: dict[int, np.ndarray]
    inertia: float
    n_iterations: int
    converged: bool
    stop_reasons: dict[str, int]
    epsilon_spent: float
    guarantee: ProbabilisticGuarantee
    costs: CostSummary
    log: ExecutionLog
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        """Number of final profiles."""
        return self.profiles.shape[0]

    def cluster_sizes(self) -> dict[int, int]:
        """Number of participants assigned to each profile."""
        unique, counts = np.unique(self.assignments, return_counts=True)
        sizes = {int(cluster): 0 for cluster in range(self.n_clusters)}
        sizes.update({int(cluster): int(count) for cluster, count in zip(unique, counts)})
        return sizes

    def summary(self) -> dict[str, Any]:
        """Compact run summary used by reports and examples."""
        return {
            "n_clusters": self.n_clusters,
            "n_participants": self.costs.n_participants,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "inertia": self.inertia,
            "epsilon_spent": self.epsilon_spent,
            "effective_epsilon": self.guarantee.effective_epsilon,
            "delta": self.guarantee.delta,
            "messages_per_participant": self.costs.messages_per_participant,
            "bytes_per_participant": self.costs.bytes_per_participant,
            "stop_reasons": dict(self.stop_reasons),
        }
