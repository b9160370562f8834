"""Configuration objects for the Chiaroscuro protocol and its substrates.

The configuration is split into small frozen dataclasses, one per subsystem,
mirroring the parameter groups of the demonstration (Section III.B of the
paper): k-means parameters, privacy parameters, encryption parameters, gossip
parameters and simulation parameters.  :class:`ChiaroscuroConfig` aggregates
them and performs cross-field validation in ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from ._validation import (
    check_fraction_open,
    check_in_choices,
    check_non_negative_float,
    check_non_negative_int,
    check_positive_float,
    check_positive_int,
    check_probability,
)
from .crypto.backends import normalize_packing
from .exceptions import ConfigurationError, ValidationError

#: Budget-distribution strategies shipped with the library (Section II.B,
#: "quality-enhancing heuristics").
BUDGET_STRATEGIES = ("uniform", "geometric", "adaptive")

#: Centroid-smoothing heuristics shipped with the library.
SMOOTHING_METHODS = ("none", "moving_average", "lowpass", "exponential")

#: Cryptographic backends.  ``plain`` reproduces the demonstration mode in
#: which homomorphic operations are disabled and their cost is simulated.
CRYPTO_BACKENDS = ("damgard_jurik", "paillier", "plain")

#: Execution modes: the deterministic in-process cycle simulation, or the
#: multi-process live runner moving wire frames over real TCP sockets.
RUNTIME_MODES = ("cycle", "live")

#: Population engines of cycle mode: one Python object per participant
#: (``object``) or struct-of-arrays NumPy slabs with sampled crypto
#: (``slab``; see :mod:`repro.simulation.slab`).
RUNTIME_ENGINES = ("object", "slab")

#: Stepping disciplines of the live runner: ``sequential`` replays the cycle
#: engine's scheduler stream one node at a time (bit-identical to cycle
#: mode), ``concurrent`` lets every worker drive its shard with many gossip
#: exchanges in flight simultaneously (faster, nondeterministic interleaving;
#: see the nondeterminism envelope in :mod:`repro.analysis.envelope`).
RUNTIME_STEPPING = ("sequential", "concurrent")

#: Nondeterminism-envelope policies of concurrent live runs: ``auto`` runs a
#: cycle-mode reference with the same seed and reports the divergence
#: (profile distance, assignment churn, byte spread) in ``costs.envelope``;
#: ``off`` skips the reference run.
RUNTIME_ENVELOPE = ("auto", "off")

#: Element dtypes of the slab engine's estimate slab.  ``float64`` (default)
#: is bit-identical to the object engine's arithmetic; ``float32`` halves the
#: slab's footprint at the cost of reduced precision (an engine-internal
#: memory optimisation — modelled wire bytes still price the protocol's
#: float64 payload).
SLAB_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class KMeansConfig:
    """Parameters of the k-means substrate (fixed parameters in the demo).

    Attributes
    ----------
    n_clusters:
        Number of centroids *k*.
    max_iterations:
        Hard cap on the number of k-means iterations.
    convergence_threshold:
        Iterations stop when the average displacement between the previous
        centroids and the new means falls below this threshold.
    """

    n_clusters: int = 5
    max_iterations: int = 15
    convergence_threshold: float = 1e-3

    def __post_init__(self) -> None:
        check_positive_int(self.n_clusters, "n_clusters")
        check_positive_int(self.max_iterations, "max_iterations")
        check_non_negative_float(self.convergence_threshold, "convergence_threshold")


@dataclass(frozen=True)
class PrivacyConfig:
    """Differential-privacy parameters (the main mutable parameter of the demo).

    Attributes
    ----------
    epsilon:
        Total privacy budget for a complete run.  The budget is split across
        iterations according to ``budget_strategy`` (self-composition).
    budget_strategy:
        How the total budget is distributed across iterations: ``"uniform"``
        gives every iteration the same share, ``"geometric"`` gives later
        iterations exponentially larger shares (late centroids matter more for
        final quality), ``"adaptive"`` re-plans the remaining budget after each
        iteration based on observed centroid movement.
    noise_shares:
        Number *n* of gamma-distributed noise-shares summed to produce one
        Laplace sample; in Chiaroscuro each share comes from a distinct
        participant.
    value_bound:
        Upper bound on the absolute value of any single time-series point,
        used to derive the L1 sensitivity of the per-cluster sums.
    delta_slack:
        Target probabilistic slack of the probabilistic variant of
        differential privacy caused by the gossip approximation error.
    """

    epsilon: float = 1.0
    budget_strategy: str = "geometric"
    noise_shares: int = 32
    value_bound: float = 1.0
    delta_slack: float = 1e-4

    def __post_init__(self) -> None:
        check_positive_float(self.epsilon, "epsilon")
        check_in_choices(self.budget_strategy, BUDGET_STRATEGIES, "budget_strategy")
        check_positive_int(self.noise_shares, "noise_shares")
        check_positive_float(self.value_bound, "value_bound")
        check_probability(self.delta_slack, "delta_slack")


@dataclass(frozen=True)
class CryptoConfig:
    """Encryption parameters (fixed parameters of the demo).

    Attributes
    ----------
    backend:
        ``"damgard_jurik"`` for the real threshold scheme, ``"paillier"`` for
        the degree-1 special case, ``"plain"`` for the demonstration mode in
        which homomorphic operations are disabled and their cost simulated.
    key_bits:
        Size of the RSA modulus *n* in bits.  Tests use small keys (e.g. 128)
        for speed; cost benchmarks use realistic sizes (1024/2048).
    degree:
        Damgård–Jurik degree *s*: plaintext space is Z_{n^s}.
    threshold:
        Minimum number of distinct participants whose partial decryptions are
        required to recover a plaintext (collaborative decryption).
    n_key_shares:
        Total number of key shares distributed among participants.
    encoding_scale:
        Fixed-point scale used to encode real-valued time-series points into
        the integer plaintext space (value -> round(value * scale)).
    packing:
        Ciphertext slot packing: ``"auto"`` (default) packs as many
        fixed-point coordinates per ciphertext as the plaintext space
        supports, ``"off"`` is the one-ciphertext-per-coordinate layout,
        and a positive integer caps the slot count.  Packing divides the
        number of bigint encryptions, homomorphic operations and ciphertext
        bytes per vector by roughly the slot count; the message pattern
        (who sends what to whom, and how often) is the same on every
        layout.
    """

    backend: str = "plain"
    key_bits: int = 256
    degree: int = 1
    threshold: int = 3
    n_key_shares: int = 8
    encoding_scale: int = 10**6
    packing: int | str = "auto"

    def __post_init__(self) -> None:
        check_in_choices(self.backend, CRYPTO_BACKENDS, "backend")
        check_positive_int(self.key_bits, "key_bits")
        check_positive_int(self.degree, "degree")
        check_positive_int(self.threshold, "threshold")
        check_positive_int(self.n_key_shares, "n_key_shares")
        check_positive_int(self.encoding_scale, "encoding_scale")
        if self.key_bits < 16:
            raise ConfigurationError("key_bits must be at least 16")
        if self.threshold > self.n_key_shares:
            raise ConfigurationError(
                f"threshold ({self.threshold}) cannot exceed n_key_shares ({self.n_key_shares})"
            )
        try:
            normalize_packing(self.packing)
        except ValidationError as exc:
            raise ConfigurationError(str(exc)) from exc


@dataclass(frozen=True)
class GossipConfig:
    """Gossip-layer parameters (fixed parameters of the demo).

    Attributes
    ----------
    exchanges_per_cycle:
        Number of gossip exchanges each participant initiates per simulation
        cycle (the "number of messages per participant" knob of Section
        III.B).
    cycles_per_aggregation:
        Number of gossip cycles run for each distributed sum before the value
        is considered converged and handed back to the protocol.
    drop_probability:
        Probability that a gossip message is lost (fault model).
    """

    exchanges_per_cycle: int = 1
    cycles_per_aggregation: int = 12
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int(self.exchanges_per_cycle, "exchanges_per_cycle")
        check_positive_int(self.cycles_per_aggregation, "cycles_per_aggregation")
        check_probability(self.drop_probability, "drop_probability")


@dataclass(frozen=True)
class NetworkConfig:
    """Transport-layer parameters of the simulated network.

    Every protocol message travels as a serialized, versioned byte frame
    (see :mod:`repro.crypto.wire` and :mod:`repro.gossip.messages`) and
    the network accounts *measured* frame bytes next to the modelled size
    formula.  Bytes that crossed a process boundary or were corrupted in
    transit are decoded on receipt; an intact in-process frame hands over
    the message it was serialized from
    (:class:`~repro.gossip.messages.Frame`).  How frames are grouped
    into socket records is the live runner's business
    (:mod:`repro.net.live`), not a setting: it changes neither the
    protocol-level byte accounting nor results nor operation counts.

    Attributes
    ----------
    corruption_rate:
        Probability that a delivered wire frame has one random bit flipped
        in transit.  Corrupted frames fail their checksum, raise
        :class:`~repro.exceptions.WireFormatError` in the decoder and are
        treated as losses by the protocol.
    """

    corruption_rate: float = 0.0

    def __post_init__(self) -> None:
        check_probability(self.corruption_rate, "corruption_rate")


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution-substrate parameters: cycle simulation vs live socket runner.

    Attributes
    ----------
    mode:
        ``"cycle"`` (default) runs every participant in one process under
        the deterministic :class:`~repro.simulation.engine.CycleEngine`.
        ``"live"`` spawns ``processes`` OS worker processes, each hosting a
        shard of the participants, and runs the protocol by moving the
        serialized wire frames over real asyncio TCP sockets (see
        :mod:`repro.net.live`).  Live mode currently supports only the
        fault-free configuration (no churn, drops or corruption; see the
        README's "Live runner" caveats).
    processes:
        Number of worker processes of the live runner.
    host:
        Interface the workers bind their peer servers to (loopback by
        default; the runner is a single-machine harness, not a deployment).
    base_port:
        First port of the worker peer servers; ``0`` (default) lets the OS
        pick ephemeral ports, which the membership bootstrap then announces.
    run_timeout:
        Hard wall-clock limit in seconds on a whole live run; exceeding it
        terminates the workers and raises a protocol error.  It also bounds
        the wait for any single socket connection.
    stepping:
        Stepping discipline of the live runner.  ``"sequential"`` (default)
        steps one node at a time in the cycle engine's scheduler order —
        every worker replays that order and steps while it holds the one
        stepping token the workers pass among themselves — so live results
        are bit-identical to cycle mode.  ``"concurrent"`` drops that
        order: each worker steps its whole shard per epoch with
        several node steps (and their gossip exchanges) in flight
        simultaneously, the coordinator only synchronising epochs.
        Concurrent interleaving perturbs the merge order, so results differ
        from cycle mode within a measured nondeterminism envelope (see
        ``envelope``).  Read in live mode only; a cycle-mode configuration
        may carry either value (the envelope reference is derived from a
        concurrent configuration by switching ``mode`` alone).
    envelope:
        Whether a concurrent live run also executes a cycle-mode reference
        with the same seed and reports the divergence (profile distance,
        assignment churn, byte spread) in ``costs.envelope``: ``"auto"``
        (default) does, ``"off"`` skips the reference run (e.g. throughput
        benchmarks, where the reference would dominate the wall clock).
    engine:
        Population engine of cycle mode.  ``"object"`` (default) instantiates
        one :class:`~repro.core.participant.ChiaroscuroParticipant` per node.
        ``"slab"`` holds the population in struct-of-arrays NumPy slabs
        (see :mod:`repro.simulation.slab`) and runs the real crypto pipeline
        on a sampled subset only (``crypto_sample_fraction``), extrapolating
        the remaining cost with bootstrap error bars — the million-node path.
    slab_shards:
        Number of shared-memory worker shards of the slab engine's bulk
        phases (assignment, contribution scatter, gossip averaging and the
        online-mean reduction).  ``1`` (default) runs in-process; results
        are shard-count invariant by construction (workers operate on fixed
        canonical row blocks and the coordinator reduces partials in block
        order).
    slab_dtype:
        Element dtype of the estimate slab: ``"float64"`` (default,
        bit-identical to today's dense slab) or ``"float32"`` (half the
        resident footprint; results differ in the low bits).
    slab_backing:
        Storage of the estimate slab: ``"memory"`` (default) keeps it
        resident; ``"mmap:<dir>"`` backs it by a :class:`numpy.memmap`
        scratch file under ``<dir>`` and drops processed pages
        (``madvise(DONTNEED)``) so huge populations run in bounded resident
        memory.
    slab_chunk_rows:
        Pairs averaged between two page releases of an ``mmap`` slab (capped
        at 8192; ``0``, the default, means the cap).  The elementwise phases
        (contribution scatter and pair averaging) run in cache-sized row
        blocks whatever this says — a smaller positive value shrinks the
        block — and reductions run over fixed canonical blocks, so results
        never depend on it.
    crypto_sample_fraction:
        Fraction of the population that runs the real crypto pipeline
        end-to-end under the slab engine.  ``1.0`` (default) runs everything
        through the object path (bit-identical results); the sample is never
        smaller than one complete miniature run, ``max(threshold, k, 2)``
        nodes, which is what ``0.0`` asks for (symbolic totals without a
        run: ``repro crypto-bench``).
    """

    mode: str = "cycle"
    processes: int = 2
    host: str = "127.0.0.1"
    base_port: int = 0
    run_timeout: float = 300.0
    stepping: str = "sequential"
    envelope: str = "auto"
    engine: str = "object"
    slab_shards: int = 1
    slab_dtype: str = "float64"
    slab_backing: str = "memory"
    slab_chunk_rows: int = 0
    crypto_sample_fraction: float = 1.0

    def __post_init__(self) -> None:
        check_in_choices(self.mode, RUNTIME_MODES, "mode")
        check_in_choices(self.stepping, RUNTIME_STEPPING, "stepping")
        check_in_choices(self.envelope, RUNTIME_ENVELOPE, "envelope")
        check_in_choices(self.engine, RUNTIME_ENGINES, "engine")
        check_positive_int(self.slab_shards, "slab_shards")
        check_in_choices(self.slab_dtype, SLAB_DTYPES, "slab_dtype")
        if self.slab_backing != "memory":
            prefix, _, directory = self.slab_backing.partition(":")
            if prefix != "mmap" or not directory:
                raise ConfigurationError(
                    "slab_backing must be 'memory' or 'mmap:<dir>', got "
                    f"{self.slab_backing!r}"
                )
        check_non_negative_int(self.slab_chunk_rows, "slab_chunk_rows")
        check_probability(self.crypto_sample_fraction, "crypto_sample_fraction")
        check_positive_int(self.processes, "processes")
        if not self.host:
            raise ConfigurationError("runtime.host must not be empty")
        check_non_negative_int(self.base_port, "base_port")
        if self.base_port >= 1 << 16:
            raise ConfigurationError(f"base_port {self.base_port} outside [0, 65536)")
        # Worker i binds base_port + 1 + i, so the whole range must fit.
        if self.base_port and self.base_port + self.processes >= 1 << 16:
            raise ConfigurationError(
                f"base_port {self.base_port} leaves no room for "
                f"{self.processes} worker ports below 65536"
            )
        check_positive_float(self.run_timeout, "run_timeout")


@dataclass(frozen=True)
class SimulationConfig:
    """Population and fault-model parameters of the cycle-driven simulation.

    Attributes
    ----------
    n_participants:
        Number of simulated personal devices.  The demo uses on the order of
        10^3; Chiaroscuro targets 10^6 (costs are extrapolated).
    churn_rate:
        Per-cycle probability that an online participant goes offline
        temporarily (honest-but-curious but possibly faulty devices).
    rejoin_rate:
        Per-cycle probability that an offline participant comes back online.
    seed:
        Master seed of the simulation; every stochastic component derives its
        own named stream from it.
    """

    n_participants: int = 200
    churn_rate: float = 0.0
    rejoin_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.n_participants, "n_participants")
        check_probability(self.churn_rate, "churn_rate")
        check_probability(self.rejoin_rate, "rejoin_rate")
        check_non_negative_int(self.seed, "seed")


@dataclass(frozen=True)
class SmoothingConfig:
    """Centroid-smoothing heuristic parameters (quality-enhancing heuristic #2).

    Attributes
    ----------
    method:
        ``"none"`` disables smoothing; ``"moving_average"`` applies a centred
        moving average of width 3; ``"lowpass"`` keeps the ``lowpass_cutoff``
        fraction of low-frequency Fourier coefficients; ``"exponential"``
        applies exponential smoothing with factor 0.5 (the constants of
        :mod:`repro.clustering.smoothing`).
    lowpass_cutoff:
        Fraction of Fourier coefficients preserved by the low-pass filter.
    """

    method: str = "moving_average"
    lowpass_cutoff: float = 0.25

    def __post_init__(self) -> None:
        check_in_choices(self.method, SMOOTHING_METHODS, "method")
        check_fraction_open(self.lowpass_cutoff, "lowpass_cutoff")


@dataclass(frozen=True)
class ChiaroscuroConfig:
    """Complete configuration of a Chiaroscuro run.

    The aggregate performs the cross-subsystem checks that individual
    sub-configurations cannot perform on their own (e.g. the decryption
    threshold must not exceed the population size).
    """

    kmeans: KMeansConfig = field(default_factory=KMeansConfig)
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    crypto: CryptoConfig = field(default_factory=CryptoConfig)
    gossip: GossipConfig = field(default_factory=GossipConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self) -> None:
        if self.runtime.mode == "live":
            if self.simulation.churn_rate > 0:
                raise ConfigurationError(
                    "the live runner does not support churn yet "
                    "(set simulation.churn_rate=0)"
                )
            if self.gossip.drop_probability > 0:
                raise ConfigurationError(
                    "the live runner does not support the loss fault model yet "
                    "(set gossip.drop_probability=0)"
                )
            if self.network.corruption_rate > 0:
                raise ConfigurationError(
                    "the live runner does not support the corruption fault model "
                    "yet (set network.corruption_rate=0)"
                )
        if self.runtime.engine == "slab":
            if self.runtime.mode != "cycle":
                raise ConfigurationError(
                    "the slab engine is a cycle-mode population substrate "
                    "(set runtime.mode='cycle')"
                )
        if self.crypto.threshold > self.simulation.n_participants:
            raise ConfigurationError(
                "decryption threshold cannot exceed the number of participants "
                f"({self.crypto.threshold} > {self.simulation.n_participants})"
            )
        if self.privacy.noise_shares > self.simulation.n_participants:
            raise ConfigurationError(
                "the number of noise shares cannot exceed the number of participants "
                f"({self.privacy.noise_shares} > {self.simulation.n_participants})"
            )
        if self.kmeans.n_clusters > self.simulation.n_participants:
            raise ConfigurationError(
                "cannot ask for more clusters than participants "
                f"({self.kmeans.n_clusters} > {self.simulation.n_participants})"
            )

    def with_overrides(self, **sections: Mapping[str, Any]) -> "ChiaroscuroConfig":
        """Return a copy with selected fields of selected sections replaced.

        Example
        -------
        >>> cfg = ChiaroscuroConfig()
        >>> cfg2 = cfg.with_overrides(privacy={"epsilon": 0.5}, kmeans={"n_clusters": 3})
        >>> cfg2.privacy.epsilon
        0.5
        """
        updates: dict[str, Any] = {}
        for section, overrides in sections.items():
            if section not in CONFIG_SECTIONS:
                raise ConfigurationError(
                    f"unknown configuration section {section!r}; "
                    f"expected one of {sorted(CONFIG_SECTIONS)}"
                )
            current = getattr(self, section)
            valid = [item.name for item in fields(current)]
            for fieldname in overrides:
                if fieldname not in valid:
                    raise ConfigurationError(
                        f"unknown configuration field {section}.{fieldname}; "
                        f"section {section!r} has {sorted(valid)}"
                    )
            updates[section] = replace(current, **dict(overrides))
        return replace(self, **updates)

    def describe(self) -> dict[str, dict[str, Any]]:
        """Return a plain nested dictionary view, convenient for logging."""
        return {
            section: vars(getattr(self, section)).copy() for section in CONFIG_SECTIONS
        }


#: Section names of :class:`ChiaroscuroConfig`, in declaration order — the
#: dataclass's field list is the one place they are written.
CONFIG_SECTIONS: tuple[str, ...] = tuple(item.name for item in fields(ChiaroscuroConfig))


#: Default configuration mirroring the demonstration's default parameters.
DEFAULT_CONFIG = ChiaroscuroConfig()
