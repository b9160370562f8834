"""The Chiaroscuro participant: one personal device's state machine.

Every participant runs the same code (the paper stresses that the execution
sequence "is iterative, identical for all participants, and proceeds without
any global synchronization").  The participant is a :class:`~repro.simulation.node.Node`
whose ``next_cycle`` method implements the execution sequence of Section II.B:

* **ASSIGN** (local) — find the closest perturbed centroid, draw the optional
  noise-shares, and initialise the encrypted side of the diptych;
* **GOSSIP** (distributed) — pairwise gossip exchanges averaging the
  encrypted data and noise estimates with peers working on the same
  iteration; late peers adopt the more advanced iteration they observe;
* **DECRYPT** (distributed) — homomorphically add the noise estimates to the
  data estimates and run the collaborative decryption with the committee;
* **CONVERGE** (local, folded into the decrypt phase) — rebuild the perturbed
  means, smooth them, check the termination criteria, and either finish or
  start the next iteration with the perturbed means as new centroids.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from ..clustering.kmeans import centroid_displacement, reseed_centroid
from ..clustering.smoothing import smooth_centroids
from ..config import ChiaroscuroConfig
from ..crypto.backends import CipherBackend
from ..crypto.wire import wire_ciphertext_bytes
from ..exceptions import ProtocolError, ThresholdError
from ..gossip.encrypted_sum import (
    EncryptedEstimate,
    add_estimates,
    estimate_payload_bytes,
    rerandomize_estimate,
)
from ..gossip.messages import DiptychExchange, DiptychReply
from ..gossip.overlay import Overlay
from ..privacy.budget import PrivacyAccountant
from ..privacy.laplace import SensitivityModel
from ..privacy.noise_shares import NoiseShareSpec, draw_noise_share
from ..privacy.strategies import BudgetStrategy, make_budget_strategy
from ..simulation.engine import CycleEngine
from ..simulation.node import Node
from .collaborative import collaborative_decrypt, collaborative_decrypt_many
from .convergence import TerminationCriteria
from .diptych import Diptych, build_contribution, merge_diptychs


class Phase(enum.Enum):
    """Protocol phases of a participant."""

    ASSIGN = "assign"
    GOSSIP = "gossip"
    DECRYPT = "decrypt"
    DONE = "done"


def gossip_decision(peer: "ChiaroscuroParticipant", initiator_iteration: int) -> str:
    """What one gossip attempt does, given the sampled peer's state.

    Returns ``"sync"`` (adopt the finished peer's profiles), ``"adopt"``
    (jump to the peer's more advanced iteration), ``"skip"`` (peer cannot
    take part this cycle) or ``"merge"`` (run the pairwise exchange).  This
    single predicate — including its evaluation order — is shared by the
    cycle engine's gossip step (which reads the peer from shared memory)
    and the live runner's probe handler (which answers over the socket), so
    the two execution modes cannot diverge in the decision.
    """
    if peer.is_done and peer.final_profiles is not None:
        return "sync"
    if peer.iteration > initiator_iteration and not peer.is_done:
        return "adopt"
    if (
        peer.phase is not Phase.GOSSIP
        or peer.iteration != initiator_iteration
        or peer.diptych is None
    ):
        return "skip"
    return "merge"


def peer_sampling_stream(node_id: int) -> str:
    """Name of one participant's peer-sampling random stream.

    Both the cycle engine's gossip step and the live runner's driver draw
    this node's gossip peers from the stream registered under this name, so
    the two execution modes consume identical peer-sampling randomness.
    """
    return f"chiaroscuro.peer_sampling.{node_id}"


class ChiaroscuroParticipant(Node):
    """One simulated personal device participating in the clustering.

    Parameters
    ----------
    node_id:
        Simulation node id.
    series_values:
        The participant's personal time-series, already clipped to the public
        value bound.
    initial_centroids:
        The shared, data-independent initial centroids (every participant
        derives the same ones from the public seed).
    config:
        Full protocol configuration.
    backend:
        Shared cipher backend (public key material is common; the private key
        shares are held by the decryption committee).
    overlay:
        Gossip overlay used for peer sampling.
    noise_contributor:
        Whether this participant draws noise-shares each iteration.
    n_noise_contributors:
        Total number of noise contributors (defines the share distribution).
    seed:
        Per-participant random seed (derived from the master seed).
    """

    def __init__(
        self,
        node_id: int,
        series_values: np.ndarray,
        initial_centroids: np.ndarray,
        config: ChiaroscuroConfig,
        backend: CipherBackend,
        overlay: Overlay,
        noise_contributor: bool,
        n_noise_contributors: int,
        seed: int = 0,
    ) -> None:
        super().__init__(node_id)
        self.series_values = np.asarray(series_values, dtype=float)
        if self.series_values.ndim != 1:
            raise ProtocolError("series_values must be one-dimensional")
        self.config = config
        self.backend = backend
        self.overlay = overlay
        self.noise_contributor = noise_contributor
        self.n_noise_contributors = max(1, int(n_noise_contributors))
        self._rng = np.random.default_rng(seed)

        self.centroids = np.asarray(initial_centroids, dtype=float).copy()
        if self.centroids.shape[1] != self.series_values.shape[0]:
            raise ProtocolError(
                "centroid length differs from the participant's series length"
            )
        self.phase = Phase.ASSIGN
        self.iteration = 0
        self.diptych: Diptych | None = None
        self.gossip_cycles_done = 0
        self.assigned_cluster: int | None = None
        self.assignment_history: list[int] = []
        self.displacement_history: list[float] = []
        self.perturbed_means_history: list[np.ndarray] = []
        self.final_profiles: np.ndarray | None = None
        self.stop_reason: str = ""
        self.last_displacement: float | None = None

        self.sensitivity = SensitivityModel(
            series_length=self.series_values.shape[0],
            value_bound=config.privacy.value_bound,
            count_bound=config.privacy.count_bound,
        )
        self.accountant = PrivacyAccountant(
            config.privacy.epsilon, config.privacy.delta_slack
        )
        self.strategy: BudgetStrategy = make_budget_strategy(
            config.privacy.budget_strategy,
            config.privacy.epsilon,
            config.kmeans.max_iterations,
            geometric_ratio=config.privacy.geometric_ratio,
        )
        self.termination = TerminationCriteria(
            convergence_threshold=config.kmeans.convergence_threshold,
            max_iterations=config.kmeans.max_iterations,
            track_quality=config.kmeans.track_quality,
            quality_patience=config.kmeans.quality_patience,
        )

    # ------------------------------------------------------------------ properties
    @property
    def is_done(self) -> bool:
        """Whether this participant has produced its final profiles."""
        return self.phase is Phase.DONE

    @property
    def n_clusters(self) -> int:
        """Number of clusters k."""
        return self.centroids.shape[0]

    @property
    def series_length(self) -> int:
        """Length of the participant's series."""
        return self.series_values.shape[0]

    # ------------------------------------------------------------------ execution sequence
    def next_cycle(self, engine: CycleEngine, cycle: int) -> None:
        if self.phase is Phase.DONE:
            return
        if self.phase is Phase.ASSIGN:
            self._assignment_step()
            return
        if self.phase is Phase.GOSSIP:
            self._gossip_step(engine)
            return
        if self.phase is Phase.DECRYPT:
            self._decrypt_and_converge(engine)

    # -- Step 1: assignment (local) -------------------------------------------------
    def _closest_centroid(self) -> int:
        distances = np.linalg.norm(self.centroids - self.series_values[None, :], axis=1)
        return int(np.argmin(distances))

    def _iteration_epsilon(self) -> float:
        progress = None
        if self.last_displacement is not None:
            # Normalise the displacement into a rough [0, 1] progress signal.
            scale = max(self.config.privacy.value_bound, 1e-12)
            progress = float(np.clip(1.0 - self.last_displacement / scale, 0.0, 1.0))
        return self.strategy.epsilon_for_iteration(
            self.iteration - 1, self.accountant.remaining_epsilon, progress=progress
        )

    def _draw_noise_shares(self, epsilon_iteration: float) -> list[np.ndarray] | None:
        if not self.noise_contributor:
            return None
        scale = self.sensitivity.laplace_scale(epsilon_iteration)
        spec = NoiseShareSpec(
            scale=scale,
            n_shares=self.n_noise_contributors,
            vector_length=self.series_length + 1,
        )
        return [draw_noise_share(spec, self._rng) for _ in range(self.n_clusters)]

    def _assignment_step(self) -> None:
        self.iteration += 1
        epsilon_iteration = self._iteration_epsilon()
        if epsilon_iteration <= 0 or not self.accountant.can_spend(epsilon_iteration):
            self._finish("budget_exhausted")
            return
        self.accountant.spend(epsilon_iteration, label=f"iteration-{self.iteration}")
        self.assigned_cluster = self._closest_centroid()
        self.assignment_history.append(self.assigned_cluster)
        noise_shares = self._draw_noise_shares(epsilon_iteration)
        data_estimates, noise_estimates = build_contribution(
            self.backend,
            self.series_values,
            self.assigned_cluster,
            self.n_clusters,
            noise_shares=noise_shares,
        )
        self.diptych = Diptych(
            centroids=self.centroids,
            data_estimates=data_estimates,
            noise_estimates=noise_estimates,
        )
        self.gossip_cycles_done = 0
        self.phase = Phase.GOSSIP

    # -- Step 2a/2b: gossip computation (distributed) --------------------------------
    def adopt_peer_state(self, centroids: np.ndarray, iteration: int) -> None:
        """Late-participant synchronisation: jump to an observed iteration.

        Shared by the cycle engine (which reads the peer's state directly)
        and the live runner (which receives it in a gossip probe reply):
        both modes must make this transition identically.
        """
        self.centroids = np.asarray(centroids, dtype=float).copy()
        self.iteration = iteration - 1
        self.phase = Phase.ASSIGN
        self._assignment_step()

    def synchronize_with_profiles(self, profiles: np.ndarray) -> None:
        """Adopt a finished peer's profiles (the "late participants simply
        synchronize" behaviour); shared by both execution modes."""
        self.centroids = np.asarray(profiles, dtype=float).copy()
        self._finish("synchronized")

    def _adopt_iteration(self, peer: "ChiaroscuroParticipant") -> None:
        """Late-participant synchronisation: jump to the peer's iteration."""
        self.adopt_peer_state(peer.centroids, peer.iteration)

    def exchange_frame(
        self, message_type: type[DiptychExchange] | type[DiptychReply]
    ) -> bytes:
        """This device's half of a gossip exchange, serialized.

        The one place a diptych frame is built — by the initiator
        (:class:`~repro.gossip.messages.DiptychExchange`) and by the
        responder (:class:`~repro.gossip.messages.DiptychReply`), in the
        cycle engine and in the live runner alike.  It carries the current
        iteration and re-randomized copies of the stored estimates: only
        these copies ever travel, so a hop-by-hop observer sees unlinkable
        ciphertexts that decrypt to the same plaintexts.
        """
        return message_type(
            iteration=self.iteration,
            data_estimates=tuple(rerandomize_estimate(self.backend, estimate)
                                 for estimate in self.diptych.data_estimates),
            noise_estimates=tuple(rerandomize_estimate(self.backend, estimate)
                                  for estimate in self.diptych.noise_estimates),
            ciphertext_bytes=wire_ciphertext_bytes(self.backend),
        ).serialize()

    def _gossip_step(self, engine: CycleEngine) -> None:
        if self.diptych is None:  # pragma: no cover - state machine guarantees this
            raise ProtocolError("gossip phase reached without a diptych")
        rng = engine.rng_registry.stream(peer_sampling_stream(self.node_id))
        online = set(engine.online_ids())
        for _ in range(self.config.gossip.exchanges_per_cycle):
            peer_id = self.overlay.sample_neighbor(self.node_id, rng, online=online)
            if peer_id is None:
                break
            peer = engine.node(peer_id)
            if not isinstance(peer, ChiaroscuroParticipant):
                raise ProtocolError("gossip exchange with a non-Chiaroscuro node")
            decision = gossip_decision(peer, self.iteration)
            if decision == "sync":
                # A finished peer already holds the converged profiles.
                self.synchronize_with_profiles(peer.final_profiles)
                return
            if decision == "adopt":
                self._adopt_iteration(peer)
                if self.phase is not Phase.GOSSIP:
                    return
                continue
            if decision == "skip":
                continue
            payload = sum(
                estimate_payload_bytes(self.backend, estimate)
                for estimate in self.diptych.data_estimates + self.diptych.noise_estimates
            )
            reply = engine.exchange(
                self.node_id, peer_id, ("diptych-exchange", "diptych-reply"),
                self.exchange_frame(DiptychExchange),
                lambda _request: peer.exchange_frame(DiptychReply),
                modelled_bytes=payload,
            )
            if reply is None:
                continue  # lost or corrupted: no exchange this attempt
            merge_diptychs(
                self.backend, self.diptych, peer.diptych,
                theirs_view=(list(reply.data_estimates), list(reply.noise_estimates)),
            )
        self.gossip_cycles_done += 1
        if self.gossip_cycles_done >= self.config.gossip.cycles_per_aggregation:
            self.phase = Phase.DECRYPT

    # -- Steps 2c/2d + 3: noise addition, decryption, convergence --------------------
    def combined_estimate(self, cluster: int) -> EncryptedEstimate:
        """One cluster's data estimate with its noise homomorphically added
        (step 2c); shared by both execution modes' decrypt steps."""
        return add_estimates(
            self.backend,
            self.diptych.data_estimates[cluster],
            self.diptych.noise_estimates[cluster],
        )

    def _decrypt_and_converge(self, engine: CycleEngine) -> None:
        if self.diptych is None:  # pragma: no cover - state machine guarantees this
            raise ProtocolError("decrypt phase reached without a diptych")
        try:
            if self.backend.is_packed:
                # Packed/batched mode: homomorphically add the noise to every
                # per-cluster estimate, then decrypt all of them in a single
                # committee round-trip (2·threshold messages instead of
                # 2·threshold per cluster).
                combined = [
                    self.combined_estimate(cluster)
                    for cluster in range(self.n_clusters)
                ]
                decrypted = collaborative_decrypt_many(
                    engine, self.node_id, self.backend, combined,
                ).values
            else:
                # Historical layout: one noise addition and one decryption
                # round-trip per cluster, byte-for-byte as before packing.
                # Deliberately NOT routed through collaborative_decrypt_many:
                # the add for cluster c must stay interleaved with cluster
                # c's decryption so that a ThresholdError retry cycle charges
                # exactly the operations the pre-packing code charged.
                decrypted = []
                for cluster in range(self.n_clusters):
                    decrypted.append(
                        collaborative_decrypt(
                            engine, self.node_id, self.backend,
                            self.combined_estimate(cluster),
                        ).values
                    )
        except ThresholdError:
            # Not enough decryption helpers online this cycle; retry later.
            return
        self._converge_from_decrypted(decrypted, engine.n_nodes)

    def _converge_from_decrypted(
        self, decrypted: Sequence[np.ndarray], n_nodes: int
    ) -> None:
        """Rebuild, repair, smooth and adopt the perturbed means (step 3).

        Everything after the collaborative decryption is local and
        transport-independent; the live runner's driver calls this with the
        values it decrypted over sockets, so both execution modes share one
        convergence implementation.
        """
        perturbed = np.empty((self.n_clusters, self.series_length))
        counts = np.zeros(self.n_clusters)
        min_count = 1.0 / (2.0 * max(1, n_nodes))
        for cluster, values in enumerate(decrypted):
            average_sum = values[: self.series_length]
            average_count = float(values[self.series_length])
            counts[cluster] = average_count
            if average_count <= min_count:
                perturbed[cluster] = self.centroids[cluster]
            else:
                perturbed[cluster] = average_sum / average_count
        bound = self.config.privacy.value_bound
        perturbed = np.clip(perturbed, 0.0, bound)
        # Empty-cluster repair: split the (noisily) largest cluster using only
        # public randomness, so every participant derives the same replacement.
        donor = int(np.argmax(counts))
        for cluster in range(self.n_clusters):
            if counts[cluster] <= min_count and cluster != donor:
                perturbed[cluster] = reseed_centroid(
                    perturbed[donor], bound, self.iteration, cluster,
                    seed=self.config.simulation.seed,
                )
        perturbed = smooth_centroids(perturbed, self.config.smoothing)
        displacement = centroid_displacement(self.centroids, perturbed)
        self.last_displacement = displacement
        self.displacement_history.append(displacement)
        self.perturbed_means_history.append(perturbed.copy())
        stop, reason = self.termination.should_stop(self.iteration, displacement)
        self.centroids = perturbed
        self.diptych = None
        if stop:
            self._finish(reason)
        else:
            self.phase = Phase.ASSIGN

    def _finish(self, reason: str) -> None:
        self.final_profiles = self.centroids.copy()
        self.stop_reason = reason
        self.phase = Phase.DONE
