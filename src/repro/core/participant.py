"""The Chiaroscuro participant: one personal device's state machine.

Every participant runs the same code (the paper stresses that the execution
sequence "is iterative, identical for all participants, and proceeds without
any global synchronization").  The participant is a :class:`~repro.simulation.node.Node`
whose ``step`` generator implements the execution sequence of Section II.B
(``next_cycle`` drives it inside the cycle engine):

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
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

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
from ..gossip.messages import DiptychExchange, DiptychReply, Frame
from ..gossip.peers import sample_peer
from ..privacy.noise_shares import NoiseShareSpec, draw_noise_share
from ..simulation.engine import CycleEngine
from ..simulation.node import Node
from .collaborative import collaborative_decrypt_many
from .convergence import iteration_policy, perturbed_means
from .diptych import Diptych, build_contribution, merge_diptychs


class Phase(enum.Enum):
    """Protocol phases of a participant."""

    ASSIGN = "assign"
    GOSSIP = "gossip"
    DECRYPT = "decrypt"
    DONE = "done"


@dataclass(frozen=True)
class Probe:
    """Effect: ask *peer* what a gossip attempt at *iteration* should do.
    Answered with the peer's :meth:`ChiaroscuroParticipant.answer_probe`
    mapping; any other ``status`` (a peer that could not be asked) means
    no exchange."""

    peer: int
    iteration: int


@dataclass(frozen=True)
class Exchange:
    """Effect: run the pairwise diptych exchange with *peer*; *frame* is
    this device's serialized half, *modelled_bytes* the size formula's
    charge for it.  The driver performs all of it, merge included: on
    return the initiator's diptych holds the pairwise average, or is
    untouched when the exchange was lost, corrupted or refused."""

    peer: int
    frame: Frame
    modelled_bytes: int


@dataclass(frozen=True)
class CommitteeRound:
    """Effect: one collaborative decryption round.  Answered with one
    decrypted vector per estimate, or ``None`` when fewer than ``threshold``
    usable partial decryptions came back."""

    estimates: tuple[EncryptedEstimate, ...]


Effect = Probe | Exchange | CommitteeRound


def peer_sampling_stream(node_id: int) -> str:
    """Name of one participant's peer-sampling random stream.

    Both drivers hand :meth:`ChiaroscuroParticipant.step` the stream
    registered under this name, so the two execution modes consume
    identical peer-sampling randomness.
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

        self.sensitivity, self.strategy, self.accountant, self.termination = (
            iteration_policy(config, self.series_values.shape[0])
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
    def step(self, rng: np.random.Generator,
             online: Callable[[], Sequence[int]],
             n_nodes: int) -> Generator[Effect, Any, None]:
        """One cycle of the execution sequence, as a sans-IO generator.

        The protocol step, written once: it *decides* — peer sampling from
        *rng* (this node's :func:`peer_sampling_stream`) among the
        ascending ids *online()* returns, the sync/adopt/skip/merge
        handling, the phase transitions — and moves no byte.  What needs
        another device is yielded as an effect and the driver sends the
        answer back in:
        :meth:`next_cycle` (cycle engine) and
        :meth:`repro.net.live.LiveParticipantDriver.step` (sockets).
        *n_nodes* is the population size.
        """
        if self.phase is Phase.ASSIGN:
            self._assignment_step()
        elif self.phase is Phase.GOSSIP:
            yield from self._gossip_step(rng, online())
        elif self.phase is Phase.DECRYPT:
            yield from self._decrypt_and_converge(n_nodes)

    def next_cycle(self, engine: CycleEngine, cycle: int) -> None:
        """The cycle engine's driver of :meth:`step`: synchronous, over
        ``engine.transport.exchange``, peers read from the engine's memory."""
        steps = self.step(
            engine.rng_registry.stream(peer_sampling_stream(self.node_id)),
            engine.online_id_view,
            engine.n_nodes,
        )
        answer = None
        try:
            while True:
                answer = self._perform(engine, steps.send(answer))
        except StopIteration:
            pass

    def _perform(self, engine: CycleEngine, effect: Effect) -> Any:
        if isinstance(effect, CommitteeRound):
            try:
                return collaborative_decrypt_many(
                    engine, self.node_id, self.backend, effect.estimates,
                ).values
            except ThresholdError:
                # Not enough decryption helpers online this cycle.
                return None
        peer = engine.node(effect.peer)
        if not isinstance(peer, ChiaroscuroParticipant):
            raise ProtocolError("gossip exchange with a non-Chiaroscuro node")
        if isinstance(effect, Probe):
            return peer.answer_probe(effect.iteration)
        reply = engine.transport.exchange(
            self.node_id, effect.peer, ("diptych-exchange", "diptych-reply"),
            effect.frame,
            lambda _request: peer.exchange_frame(DiptychReply),
            modelled_bytes=effect.modelled_bytes,
        )
        if reply is not None:
            # The cycle model's one shortcut: a single average, both ends
            # adopting the same objects (see merge_diptychs).
            merge_diptychs(
                self.backend, self.diptych, peer.diptych,
                theirs_view=(reply.data_estimates, reply.noise_estimates),
            )
        return None

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
    def answer_probe(self, initiator_iteration: int) -> dict[str, Any]:
        """This device's answer to a peer's :class:`Probe`: what one gossip
        attempt does, and the state the initiator needs to do it.

        ``"sync"`` (adopt this finished device's profiles), ``"adopt"``
        (jump to its more advanced iteration), ``"skip"`` (it cannot take
        part this cycle) or ``"merge"`` (run the pairwise exchange), tested
        in that order.  The arrays are this device's own — the cycle driver
        passes them as they are, the live worker's
        ``WorkerTransport.answer_probe`` as lists in the control header.
        """
        if self.is_done and self.final_profiles is not None:
            return {"status": "sync", "profiles": self.final_profiles}
        if self.iteration > initiator_iteration and not self.is_done:
            return {"status": "adopt", "iteration": self.iteration,
                    "centroids": self.centroids}
        if (
            self.phase is not Phase.GOSSIP
            or self.iteration != initiator_iteration
            or self.diptych is None
        ):
            return {"status": "skip"}
        return {"status": "merge"}

    def adopt_peer_state(self, centroids: np.ndarray, iteration: int) -> None:
        """Late-participant synchronisation: jump to the iteration (and
        centroids) a probed peer reported."""
        self.centroids = np.asarray(centroids, dtype=float).copy()
        self.iteration = iteration - 1
        self.phase = Phase.ASSIGN
        self._assignment_step()

    def synchronize_with_profiles(self, profiles: np.ndarray) -> None:
        """Adopt a finished peer's profiles (the "late participants simply
        synchronize" behaviour) and stop."""
        self.centroids = np.asarray(profiles, dtype=float).copy()
        self._finish("synchronized")

    def exchange_frame(
        self, message_type: type[DiptychExchange] | type[DiptychReply]
    ) -> Frame:
        """This device's half of a gossip exchange, serialized.

        The one place a diptych frame is built — by the initiator
        (:class:`~repro.gossip.messages.DiptychExchange`, inside
        :meth:`step`) and by the responder
        (:class:`~repro.gossip.messages.DiptychReply`, served by either
        driver's transport).  It carries the current
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

    def _gossip_step(self, rng: np.random.Generator,
                     online: Sequence[int]) -> Generator[Effect, Any, None]:
        if self.diptych is None:  # pragma: no cover - state machine guarantees this
            raise ProtocolError("gossip phase reached without a diptych")
        for _ in range(self.config.gossip.exchanges_per_cycle):
            peer_id = sample_peer(self.node_id, rng, online)
            if peer_id is None:
                break
            probe = yield Probe(peer_id, self.iteration)
            status = probe.get("status")
            if status == "sync":
                # A finished peer already holds the converged profiles.
                self.synchronize_with_profiles(probe["profiles"])
                return
            if status == "adopt":
                self.adopt_peer_state(probe["centroids"], int(probe["iteration"]))
                if self.phase is not Phase.GOSSIP:
                    return
                continue
            if status != "merge":
                continue
            payload = sum(
                estimate_payload_bytes(self.backend, estimate)
                for estimate in self.diptych.data_estimates + self.diptych.noise_estimates
            )
            yield Exchange(peer_id, self.exchange_frame(DiptychExchange), payload)
        self.gossip_cycles_done += 1
        if self.gossip_cycles_done >= self.config.gossip.cycles_per_aggregation:
            self.phase = Phase.DECRYPT

    # -- Steps 2c/2d + 3: noise addition, decryption, convergence --------------------
    def _decrypt_and_converge(self, n_nodes: int) -> Generator[Effect, Any, None]:
        if self.diptych is None:  # pragma: no cover - state machine guarantees this
            raise ProtocolError("decrypt phase reached without a diptych")
        # Step 2c, then 2d: add each cluster's noise estimate to its data
        # estimate, and decrypt all k sums in one committee round
        # (2·threshold messages per iteration).
        decrypted = yield CommitteeRound(tuple(
            add_estimates(self.backend, data, noise)
            for data, noise in zip(self.diptych.data_estimates,
                                   self.diptych.noise_estimates)
        ))
        if decrypted is None:
            return  # retry at the next cycle
        self._converge_from_decrypted(decrypted, n_nodes)

    def _converge_from_decrypted(
        self, decrypted: Sequence[np.ndarray], n_nodes: int
    ) -> None:
        """Adopt the perturbed means of the decrypted averages (step 3) and
        decide whether to go on.

        Everything after the collaborative decryption is local; called by
        :meth:`_decrypt_and_converge` with the vectors the driver of
        :meth:`step` decrypted.
        """
        perturbed, displacement = perturbed_means(
            decrypted, self.centroids, n_nodes, self.iteration, self.config
        )
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
