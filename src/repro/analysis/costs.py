"""Cost model: measured cryptographic costs and extrapolation to large scales.

The demonstration disables homomorphic operations for the live run but
displays "the performance overhead that would be due to homomorphic
operations and to a larger population size ... based on actual average
measures performed beforehand (e.g., of encryption/decryption/addition
times)" (Section III.B).  This module reproduces that methodology:

* :func:`measure_crypto_costs` times the real Damgård–Jurik operations for a
  given key size and degree, as a
  :class:`~repro.crypto.cost_profile.CryptoCostProfile`
  (:data:`~repro.crypto.cost_profile.REFERENCE_PROFILE` is its committed
  2048-bit output, the price list of every run's modelled crypto seconds);
* :class:`CostModel` combines the measured per-operation times with the
  protocol's operation counts to predict the per-participant compute time and
  bandwidth of a run at any population size — including the 10^6 participants
  Chiaroscuro targets but a laptop cannot simulate with real encryption.

(The slab engine's bootstrap extrapolation from a measured node sample is
:func:`repro.core.slab_runner.bootstrap_extrapolate`.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._validation import check_in_choices, check_positive_int
from ..crypto import damgard_jurik as dj
from ..crypto.cost_profile import CryptoCostProfile
from ..crypto.fastmath import BlinderPool, PrecomputedKey
from ..crypto.threshold import (
    combine_partial_decryptions,
    generate_threshold_keypair,
    partial_decrypt,
)
from ..crypto.wire import FRAME_FIXED_OVERHEAD_BYTES, wire_ciphertext_bytes
from ..exceptions import AnalysisError
from ..simulation.network import ByteAccounting

#: Approximate wire-format overheads used by the *modelled* wire-byte
#: figures (the measured figures come from actual frames).  A frame adds
#: the fixed envelope (magic + version + type + CRC32) plus a body-length
#: varint of up to 4 bytes for any frame below 256 MiB; each serialized
#: estimate adds its header (backend name, logical length, packing flag,
#: homomorphic weight bigint, ciphertext width, count, halvings exponent).
WIRE_FRAME_OVERHEAD_BYTES = FRAME_FIXED_OVERHEAD_BYTES + 4
WIRE_ESTIMATE_OVERHEAD_BYTES = 28

#: Arithmetic a cost measurement can time: ``"off"`` is the textbook
#: functions every device can run, ``"auto"`` the accelerations of
#: :mod:`repro.crypto.fastmath`.  (Runs always use the latter; comparing the
#: two is what ``repro crypto-bench`` is for.)
FASTMATH_CHOICES = ("auto", "off")


def measure_crypto_costs(
    key_bits: int = 512,
    degree: int = 1,
    threshold: int = 3,
    n_shares: int = 5,
    repetitions: int = 5,
    fastmath: str = "auto",
) -> CryptoCostProfile:
    """Time the Damgård–Jurik operations with a real key of the given size.

    The measurements are averages over *repetitions* operations; they are the
    per-operation constants the cost model extrapolates from (exactly the
    demo's own methodology).  With ``fastmath="auto"`` the profile uses only
    the accelerations a *real participant* could run — public per-key caches,
    blinders precomputed in idle time (the hot-path cost of an encryption
    with a ready blinder is reported in ``pooled_encryption_seconds``) and
    multi-exponentiation share combination.  The private CRT context is
    deliberately NOT used here: share holders only know the public modulus,
    so charging them CRT-speed partial decryptions would understate the
    per-device cost the model exists to predict (the simulation backend may use CRT internally, but
    that is a wall-clock shortcut, not a device-cost claim).
    """
    check_positive_int(repetitions, "repetitions")
    check_in_choices(fastmath, FASTMATH_CHOICES, "fastmath")
    start = time.perf_counter()
    public, shares, _private = generate_threshold_keypair(
        key_bits=key_bits, s=degree, threshold=threshold, n_shares=n_shares
    )
    keygen_seconds = time.perf_counter() - start
    use_fastmath = fastmath != "off"
    precomputed = (
        PrecomputedKey.from_public_key(public.public_key) if use_fastmath else None
    )
    plaintext_modulus = public.public_key.plaintext_modulus
    rng = np.random.default_rng(0)
    plaintexts = [int(rng.integers(0, min(plaintext_modulus, 2**62))) for _ in range(repetitions)]

    start = time.perf_counter()
    ciphertexts = [
        dj.encrypt(public.public_key, value, precomputed=precomputed) for value in plaintexts
    ]
    encryption_seconds = (time.perf_counter() - start) / repetitions

    pooled_encryption_seconds = 0.0
    if use_fastmath:
        pool = BlinderPool(precomputed)
        blinders = [pool.take() for _ in plaintexts]  # offline: not timed
        start = time.perf_counter()
        for value, blinder in zip(plaintexts, blinders):
            dj.encrypt(public.public_key, value, precomputed=precomputed, blinder=blinder)
        pooled_encryption_seconds = (time.perf_counter() - start) / repetitions

    start = time.perf_counter()
    for first, second in zip(ciphertexts, ciphertexts[1:] + ciphertexts[:1]):
        dj.add_ciphertexts(public.public_key, first, second)
    addition_seconds = (time.perf_counter() - start) / repetitions

    start = time.perf_counter()
    partials = [
        partial_decrypt(public, shares[0], ciphertext, precomputed=precomputed)
        for ciphertext in ciphertexts
    ]
    partial_decryption_seconds = (time.perf_counter() - start) / repetitions

    all_partials = [
        [
            partial_decrypt(public, share, ciphertext, precomputed=precomputed)
            for share in shares[:threshold]
        ]
        for ciphertext in ciphertexts
    ]
    start = time.perf_counter()
    for partial_set in all_partials:
        combine_partial_decryptions(public, partial_set, multiexp=use_fastmath)
    combination_seconds = (time.perf_counter() - start) / repetitions
    del partials

    return CryptoCostProfile(
        key_bits=key_bits,
        degree=degree,
        keygen_seconds=keygen_seconds,
        encryption_seconds=encryption_seconds,
        addition_seconds=addition_seconds,
        partial_decryption_seconds=partial_decryption_seconds,
        combination_seconds=combination_seconds,
        ciphertext_bytes=wire_ciphertext_bytes(public.public_key),
        fastmath=fastmath,
        pooled_encryption_seconds=pooled_encryption_seconds,
    )


def sweep_crypto_costs(
    key_bits: int = 512,
    degree: int = 1,
    threshold: int = 3,
    n_shares: int = 5,
    repetitions: int = 5,
    modes: tuple[str, ...] = FASTMATH_CHOICES,
) -> dict[str, CryptoCostProfile]:
    """Measure the per-operation costs once per fastmath mode.

    The demo's cost screens show these side by side: the ``"off"`` column is
    the seed arithmetic every device can run, the ``"auto"`` column is what
    a device gains from the public fastmath accelerations (per-key caches,
    blinders precomputed in idle time, multi-exponentiation) — same
    integers, less time.  Each mode generates its own key, so the rows are
    independent measurements, not a shared-key best case.
    """
    profiles: dict[str, CryptoCostProfile] = {}
    for mode in modes:
        profiles[mode] = measure_crypto_costs(
            key_bits=key_bits, degree=degree, threshold=threshold,
            n_shares=n_shares, repetitions=repetitions, fastmath=mode,
        )
    return profiles


@dataclass(frozen=True)
class ProtocolWorkload:
    """Per-participant operation counts of one protocol run.

    The counts follow directly from the protocol structure (Section II.B):
    per iteration a participant encrypts its contribution (2k(T+1)
    ciphertexts: data and noise estimates), performs one homomorphic
    addition per estimate component per gossip exchange, asks the committee
    for threshold partial decryptions of k(T+1) components and combines them.

    With slot packing enabled (``slots > 1``), every per-cluster estimate
    travels as ``ceil((T+1) / slots)`` ciphertexts instead of ``T+1``, and
    every per-ciphertext charge — encryptions, homomorphic additions,
    partial decryptions, combinations, bytes — shrinks accordingly.

    ``amortized_encryptions`` marks a deployment that precomputes its
    encryption blinders in idle time: the cost model then charges the
    pooled hot-path cost per encryption instead of the fresh-exponentiation
    cost.
    """

    n_clusters: int
    series_length: int
    iterations: int
    gossip_cycles: int
    exchanges_per_cycle: int
    threshold: int
    slots: int = 1
    amortized_encryptions: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.n_clusters, "n_clusters")
        check_positive_int(self.series_length, "series_length")
        check_positive_int(self.iterations, "iterations")
        check_positive_int(self.gossip_cycles, "gossip_cycles")
        check_positive_int(self.exchanges_per_cycle, "exchanges_per_cycle")
        check_positive_int(self.threshold, "threshold")
        check_positive_int(self.slots, "slots")

    @property
    def components_per_estimate(self) -> int:
        """Logical components of one per-cluster estimate (series + count)."""
        return self.series_length + 1

    @property
    def ciphertexts_per_estimate(self) -> int:
        """Ciphertexts actually carried per estimate (packed when slots > 1)."""
        return -(-self.components_per_estimate // self.slots)

    @property
    def encryptions_per_iteration(self) -> int:
        """Fresh encryptions per participant per iteration (data + noise sides)."""
        return 2 * self.n_clusters * self.ciphertexts_per_estimate

    @property
    def additions_per_iteration(self) -> int:
        """Homomorphic additions per participant per iteration.

        Each gossip exchange averages both sides of the diptych (2k estimates
        of T+1 components, with an extra scalar multiplication counted as one
        addition-equivalent), plus the final noise addition.
        """
        per_exchange = 3 * self.n_clusters * self.ciphertexts_per_estimate
        exchanges = 2 * self.gossip_cycles * self.exchanges_per_cycle
        return per_exchange * exchanges + self.n_clusters * self.ciphertexts_per_estimate

    @property
    def partial_decryptions_per_iteration(self) -> int:
        """Partial decryptions computed *for* one participant per iteration."""
        return self.threshold * self.n_clusters * self.ciphertexts_per_estimate

    @property
    def combinations_per_iteration(self) -> int:
        """Share combinations per participant per iteration."""
        return self.n_clusters * self.ciphertexts_per_estimate

    @property
    def counts_per_iteration(self) -> dict[str, int]:
        """Per-iteration counts in the vocabulary :meth:`CryptoCostProfile.price`
        reads (that of :class:`~repro.crypto.backends.OperationCounter`)."""
        encryptions = self.encryptions_per_iteration
        return {
            "encryptions": encryptions,
            "pooled_encryptions": encryptions if self.amortized_encryptions else 0,
            "additions": self.additions_per_iteration,
            "partial_decryptions": self.partial_decryptions_per_iteration,
            "combinations": self.combinations_per_iteration,
        }

    @property
    def messages_per_iteration(self) -> int:
        """Messages sent per participant per iteration (gossip + decryption)."""
        gossip = 2 * self.gossip_cycles * self.exchanges_per_cycle
        decryption = 2 * self.threshold
        return gossip + decryption

    # ------------------------------------------------------------ byte accounting
    def modelled_bytes_per_iteration(self, ciphertext_bytes: int) -> int:
        """Bytes per participant per iteration under the historical size model.

        One gossip message carries both sides of the diptych (2k estimates),
        one decryption message carries the k combined estimates; every
        estimate is charged its raw ciphertext payload.
        """
        payload = ciphertext_bytes * self.n_clusters * self.ciphertexts_per_estimate
        gossip = 2 * payload * 2 * self.gossip_cycles * self.exchanges_per_cycle
        decryption = 2 * payload * self.threshold
        return gossip + decryption

    def wire_bytes_per_iteration(self, ciphertext_bytes: int) -> int:
        """Modelled bytes per iteration *including* wire-format overhead.

        Adds the frame envelope per message and the serialization header per
        estimate on top of :meth:`modelled_bytes_per_iteration`; this is the
        model-side prediction of what a wire-format run measures (runs
        report the exact figure in
        :attr:`~repro.core.result.CostSummary.bytes_sent`).
        """
        gossip_messages = 2 * self.gossip_cycles * self.exchanges_per_cycle
        decrypt_messages = 2 * self.threshold
        overhead = (
            (gossip_messages + decrypt_messages) * WIRE_FRAME_OVERHEAD_BYTES
            + gossip_messages * 2 * self.n_clusters * WIRE_ESTIMATE_OVERHEAD_BYTES
            + decrypt_messages * self.n_clusters * WIRE_ESTIMATE_OVERHEAD_BYTES
        )
        return self.modelled_bytes_per_iteration(ciphertext_bytes) + overhead

    def byte_accounting(self, ciphertext_bytes: int) -> "ByteAccounting":
        """Modelled-vs-wire byte totals for a whole run of this workload."""
        return ByteAccounting(
            bytes_modelled=float(
                self.iterations * self.modelled_bytes_per_iteration(ciphertext_bytes)
            ),
            bytes_measured=float(
                self.iterations * self.wire_bytes_per_iteration(ciphertext_bytes)
            ),
        )


@dataclass(frozen=True)
class CostEstimate:
    """Predicted per-participant cost of a run (compute seconds and bytes)."""

    encryption_seconds: float
    addition_seconds: float
    decryption_seconds: float
    total_compute_seconds: float
    bytes_sent: float
    messages_sent: float

    def as_dict(self) -> dict[str, float]:
        """Plain dictionary view (for reports)."""
        return {
            "encryption_seconds": self.encryption_seconds,
            "addition_seconds": self.addition_seconds,
            "decryption_seconds": self.decryption_seconds,
            "total_compute_seconds": self.total_compute_seconds,
            "bytes_sent": self.bytes_sent,
            "messages_sent": self.messages_sent,
        }


class CostModel:
    """Combine a measured cost profile with a protocol workload."""

    def __init__(self, profile: CryptoCostProfile) -> None:
        self.profile = profile

    def estimate(self, workload: ProtocolWorkload) -> CostEstimate:
        """Per-participant cost prediction for a whole run.

        The prediction is independent of the population size: that is the
        point of the gossip design — per-participant work depends on k, T,
        the number of gossip exchanges and the decryption threshold, not on
        how many devices participate overall.
        """
        iterations = workload.iterations
        online = self.profile.price({
            name: count * iterations
            for name, count in workload.counts_per_iteration.items()
        })["online"]
        encryption = online["encryptions"] + online["pooled_encryptions"]
        addition = online["additions"]
        decryption = online["partial_decryptions"] + online["combinations"]
        bytes_sent = iterations * workload.modelled_bytes_per_iteration(
            self.profile.ciphertext_bytes
        )
        messages = iterations * workload.messages_per_iteration
        return CostEstimate(
            encryption_seconds=encryption,
            addition_seconds=addition,
            decryption_seconds=decryption,
            total_compute_seconds=encryption + addition + decryption,
            bytes_sent=float(bytes_sent),
            messages_sent=float(messages),
        )

    def sweep_population(
        self, workload: ProtocolWorkload, populations: list[int]
    ) -> list[dict[str, float]]:
        """Cost rows for a list of population sizes.

        Per-participant costs are constant; the rows add the *aggregate*
        network volume, which is what grows linearly with the population and
        what the demo's cost screen contrasts with the per-device figures.
        """
        if not populations:
            raise AnalysisError("populations must not be empty")
        estimate = self.estimate(workload)
        rows = []
        for population in populations:
            check_positive_int(population, "population")
            row = {"n_participants": float(population)}
            row.update(estimate.as_dict())
            row["aggregate_bytes"] = estimate.bytes_sent * population
            row["aggregate_messages"] = estimate.messages_sent * population
            rows.append(row)
        return rows
