"""Reference implementations the tests check the program against.

No program of the repository runs these: each is the textbook or
one-at-a-time form of something the run path does faster or in bulk, kept
here so a test can compare the two.  One that works on an object of the
program takes it as its first argument.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto import damgard_jurik as dj
from repro.crypto.backends import CipherBackend
from repro.crypto.fastmath import PrecomputedKey
from repro.crypto.threshold import (
    KeyShare,
    ThresholdPublicKey,
    combine_partial_decryptions,
    partial_decrypt,
)
from repro.crypto.wire import MAX_NAME_BYTES, WireReader, _unfit_ciphertext
from repro.exceptions import WireFormatError
from repro.gossip.encrypted_sum import EncryptedEstimate
from repro.privacy.noise_shares import NoiseShareSpec, draw_noise_share


# ------------------------------------------------------------------ Damgård–Jurik
def multiply_plaintext(public_key: dj.DamgardJurikPublicKey, ciphertext: int, factor: int,
                       precomputed: PrecomputedKey | None = None) -> int:
    """Homomorphically multiply an encrypted value by a public integer."""
    factor = factor % public_key.plaintext_modulus
    if precomputed is not None:
        return precomputed.crt_pow(ciphertext, factor)
    return pow(ciphertext, factor, public_key.ciphertext_modulus)


def threshold_decrypt(threshold_public: ThresholdPublicKey, shares: Sequence[KeyShare],
                      ciphertext: int) -> int:
    """Partially decrypt with *shares* then combine, in one process."""
    partials = [partial_decrypt(threshold_public, share, ciphertext) for share in shares]
    return combine_partial_decryptions(threshold_public, partials)


# ------------------------------------------------------------------ backends
def decode_estimate(backend: CipherBackend, estimate: EncryptedEstimate,
                    share_indices: Sequence[int]) -> np.ndarray:
    """Collaboratively decrypt an estimate and undo the public exponent."""
    decoded = backend.decrypt_with_shares(estimate.vector, share_indices)
    return decoded / float(1 << estimate.halvings)


# ------------------------------------------------------------------ wire
def write_ciphertext(out: bytearray, value: int, width: int) -> None:
    """Append one ciphertext as exactly *width* big-endian bytes."""
    value = int(value)
    try:
        out.extend(value.to_bytes(width, "big"))
    except OverflowError as exc:
        raise _unfit_ciphertext(value, width) from exc


def read_string(reader: WireReader) -> str:
    """Consume a length-prefixed UTF-8 string."""
    length = reader.read_varint(limit=MAX_NAME_BYTES)
    raw = reader.read_bytes(length)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError("invalid UTF-8 in wire string") from exc


def read_ciphertext(reader: WireReader, width: int) -> int:
    """Consume one fixed-width big-endian ciphertext."""
    return int.from_bytes(reader.read_bytes(width), "big")


# ------------------------------------------------------------------ noise shares
def sum_of_shares(spec: NoiseShareSpec, rng: np.random.Generator) -> np.ndarray:
    """Sum of ``spec.n_shares`` independent noise-share vectors:
    distributionally Laplace(0, scale) coordinates."""
    total = np.zeros(spec.vector_length)
    for _ in range(spec.n_shares):
        total += draw_noise_share(spec, rng)
    return total


def share_variance(spec: NoiseShareSpec) -> float:
    """Variance of one noise-share coordinate: Var(G1 - G2) = 2 b² / n."""
    return 2.0 * spec.scale**2 / spec.n_shares


def reconstructed_variance(spec: NoiseShareSpec) -> float:
    """Variance of the summed noise coordinate: 2 b², the Laplace(0, b) variance."""
    return 2.0 * spec.scale**2


# ------------------------------------------------------------------ budgets
def schedule(strategy) -> list[float]:
    """The per-iteration budgets a run spends when every iteration runs (for
    the adaptive strategy: when no iteration signals convergence)."""
    remaining = strategy.total_epsilon
    planned = []
    for iteration in range(strategy.max_iterations):
        epsilon = strategy.epsilon_for_iteration(iteration, remaining)
        planned.append(epsilon)
        remaining -= epsilon
    return planned
