"""Gossip averaging over additively-homomorphic encrypted vectors.

This is the building block the paper highlights: "Chiaroscuro solves it by
proposing a gossip sum algorithm working on additively-homomorphic encrypted
data" (Section II.B).  The difficulty is that pairwise averaging requires a
division by two, which an additive homomorphism cannot perform.  The library
solves it with *public fixed-point exponents*:

* every encrypted estimate carries a public integer ``halvings`` (h); the
  real value it represents is ``decode(ciphertexts) / 2^h``;
* averaging two estimates with exponents h_a and h_b first lifts both to the
  common exponent h = max(h_a, h_b) by homomorphically multiplying the lower
  one by 2^(h - h_x) (a public power of two), then homomorphically adds them
  and increments the exponent to h + 1 — which *is* the division by two, done
  on the public exponent instead of the ciphertext;
* after decryption, the plaintext is divided by 2^h to recover the value.

The plaintext magnitude grows by at most one bit per halving, so the key only
needs ``log2(scale * value_bound) + total_halvings`` bits of headroom; the
:func:`required_headroom_bits` helper lets callers check this against the
configured key size before running.

With a slot-packed backend the same reasoning applies *per slot*: every lift
multiplies each slot (and the public weight) by the same power of two, every
addition sums slots position-wise, so the halving budget must fit one slot's
headroom instead of the whole plaintext.  :func:`check_headroom` asks the
backend for its per-coordinate capacity
(:attr:`~repro.crypto.backends.CipherBackend.plaintext_capacity_bits`), which
is the slot width when packing is enabled and the plaintext width otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import check_non_negative_int
from ..crypto.backends import CipherBackend, EncryptedVector
from ..crypto.wire import wire_ciphertext_bytes
from ..exceptions import GossipError


@dataclass(frozen=True)
class EncryptedEstimate:
    """An encrypted gossip estimate: ciphertext vector + public exponent.

    The represented real vector is ``decode(vector) / 2^halvings``.
    """

    vector: EncryptedVector
    halvings: int = 0

    def __post_init__(self) -> None:
        check_non_negative_int(self.halvings, "halvings")

    def __len__(self) -> int:
        return self.vector.length  # type: ignore[return-value]


def fresh_estimate(backend: CipherBackend, values: Sequence[float] | np.ndarray,
                   ) -> EncryptedEstimate:
    """Encrypt a real-valued vector as an estimate with exponent zero."""
    return EncryptedEstimate(vector=backend.encrypt_vector(values), halvings=0)


def _lift_and_sum(backend: CipherBackend, first: EncryptedEstimate,
                  second: EncryptedEstimate) -> tuple[int, "EncryptedVector"]:
    """Common exponent and the homomorphic sum of both estimates lifted to it.

    The lift-to-common-exponent-then-add sequence is a single homomorphic
    linear combination with power-of-two factors, which the backend may
    evaluate jointly (Straus multi-exponentiation shares one squaring chain
    across both ciphertexts) while charging exactly the operations the
    historical multiply-then-add path charged.
    """
    if len(first) != len(second):
        raise GossipError(f"estimate lengths differ: {len(first)} vs {len(second)}")
    common = max(first.halvings, second.halvings)
    summed = backend.linear_combination(
        [first.vector, second.vector],
        [1 << (common - first.halvings), 1 << (common - second.halvings)],
    )
    return common, summed


def average_estimates(backend: CipherBackend, first: EncryptedEstimate,
                      second: EncryptedEstimate) -> EncryptedEstimate:
    """Homomorphic pairwise average of two estimates.

    The result represents (value(first) + value(second)) / 2.
    """
    common, summed = _lift_and_sum(backend, first, second)
    return EncryptedEstimate(vector=summed, halvings=common + 1)


def add_estimates(backend: CipherBackend, first: EncryptedEstimate,
                  second: EncryptedEstimate) -> EncryptedEstimate:
    """Homomorphic addition of the values of two estimates (no halving).

    Used by the protocol's "local addition of the encrypted noises to the
    encrypted means" step.
    """
    common, summed = _lift_and_sum(backend, first, second)
    return EncryptedEstimate(vector=summed, halvings=common)


def rerandomize_estimate(backend: CipherBackend,
                         estimate: EncryptedEstimate) -> EncryptedEstimate:
    """Refresh the ciphertext randomness of an estimate (same value, exponent).

    With the blinder pool this costs one bigint multiplication per
    ciphertext, making per-hop re-randomisation of forwarded estimates
    affordable for unlinkability-sensitive deployments.  A backend with
    nothing to refresh (the plain one) still counts the refresh, but hands
    back the same vector, so the same *estimate* is returned, not a copy.
    """
    vector = backend.rerandomize(estimate.vector)
    if vector is estimate.vector:
        return estimate
    return EncryptedEstimate(vector=vector, halvings=estimate.halvings)


def decode_estimate(backend: CipherBackend, estimate: EncryptedEstimate,
                    share_indices: Sequence[int]) -> np.ndarray:
    """Collaboratively decrypt an estimate and undo the public exponent."""
    decoded = backend.decrypt_with_shares(estimate.vector, share_indices)
    return decoded / float(1 << estimate.halvings)


def estimate_payload_bytes(backend: CipherBackend, estimate: EncryptedEstimate) -> int:
    """Serialised size of an estimate (ciphertexts plus the public exponent).

    Charges for the ciphertexts actually carried: with a packed backend that
    is ``ceil(length / slots)`` ciphertexts, which is where the bandwidth
    saving of packing shows up in the cost accounting.
    """
    return wire_ciphertext_bytes(backend) * estimate.vector.n_ciphertexts + 8


def required_headroom_bits(value_bound: float, scale: int, total_halvings: int) -> int:
    """Plaintext bits needed to run *total_halvings* averaging steps safely."""
    if value_bound <= 0 or scale <= 0:
        raise GossipError("value_bound and scale must be positive")
    base_bits = int(np.ceil(np.log2(value_bound * scale + 1)))
    return base_bits + total_halvings + 2  # sign bit + rounding margin


def check_headroom(backend: CipherBackend, value_bound: float, total_halvings: int) -> None:
    """Raise :class:`GossipError` when the backend's plaintext space is too small.

    For packed backends the capacity is one slot's width, so the check also
    guards against a packing layout whose per-slot headroom cannot absorb the
    configured number of gossip halvings.
    """
    needed = required_headroom_bits(value_bound, backend.codec.scale, total_halvings)
    available = backend.plaintext_capacity_bits
    if needed >= available:
        raise GossipError(
            f"plaintext space too small for encrypted gossip: need {needed} bits, "
            f"have {available}; use a larger key, fewer gossip cycles, or a wider "
            "packing layout"
        )
