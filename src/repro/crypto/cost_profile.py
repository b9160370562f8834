"""The price list of the crypto work a run counts but does not time.

:meth:`CryptoCostProfile.price` is the one place a count meets a time;
:data:`REFERENCE_PROFILE` prices every run (Section III.B's "actual average
measures performed beforehand"), and
:func:`repro.analysis.costs.measure_crypto_costs` measures a new profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class CryptoCostProfile:
    """Measured average time (seconds) of each cryptographic operation.

    ``pooled_encryption_seconds`` is the hot-path cost of an encryption
    whose blinder is ready: one multiplication.  The blinder's
    exponentiation is ``offline`` work, which a device may precompute in
    idle time; the simulator makes each blinder when it is used, so the
    split is the model's.  It is 0.0 when the profile was measured with
    ``fastmath="off"``.  :meth:`price` uses it to charge precomputable and
    fresh exponentiations differently.
    """

    key_bits: int
    degree: int
    keygen_seconds: float
    encryption_seconds: float
    addition_seconds: float
    partial_decryption_seconds: float
    combination_seconds: float
    ciphertext_bytes: int
    fastmath: str = "auto"
    pooled_encryption_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain dictionary view (for reports)."""
        return {
            "key_bits": float(self.key_bits),
            "degree": float(self.degree),
            "keygen_seconds": self.keygen_seconds,
            "encryption_seconds": self.encryption_seconds,
            "addition_seconds": self.addition_seconds,
            "partial_decryption_seconds": self.partial_decryption_seconds,
            "combination_seconds": self.combination_seconds,
            "ciphertext_bytes": float(self.ciphertext_bytes),
            "pooled_encryption_seconds": self.pooled_encryption_seconds,
        }

    def price(self, counts: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
        """Seconds every primitive in *counts* costs, grouped by phase.

        *counts* uses the :class:`~repro.crypto.backends.OperationCounter`
        vocabulary (``pooled_encryptions`` is the subset of ``encryptions``
        blinded by a :class:`~repro.crypto.fastmath.BlinderPool`; absent keys
        count zero), with scalar values or numpy arrays of one shape
        (per-node counts).  A pooled encryption or a rerandomization is one
        multiplication ``online`` and one blinder exponentiation
        ``offline``: the input-independent phase, which a device may
        precompute in idle time; a profile measured without ready blinders
        has no offline phase and pays the exponentiation on the hot path.
        Offline, online and total seconds are sums of the returned values;
        nothing else in the package multiplies a count by a cost.
        """
        pooled = counts.get("pooled_encryptions", 0)
        rerandomized = counts.get("rerandomizations", 0)
        has_pool = self.pooled_encryption_seconds > 0
        draw_seconds = (
            self.pooled_encryption_seconds if has_pool else self.encryption_seconds
        )
        return {
            "offline": {
                "blinder_exponentiations": (pooled + rerandomized)
                * (self.encryption_seconds if has_pool else 0.0),
            },
            "online": {
                "encryptions": (counts.get("encryptions", 0) - pooled)
                * self.encryption_seconds,
                "pooled_encryptions": pooled * draw_seconds,
                "rerandomizations": rerandomized * draw_seconds,
                "additions": counts.get("additions", 0) * self.addition_seconds,
                "partial_decryptions": counts.get("partial_decryptions", 0)
                * self.partial_decryption_seconds,
                "combinations": counts.get("combinations", 0)
                * self.combination_seconds,
            },
        }


#: The price list every run's crypto seconds are computed from: the output of
#: ``measure_crypto_costs(key_bits=2048, degree=1, threshold=3, n_shares=5,
#: repetitions=5, fastmath="auto")`` (what ``repro crypto-bench --key-bits 2048
#: --repetitions 5`` measures), rounded to four digits.  Once, on
#: 2026-10-04, on an Intel Xeon @ 2.10 GHz (2 vCPUs), CPython 3.11.7, without
#: gmpy2 (pure ``int`` arithmetic).  A constant rather than a file, so a run
#: prices its counts the same wherever it is started from; to compare another
#: machine, re-run the command and price with its profile.
REFERENCE_PROFILE = CryptoCostProfile(
    key_bits=2048,
    degree=1,
    keygen_seconds=0.9690,
    encryption_seconds=8.773e-2,
    addition_seconds=5.517e-5,
    partial_decryption_seconds=1.750e-1,
    combination_seconds=1.911e-3,
    ciphertext_bytes=512,
    pooled_encryption_seconds=4.896e-5,
)
