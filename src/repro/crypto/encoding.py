"""Fixed-point encoding of real-valued time-series into the plaintext space.

Homomorphic schemes operate on integers modulo n^s while time-series points
are real numbers.  Chiaroscuro therefore encodes every value as a fixed-point
integer (``round(value * scale)``) before encryption and decodes after
decryption.  Because the protocol only ever *adds* encrypted values (gossip
sums of per-cluster sums, counts and noise shares), the scale is preserved by
every homomorphic operation and decoding is exact up to the quantisation
step.

Two codecs live here:

* :class:`FixedPointCodec` — one value per plaintext.  Negative values are
  mapped to the upper half of the plaintext space (two's-complement style),
  so sums of positive and negative contributions decode correctly as long as
  the true magnitude stays below ``modulus // (2 * headroom)``.
* :class:`PackedCodec` — many values per plaintext (slot packing).  A
  ``modulus_bits``-bit plaintext is divided into
  ``slots = (modulus_bits - headroom_bits) // slot_bits`` independent slots,
  each wide enough to hold one offset-encoded fixed-point value plus the
  headroom the gossip averaging needs (one bit per halving).  Packing cuts
  the number of bigint encryptions and homomorphic operations per vector by
  roughly the slot count, which is the dominant cost of the protocol.

Negative values cannot use two's-complement inside a slot (a borrow would
leak into the neighbouring slot), so every slot value is *offset encoded*:
``slot = round(value * scale) + offset`` with ``offset = 2^(value_bits-1)``,
keeping every slot non-negative.  A sum of W offset-encoded contributions
carries ``W * offset`` of accumulated offset; the backends track that public
integer W (the *weight*) on every ciphertext so the decoder can subtract it
exactly.  The gossip averaging keeps ``W = 2^halvings`` automatically (every
lift multiplies the weight by the same power of two it applies to the
ciphertext), so the correction is exact, never statistical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .._validation import check_positive_int
from ..exceptions import EncodingOverflowError, ValidationError

#: Default bits reserved per slot for homomorphic weight growth (gossip
#: halvings plus the noise-addition doubling plus safety margin).  Estimate
#: halvings follow a max-plus process across pairwise merges — both parties
#: adopt the same averaged estimate, so depth compounds — and empirically
#: reach about six per gossip cycle, not the naive two.  The protocol layers
#: pass an exact budget; this default covers standalone averaging runs of up
#: to ~10 cycles with margin.
DEFAULT_WEIGHT_BITS = 80

#: Default bits of top-of-plaintext headroom left unused by the packed
#: layout, guaranteeing every packed value stays strictly below the plaintext
#: modulus (which is generally not a power of two).
DEFAULT_PACK_HEADROOM_BITS = 2


@dataclass(frozen=True)
class FixedPointCodec:
    """Deterministic fixed-point codec for a given plaintext modulus.

    Attributes
    ----------
    modulus:
        Plaintext modulus n^s of the encryption scheme (or any power of ten
        for the plain backend).
    scale:
        Fixed-point scale; ``value`` is encoded as ``round(value * scale)``.
    """

    modulus: int
    scale: int = 10**6

    def __post_init__(self) -> None:
        check_positive_int(self.modulus, "modulus")
        check_positive_int(self.scale, "scale")
        if self.modulus <= 4 * self.scale:
            raise ValidationError(
                "plaintext modulus is too small for the requested scale "
                f"(modulus={self.modulus}, scale={self.scale})"
            )

    @property
    def half_modulus(self) -> int:
        """Boundary between the positive and negative halves of the space."""
        return self.modulus // 2

    # ------------------------------------------------------------------ scalars
    def encode(self, value: float) -> int:
        """Encode one real number into the plaintext space."""
        if not np.isfinite(value):
            raise ValidationError(f"cannot encode non-finite value {value!r}")
        fixed = int(round(float(value) * self.scale))
        if abs(fixed) >= self.half_modulus:
            raise EncodingOverflowError(
                f"value {value} does not fit: |{fixed}| >= modulus/2 ({self.half_modulus})"
            )
        return fixed % self.modulus

    def decode(self, encoded: int) -> float:
        """Decode one plaintext-space integer back into a real number."""
        encoded = int(encoded) % self.modulus
        if encoded >= self.half_modulus:
            encoded -= self.modulus
        return encoded / self.scale

    def encode_integer(self, value: int) -> int:
        """Encode an exact integer (e.g. a cluster count) without scaling."""
        if abs(int(value)) >= self.half_modulus:
            raise EncodingOverflowError(f"integer {value} does not fit in the plaintext space")
        return int(value) % self.modulus

    def decode_integer(self, encoded: int) -> int:
        """Decode an exact (unscaled) integer."""
        encoded = int(encoded) % self.modulus
        if encoded >= self.half_modulus:
            encoded -= self.modulus
        return encoded

    # ------------------------------------------------------------------ vectors
    def fixed_point_vector(self, values: Sequence[float] | np.ndarray) -> list[int]:
        """Vectorised ``round(value * scale)`` with the overflow check.

        Returns *signed* fixed-point integers (no modular reduction); both
        codecs build on this so the quantisation step is identical whether
        packing is enabled or not.
        """
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return []
        if not np.all(np.isfinite(array)):
            bad = array[~np.isfinite(array)][0]
            raise ValidationError(f"cannot encode non-finite value {bad!r}")
        scaled = array * float(self.scale)
        # np.rint rounds half to even, exactly like Python's round() on floats.
        if np.all(np.abs(scaled) < 2**62):
            fixed = np.rint(scaled).astype(np.int64).tolist()
        else:  # pragma: no cover - astronomically large scales only
            fixed = [int(round(float(value))) for value in scaled]
        worst = max(abs(value) for value in fixed)
        if worst >= self.half_modulus:
            raise EncodingOverflowError(
                f"value does not fit: |{worst}| >= modulus/2 ({self.half_modulus})"
            )
        return fixed

    def encode_vector(self, values: Sequence[float] | np.ndarray) -> list[int]:
        """Encode every component of a vector."""
        modulus = self.modulus
        return [fixed if fixed >= 0 else fixed + modulus
                for fixed in self.fixed_point_vector(values)]

    def decode_vector(self, encoded: Sequence[int]) -> np.ndarray:
        """Decode a vector of plaintext-space integers."""
        modulus = self.modulus
        half = self.half_modulus
        signed = [value if (value := int(raw) % modulus) < half else value - modulus
                  for raw in encoded]
        # int / int true division is correctly rounded at any magnitude,
        # unlike converting the (possibly huge) numerator to float first.
        return np.array([value / self.scale for value in signed], dtype=float)


@dataclass(frozen=True)
class PackedCodec:
    """Slot-packed fixed-point codec: many coordinates per plaintext.

    Attributes
    ----------
    modulus:
        Plaintext modulus n^s of the encryption scheme.
    scale:
        Fixed-point scale shared with the scalar codec (``value`` is encoded
        as ``round(value * scale)``).
    value_bits:
        Bits holding one offset-encoded fresh value; the per-slot offset is
        ``2^(value_bits - 1)``, so a fresh value's fixed-point magnitude must
        stay strictly below the offset.
    slot_bits:
        Total width of one slot.  ``slot_bits - value_bits`` bits of per-slot
        headroom absorb homomorphic weight growth: a ciphertext of weight W
        (W fresh contributions folded in, each lift/add updating W publicly)
        is decodable as long as ``W <= max_weight = 2^(slot_bits -
        value_bits)``.
    slots:
        Number of slots per plaintext.
    """

    modulus: int
    scale: int
    value_bits: int
    slot_bits: int
    slots: int

    def __post_init__(self) -> None:
        check_positive_int(self.modulus, "modulus")
        check_positive_int(self.scale, "scale")
        check_positive_int(self.slots, "slots")
        if self.value_bits < 2:
            raise ValidationError(f"value_bits must be >= 2, got {self.value_bits}")
        if self.slot_bits <= self.value_bits:
            raise ValidationError(
                f"slot_bits ({self.slot_bits}) must exceed value_bits ({self.value_bits})"
            )
        if self.slots * self.slot_bits > self.modulus.bit_length() - 1:
            raise ValidationError(
                f"{self.slots} slots of {self.slot_bits} bits do not fit a "
                f"{self.modulus.bit_length()}-bit plaintext modulus"
            )

    # ------------------------------------------------------------------ planning
    @classmethod
    def plan(
        cls,
        modulus: int,
        scale: int,
        value_bound: float = 1.0,
        weight_bits: int = DEFAULT_WEIGHT_BITS,
        slots: int | None = None,
        headroom_bits: int = DEFAULT_PACK_HEADROOM_BITS,
    ) -> "PackedCodec | None":
        """Lay out the widest packing that the plaintext space supports.

        Parameters
        ----------
        modulus, scale:
            Plaintext modulus and fixed-point scale of the backend.
        value_bound:
            Largest absolute value a *fresh* (weight-1) slot must hold;
            protocol callers inflate it to cover the noise-share tails.
        weight_bits:
            Per-slot headroom in bits: the largest supported homomorphic
            weight is ``2^weight_bits`` (one bit per gossip halving, plus the
            noise-addition doubling and margin).
        slots:
            Optional cap on the slot count (the ``crypto.packing = <slots>``
            configuration); the layout never exceeds what fits.
        headroom_bits:
            Unused bits left at the top of the plaintext.

        Returns ``None`` when fewer than two slots fit — packing would not
        save anything, so callers fall back to the scalar codec.
        """
        check_positive_int(modulus, "modulus")
        check_positive_int(scale, "scale")
        check_positive_int(weight_bits, "weight_bits")
        if value_bound <= 0:
            raise ValidationError(f"value_bound must be > 0, got {value_bound}")
        max_fixed = max(1, int(round(value_bound * scale)))
        value_bits = max_fixed.bit_length() + 1
        slot_bits = value_bits + weight_bits
        capacity = modulus.bit_length() - headroom_bits
        max_slots = capacity // slot_bits
        if max_slots < 2:
            return None
        if slots is not None:
            check_positive_int(slots, "slots")
            max_slots = min(max_slots, slots)
            if max_slots < 2:
                return None
        return cls(modulus=modulus, scale=scale, value_bits=value_bits,
                   slot_bits=slot_bits, slots=max_slots)

    # ------------------------------------------------------------------ properties
    @property
    def offset(self) -> int:
        """Per-slot offset keeping offset-encoded slot values non-negative."""
        return 1 << (self.value_bits - 1)

    @property
    def max_weight(self) -> int:
        """Largest homomorphic weight a slot can absorb without overflowing."""
        return 1 << (self.slot_bits - self.value_bits)

    @property
    def slot_mask(self) -> int:
        """Bit mask extracting one slot."""
        return (1 << self.slot_bits) - 1

    @cached_property
    def _scalar_codec(self) -> FixedPointCodec:
        """Scalar codec reused for the quantisation step (hot path)."""
        return FixedPointCodec(modulus=self.modulus, scale=self.scale)

    def n_ciphertexts(self, length: int) -> int:
        """Number of packed plaintexts needed for *length* coordinates."""
        if length < 0:
            raise ValidationError(f"length must be >= 0, got {length}")
        return -(-length // self.slots)

    # ------------------------------------------------------------------ weights
    def check_weight(self, weight: int) -> None:
        """Raise :class:`EncodingOverflowError` when *weight* exceeds the headroom."""
        if weight > self.max_weight:
            raise EncodingOverflowError(
                f"homomorphic weight {weight} exceeds the packed headroom "
                f"(max {self.max_weight}); use fewer gossip halvings, a wider "
                f"slot layout, or packing 'off'"
            )

    # ------------------------------------------------------------------ packing
    def _pack_fixed(self, fixed: Sequence[int]) -> list[int]:
        """Offset-encode signed fixed-point integers and pack them into plaintexts."""
        offset = self.offset
        limit = offset - 1
        packed: list[int] = []
        for start in range(0, len(fixed), self.slots):
            plaintext = 0
            for position, value in enumerate(fixed[start:start + self.slots]):
                if abs(value) > limit:
                    raise EncodingOverflowError(
                        f"fixed-point value {value} does not fit one packed slot "
                        f"(|value| > {limit}); lower the scale or widen the slots"
                    )
                plaintext |= (value + offset) << (position * self.slot_bits)
            packed.append(plaintext)
        return packed

    def pack_vector(self, values: Sequence[float] | np.ndarray) -> list[int]:
        """Encode a real-valued vector into packed plaintexts (weight 1)."""
        return self._pack_fixed(self._scalar_codec.fixed_point_vector(values))

    def pack_integer_vector(self, values: Sequence[int]) -> list[int]:
        """Encode exact integers (e.g. cluster counts) into packed plaintexts."""
        return self._pack_fixed([int(value) for value in values])

    def unpack_vector(
        self, packed: Sequence[int], length: int, weight: int = 1,
        integer: bool = False,
    ) -> np.ndarray:
        """Decode packed plaintexts back into *length* real coordinates.

        *weight* is the ciphertext's homomorphic weight: the decoder subtracts
        ``weight * offset`` of accumulated offset from every slot, which is
        exact because every homomorphic operation updates the weight publicly.
        """
        check_positive_int(weight, "weight")
        self.check_weight(weight)
        expected = self.n_ciphertexts(length)
        if len(packed) != expected:
            raise ValidationError(
                f"expected {expected} packed plaintexts for {length} coordinates, "
                f"got {len(packed)}"
            )
        base = self.offset * weight
        mask = self.slot_mask
        decoded = np.empty(length, dtype=float)
        index = 0
        for plaintext in packed:
            plaintext = int(plaintext)
            for position in range(self.slots):
                if index >= length:
                    break
                signed = ((plaintext >> (position * self.slot_bits)) & mask) - base
                decoded[index] = float(signed) if integer else signed / self.scale
                index += 1
        return decoded
