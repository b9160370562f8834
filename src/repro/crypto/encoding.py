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

    # ------------------------------------------------------------------ vectors
    def fixed_point_rows(self, rows: Sequence[Sequence[float]] | np.ndarray,
                         ) -> list[list[int]]:
        """Vectorised ``round(value * scale)`` of every row of a 2-D array,
        with the overflow check.

        Returns *signed* fixed-point integers (no modular reduction), one
        list per row; both codecs build on this so the quantisation step is
        identical whether packing is enabled or not.  The whole array is
        scaled and rounded in one pass; the rows are then checked in order,
        so the error names the first row holding a non-finite value or one
        of at least half the modulus.
        """
        array = np.asarray(rows, dtype=float)
        if array.ndim != 2:
            raise ValidationError(
                f"expected a 2-D array of rows, got {array.ndim} dimension(s)")
        scaled = array * float(self.scale)
        in_range = np.abs(scaled) < 2**62  # False for non-finite values too
        # np.rint rounds half to even, exactly like Python's round() on floats.
        fixed_rows = np.rint(np.where(in_range, scaled, 0.0)).astype(np.int64).tolist()
        half = self.half_modulus
        for index, row_in_range in enumerate(in_range.all(axis=1).tolist()):
            if not row_in_range:
                row = array[index]
                if not np.all(np.isfinite(row)):
                    bad = row[~np.isfinite(row)][0]
                    raise ValidationError(f"cannot encode non-finite value {bad!r}")
                # Beyond int64: astronomically large scales only.
                fixed_rows[index] = [int(round(float(value))) for value in scaled[index]]
            worst = max(map(abs, fixed_rows[index]), default=0)
            if worst >= half:
                raise EncodingOverflowError(
                    f"value does not fit: |{worst}| >= modulus/2 ({half})"
                )
        return fixed_rows

    def encode_rows(self, rows: Sequence[Sequence[float]] | np.ndarray,
                    ) -> list[list[int]]:
        """Encode every component of every row of a 2-D array."""
        modulus = self.modulus
        return [[fixed if fixed >= 0 else fixed + modulus for fixed in row]
                for row in self.fixed_point_rows(rows)]

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
    def pack_fixed(self, fixed: Sequence[int]) -> list[int]:
        """Offset-encode signed fixed-point integers and pack them into plaintexts."""
        offset = self.offset
        limit = offset - 1
        if fixed and (max(fixed) > limit or min(fixed) < -limit):
            value = next(value for value in fixed if abs(value) > limit)
            raise EncodingOverflowError(
                f"fixed-point value {value} does not fit one packed slot "
                f"(|value| > {limit}); lower the scale or widen the slots"
            )
        slot_bits = self.slot_bits
        packed: list[int] = []
        for start in range(0, len(fixed), self.slots):
            plaintext = 0
            # Slot 0 is the least significant: fold from the last slot down.
            for value in reversed(fixed[start:start + self.slots]):
                plaintext = (plaintext << slot_bits) | (value + offset)
            packed.append(plaintext)
        return packed

    def pack_rows(self, rows: Sequence[Sequence[float]] | np.ndarray,
                  ) -> list[list[int]]:
        """Encode every row of a 2-D real-valued array into packed plaintexts
        (weight 1), the rows quantised in one pass."""
        return [self.pack_fixed(fixed)
                for fixed in self._scalar_codec.fixed_point_rows(rows)]

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
