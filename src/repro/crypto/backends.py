"""Pluggable cipher backends used by the Chiaroscuro computation step.

The demonstration (Section III.B of the paper) runs the protocol in two
modes: with real homomorphic operations, or with homomorphic operations
*disabled* — "the distributed algorithms are not changed whether homomorphic
operations are enabled or not" — while their cost is accounted for from
measurements.  This module reproduces exactly that design:

* :class:`DamgardJurikBackend` performs real Damgård–Jurik threshold
  encryption (any degree, any key size);
* :class:`PlainBackend` carries the encoded integers in clear and treats the
  "partial decryptions" as pass-through tokens, while counting the same
  operations so that the cost model of :mod:`repro.analysis.costs` can charge
  realistic times and bandwidth.

Both expose the same :class:`CipherBackend` interface, so the protocol code
is byte-for-byte identical under either backend.

The base class owns the whole encode→encrypt→operate→decrypt→decode
pipeline as template methods; concrete backends only provide the primitive
payload operations (encrypt a list of plaintexts, add two payloads, …).
This is what makes **slot packing** a backend-local concern: when packing is
enabled (see :class:`~repro.crypto.encoding.PackedCodec`), a d-coordinate
vector travels as ``ceil(d / slots)`` ciphertexts instead of d, every
homomorphic operation touches that many bigints, and the operation counters
and payload sizes shrink accordingly — while the protocol layers keep
handling the same opaque :class:`EncryptedVector`.

Every ciphertext carries a public integer *weight*: the number of fresh
(weight-1) encryptions folded into it, with additions summing weights and
plaintext multiplications scaling them.  The packed decoder needs the weight
to subtract the accumulated per-slot offsets exactly; unpacked payloads
ignore it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import CryptoError, ThresholdError, ValidationError
from . import damgard_jurik as dj
from .encoding import DEFAULT_WEIGHT_BITS, FixedPointCodec, PackedCodec
from .fastmath import BlinderPool, PrecomputedKey, multi_pow
from .threshold import (
    KeyShare,
    PartialDecryption,
    ThresholdPublicKey,
    combine_partial_decryptions,
    generate_threshold_keypair,
    partial_decrypt,
)

#: Packing knob values accepted everywhere (configuration, CLI, factories):
#: ``"off"`` disables packing, ``"auto"`` packs as many slots as the
#: plaintext space supports, an integer caps the slot count.
PACKING_CHOICES = ("auto", "off")


def normalize_packing(packing: int | str) -> int | str:
    """Validate and canonicalise a ``packing`` knob value.

    Returns ``"off"``, ``"auto"`` or a positive slot count.  Accepts integers
    and numeric strings so the CLI can pass its argument through verbatim.
    """
    if isinstance(packing, bool):
        raise ValidationError(f"invalid packing option {packing!r}")
    if isinstance(packing, int):
        if packing < 1:
            raise ValidationError(f"packing slot count must be >= 1, got {packing}")
        return packing
    if isinstance(packing, str):
        if packing in PACKING_CHOICES:
            return packing
        try:
            return normalize_packing(int(packing))
        except (TypeError, ValueError):
            pass
    raise ValidationError(
        f"invalid packing option {packing!r}: expected 'auto', 'off' or a slot count"
    )


@dataclass
class OperationCounter:
    """Counts of cryptographic operations, used by the cost model.

    Counts are per *ciphertext*, not per logical coordinate: with packing
    enabled they genuinely shrink by the slot count, which is exactly what
    the cost model should charge for.

    ``pooled_encryptions`` counts the subset of ``encryptions`` whose
    blinder came from a :class:`~repro.crypto.fastmath.BlinderPool`, i.e.
    could have been precomputed in idle time (one multiplication on the hot
    path instead of one exponentiation), so the cost model can charge
    precomputable and fresh exponentiations differently;
    ``rerandomizations`` counts ciphertext randomness refreshes.
    """

    encryptions: int = 0
    additions: int = 0
    partial_decryptions: int = 0
    combinations: int = 0
    pooled_encryptions: int = 0
    rerandomizations: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain dictionary view (for logs and reports)."""
        return {
            "encryptions": self.encryptions,
            "additions": self.additions,
            "partial_decryptions": self.partial_decryptions,
            "combinations": self.combinations,
            "pooled_encryptions": self.pooled_encryptions,
            "rerandomizations": self.rerandomizations,
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.encryptions = 0
        self.additions = 0
        self.partial_decryptions = 0
        self.combinations = 0
        self.pooled_encryptions = 0
        self.rerandomizations = 0


def _settle_length(vector: "EncryptedVector | PartialVectorDecryption") -> None:
    """Default a vector's logical length to its payload size, or check it.

    ``len()`` returns the stored length as is, so anything but a
    non-negative ``int`` (a ``bool`` included) is refused here, where the
    vector is built, rather than wherever it is first measured.
    """
    length = vector.length
    if length is None:
        object.__setattr__(vector, "length", len(vector.payload))
    elif type(length) is not int or length < 0:
        raise CryptoError(f"vector length must be an int >= 0, got {length!r}")


@dataclass(frozen=True)
class EncryptedVector:
    """An opaque encrypted vector owned by the backend that produced it.

    Without packing the payload holds one ciphertext per coordinate; with
    packing it holds ``ceil(length / slots)`` packed ciphertexts.  Protocol
    code never inspects the payload; it only passes vectors back to the
    backend that produced them.

    ``weight`` is the public homomorphic weight (fresh encryptions folded
    in); the packed decoder uses it to subtract the accumulated per-slot
    offsets.  ``len(vector)`` is always the *logical* coordinate count.
    """

    payload: tuple[int, ...]
    backend_name: str
    length: int | None = None
    packed: bool = False
    weight: int = 1

    def __post_init__(self) -> None:
        _settle_length(self)

    @property
    def n_ciphertexts(self) -> int:
        """Number of ciphertexts actually carried (what bandwidth costs)."""
        return len(self.payload)

    def __len__(self) -> int:
        return self.length  # type: ignore[return-value]


@dataclass(frozen=True)
class PartialVectorDecryption:
    """The partial decryption of every ciphertext of an encrypted vector."""

    share_index: int
    payload: tuple[int, ...]
    backend_name: str
    length: int | None = None
    packed: bool = False
    weight: int = 1

    def __post_init__(self) -> None:
        _settle_length(self)

    def __len__(self) -> int:
        return self.length  # type: ignore[return-value]


class CipherBackend(ABC):
    """Interface every cipher backend implements.

    The protocol uses only these operations: encrypt a real-valued vector,
    encrypt a zero vector, add two encrypted vectors, produce a partial
    decryption with one key share, and combine enough partial decryptions
    back into a real-valued vector.

    The base class implements all of them as templates over five primitive
    payload operations (:meth:`_encrypt_plaintexts`, :meth:`_add_payloads`,
    :meth:`_multiply_payload`, :meth:`_partial_decrypt_payload`,
    :meth:`_combine_payloads`), so encoding, packing, weight tracking,
    validation and operation counting live in exactly one place.
    """

    #: Short identifier, also stamped on the vectors the backend produces.
    name: str = "abstract"

    def __init__(
        self,
        codec: FixedPointCodec,
        threshold: int,
        n_shares: int,
        packed_codec: PackedCodec | None = None,
    ) -> None:
        if threshold > n_shares:
            raise ValidationError(
                f"threshold ({threshold}) cannot exceed n_shares ({n_shares})"
            )
        self.codec = codec
        self.threshold = threshold
        self.n_shares = n_shares
        self.packing = packed_codec
        self.counter = OperationCounter()

    # ------------------------------------------------------------------ helpers
    @property
    def is_packed(self) -> bool:
        """Whether this backend packs several coordinates per ciphertext."""
        return self.packing is not None

    @property
    def plaintext_capacity_bits(self) -> int:
        """Bits one logical coordinate can grow into before overflowing.

        Unpacked, that is the whole plaintext space; packed, it is one slot.
        The gossip layer checks its halving budget against this.
        """
        if self.packing is not None:
            return self.packing.slot_bits
        return self.codec.modulus.bit_length() - 1

    def _check_vector(self, vector: EncryptedVector) -> None:
        if vector.backend_name != self.name:
            raise CryptoError(
                f"vector produced by backend {vector.backend_name!r} passed to {self.name!r}"
            )
        if vector.packed != self.is_packed:
            raise CryptoError(
                "vector packing layout does not match the backend "
                f"(vector packed={vector.packed}, backend packed={self.is_packed})"
            )

    def _encode_vector(
        self, values: Sequence[float] | Sequence[int] | np.ndarray, integer: bool = False
    ) -> tuple[list[int], int]:
        """Shared encode(-and-pack) step: values → plaintexts + logical length.

        This is the single code path behind :meth:`encrypt_vector`,
        :meth:`encrypt_integer_vector` and :meth:`encrypt_zero_vector` for
        both the packed and unpacked layouts.
        """
        if integer:
            ints = [int(value) for value in values]
            if self.packing is not None:
                return self.packing.pack_integer_vector(ints), len(ints)
            return [self.codec.encode_integer(value) for value in ints], len(ints)
        array = np.asarray(values, dtype=float).ravel()
        if self.packing is not None:
            return self.packing.pack_vector(array), int(array.size)
        return self.codec.encode_vector(array), int(array.size)

    def _vector(self, payload: Sequence[int], length: int, weight: int = 1) -> EncryptedVector:
        return EncryptedVector(
            payload=tuple(payload), backend_name=self.name, length=length,
            packed=self.is_packed, weight=weight,
        )

    # ------------------------------------------------------------------ primitives
    @abstractmethod
    def _encrypt_plaintexts(self, plaintexts: Sequence[int]) -> tuple[int, ...]:
        """Encrypt each plaintext integer into one ciphertext."""

    @abstractmethod
    def _add_payloads(
        self, first: Sequence[int], second: Sequence[int]
    ) -> tuple[int, ...]:
        """Homomorphically add two equal-length ciphertext payloads."""

    @abstractmethod
    def _multiply_payload(self, payload: Sequence[int], factor: int) -> tuple[int, ...]:
        """Homomorphically multiply every ciphertext by a public integer."""

    @abstractmethod
    def _partial_decrypt_payload(
        self, share_index: int, payload: Sequence[int]
    ) -> tuple[int, ...]:
        """Partially decrypt every ciphertext with one key share."""

    def _rerandomize_payload(self, payload: tuple[int, ...]) -> tuple[int, ...]:
        """Refresh the randomness of every ciphertext (identity by default).

        Backends without semantic security (the plain simulation backend)
        have nothing to refresh and return *payload* itself, not a copy, so
        :meth:`rerandomize` can hand back its input; real backends multiply
        by a fresh encryption of zero and return a new tuple.
        """
        return payload

    def _linear_combination_payloads(
        self, payloads: Sequence[Sequence[int]], factors: Sequence[int]
    ) -> tuple[int, ...]:
        """Component-wise homomorphic weighted sum ``Σ factors[j] · payloads[j]``.

        The default composes the scalar-multiply and add primitives exactly
        as the historical gossip code path did; backends with a faster joint
        evaluation (Straus multi-exponentiation) override this.
        """
        accumulated: Sequence[int] | None = None
        for payload, factor in zip(payloads, factors):
            scaled = payload if factor == 1 else self._multiply_payload(payload, factor)
            accumulated = scaled if accumulated is None else self._add_payloads(accumulated, scaled)
        assert accumulated is not None  # guarded by linear_combination()
        return tuple(accumulated)

    @abstractmethod
    def _combine_payloads(self, partials: Sequence[PartialVectorDecryption]) -> list[int]:
        """Combine partial decryptions into the list of plaintext integers."""

    @property
    @abstractmethod
    def ciphertext_bits(self) -> int:
        """Size in bits of one ciphertext (for the network cost model)."""

    # ------------------------------------------------------------------ interface
    def encrypt_vector(self, values: Sequence[float] | np.ndarray) -> EncryptedVector:
        """Encrypt a real-valued vector (packed when packing is enabled)."""
        plaintexts, length = self._encode_vector(values)
        ciphertexts = self._encrypt_plaintexts(plaintexts)
        self.counter.encryptions += len(ciphertexts)
        return self._vector(ciphertexts, length)

    def encrypt_integer_vector(self, values: Sequence[int]) -> EncryptedVector:
        """Encrypt a vector of exact integers (e.g. cluster counts)."""
        plaintexts, length = self._encode_vector(values, integer=True)
        ciphertexts = self._encrypt_plaintexts(plaintexts)
        self.counter.encryptions += len(ciphertexts)
        return self._vector(ciphertexts, length)

    def encrypt_zero_vector(self, length: int) -> EncryptedVector:
        """Encrypt the all-zero vector of the given length."""
        if self.packing is not None:
            plaintexts = self.packing.pack_vector(np.zeros(length))
        else:
            plaintexts = [0] * length
        ciphertexts = self._encrypt_plaintexts(plaintexts)
        self.counter.encryptions += len(ciphertexts)
        return self._vector(ciphertexts, length)

    def add(self, first: EncryptedVector, second: EncryptedVector) -> EncryptedVector:
        """Homomorphically add two encrypted vectors component-wise."""
        self._check_vector(first)
        self._check_vector(second)
        if len(first) != len(second):
            raise CryptoError(f"vector lengths differ: {len(first)} vs {len(second)}")
        weight = first.weight + second.weight
        if self.packing is not None:
            self.packing.check_weight(weight)
        summed = self._add_payloads(first.payload, second.payload)
        self.counter.additions += len(summed)
        return self._vector(summed, len(first), weight=weight)

    def multiply_scalar(self, vector: EncryptedVector, factor: int) -> EncryptedVector:
        """Homomorphically multiply every component by a public integer factor.

        The encrypted gossip averaging uses this with powers of two to bring
        two estimates to a common fixed-point exponent before adding them.
        """
        self._check_vector(vector)
        if factor < 0:
            raise CryptoError("scalar factors must be non-negative integers")
        factor = int(factor)
        if self.packing is not None and factor == 0:
            # A zero factor would also zero the accumulated slot offsets,
            # which the public weight could no longer describe.
            raise CryptoError("packed vectors require strictly positive scalar factors")
        weight = max(vector.weight * factor, 1)
        if self.packing is not None:
            self.packing.check_weight(weight)
        scaled = self._multiply_payload(vector.payload, factor)
        self.counter.additions += len(scaled)
        return self._vector(scaled, len(vector), weight=weight)

    def linear_combination(
        self, vectors: Sequence[EncryptedVector], factors: Sequence[int]
    ) -> EncryptedVector:
        """Homomorphic weighted sum ``Σ factors[j] · vectors[j]`` in one pass.

        This is the primitive behind gossip averaging: lifting two estimates
        to a common fixed-point exponent and adding them is the linear
        combination with power-of-two factors.  Operation counting matches
        the equivalent multiply-then-add sequence (one addition-equivalent
        per ciphertext per non-unit factor, plus one per ciphertext per
        fold), so the cost model charges the same work either way; fast
        backends may *evaluate* it jointly (Straus) without changing the
        charge.
        """
        if not vectors:
            raise CryptoError("linear_combination requires at least one vector")
        if len(vectors) != len(factors):
            raise CryptoError(
                f"need one factor per vector, got {len(vectors)} vectors "
                f"and {len(factors)} factors"
            )
        length = len(vectors[0])
        for vector in vectors:
            self._check_vector(vector)
            if len(vector) != length:
                raise CryptoError(f"vector lengths differ: {length} vs {len(vector)}")
        factors = [int(factor) for factor in factors]
        for factor in factors:
            if factor < 1:
                raise CryptoError("linear combination factors must be positive integers")
        weight = sum(vector.weight * factor for vector, factor in zip(vectors, factors))
        if self.packing is not None:
            self.packing.check_weight(weight)
        combined = self._linear_combination_payloads(
            [vector.payload for vector in vectors], factors
        )
        lifts = sum(1 for factor in factors if factor != 1)
        self.counter.additions += len(combined) * (lifts + len(vectors) - 1)
        return self._vector(combined, length, weight=weight)

    def rerandomize(self, vector: EncryptedVector) -> EncryptedVector:
        """Refresh every ciphertext's randomness without changing the plaintexts.

        Past the blinder, which a device may precompute in idle time, this
        costs one multiplication per ciphertext, which makes per-hop
        re-randomisation of forwarded gossip payloads affordable.

        A refresh is counted per ciphertext whether or not it changes one,
        so the cost model prices every hop alike.  When
        :meth:`_rerandomize_payload` hands back the very payload it was
        given (nothing to refresh), the input vector itself is returned
        rather than an equal copy.
        """
        self._check_vector(vector)
        payload = self._rerandomize_payload(vector.payload)
        self.counter.rerandomizations += len(payload)
        if payload is vector.payload:
            return vector
        return self._vector(payload, len(vector), weight=vector.weight)

    def partial_decrypt_vector(
        self, share_index: int, vector: EncryptedVector
    ) -> PartialVectorDecryption:
        """Produce the partial decryption of a vector with one key share."""
        self._check_vector(vector)
        payload = self._partial_decrypt_payload(share_index, vector.payload)
        self.counter.partial_decryptions += len(payload)
        return PartialVectorDecryption(
            share_index=share_index, payload=payload, backend_name=self.name,
            length=len(vector), packed=vector.packed, weight=vector.weight,
        )

    def combine_vector(
        self, partials: Sequence[PartialVectorDecryption], integer: bool = False
    ) -> np.ndarray:
        """Combine partial decryptions into the decoded real-valued vector.

        When *integer* is true the components are decoded as exact integers
        (cluster counts) instead of fixed-point reals.  The partials must
        agree on their length, ``packed`` and ``weight`` — the decoder reads
        the layout off them — or :class:`ThresholdError` is raised.
        """
        if not partials:
            raise ThresholdError("no partial decryptions supplied")
        lengths = {len(partial) for partial in partials}
        payload_lengths = {len(partial.payload) for partial in partials}
        if len(lengths) != 1 or len(payload_lengths) != 1:
            raise ThresholdError("partial decryptions have inconsistent lengths")
        if len({(partial.packed, partial.weight) for partial in partials}) != 1:
            raise ThresholdError("partial decryptions disagree on packing or weight")
        for partial in partials:
            if partial.backend_name != self.name:
                raise CryptoError("partial decryption from a different backend")
        plaintexts = self._combine_payloads(partials)
        self.counter.combinations += len(plaintexts)
        first = partials[0]
        if self.packing is not None and first.packed:
            return self.packing.unpack_vector(
                plaintexts, len(first), weight=first.weight, integer=integer
            )
        if integer:
            return np.array(
                [float(self.codec.decode_integer(value)) for value in plaintexts],
                dtype=float,
            )
        return self.codec.decode_vector(plaintexts)

    # ------------------------------------------------------------------ conveniences
    def decrypt_with_shares(
        self, vector: EncryptedVector, share_indices: Sequence[int], integer: bool = False
    ) -> np.ndarray:
        """Partial-decrypt with the given shares then combine (testing helper)."""
        partials = [self.partial_decrypt_vector(index, vector) for index in share_indices]
        return self.combine_vector(partials, integer=integer)


class DamgardJurikBackend(CipherBackend):
    """Backend performing real Damgård–Jurik threshold encryption.

    The backend builds a :class:`~repro.crypto.fastmath.PrecomputedKey`
    from the dealer key it already holds (this is an in-process simulation:
    the dealer key is the test oracle) and a
    :class:`~repro.crypto.fastmath.BlinderPool`, which together give CRT
    private-key operations, partial decryption at half the exponent length
    (the helpers of a committee round share each ciphertext's cached Fermat
    powers, :meth:`~repro.crypto.fastmath.PrecomputedKey.partial_decryption_power`),
    one-multiply encryption/rerandomisation past the blinder, Straus
    multi-exponentiation for share combination and one ``pow`` per term
    for the gossip's short lift factors.  Partial decryptions, combinations,
    homomorphic sums and plaintexts are the integers the textbook functions of
    :mod:`~repro.crypto.damgard_jurik` and :mod:`~repro.crypto.threshold`
    produce from the same ciphertexts.  Encryption and rerandomisation use
    fixed-base short-exponent blinders
    (:meth:`~repro.crypto.fastmath.PrecomputedKey.blinder`): ``h^x`` for the
    key context's fixed ``h = y^{n^s}`` and a fresh ``x`` of ``max(256,
    ⌈|n|/2⌉)`` bits, one window-table walk per CRT half.  On the exponent
    stream ``x₁, x₂, …`` the ciphertexts are the textbook ones with
    randomness ``y^{x₁} mod n, y^{x₂} mod n, …``.  That randomness is not
    uniform over ``Z_n^*``: security rests on DCR plus the
    Damgård–Jurik–Nielsen short-exponent assumption (see
    :mod:`~repro.crypto.fastmath`).  Each blinder is made when it is used;
    the cost model prices it as work a device may precompute in idle time
    (``offline``).  Nothing but public key material is kept between
    blinders, so a forked worker needs no preparation: its draws come from
    its own OS entropy.
    """

    name = "damgard_jurik"

    def __init__(
        self,
        key_bits: int = 512,
        degree: int = 1,
        threshold: int = 3,
        n_shares: int = 8,
        encoding_scale: int = 10**6,
        packing: int | str = "off",
        packing_value_bound: float = 1.0,
        packing_weight_bits: int = DEFAULT_WEIGHT_BITS,
    ) -> None:
        public, shares, dealer_key = generate_threshold_keypair(
            key_bits=key_bits, s=degree, threshold=threshold, n_shares=n_shares
        )
        modulus = public.public_key.plaintext_modulus
        codec = FixedPointCodec(modulus=modulus, scale=encoding_scale)
        packed_codec = _plan_packing(
            packing, modulus, encoding_scale, packing_value_bound, packing_weight_bits
        )
        super().__init__(codec=codec, threshold=threshold, n_shares=n_shares,
                         packed_codec=packed_codec)
        self.threshold_public: ThresholdPublicKey = public
        self._shares: dict[int, KeyShare] = {share.index: share for share in shares}
        self._dealer_key = dealer_key
        self._precomputed = PrecomputedKey.from_private_key(dealer_key)
        self._pool = BlinderPool(self._precomputed)

    # ------------------------------------------------------------------ properties
    @property
    def public_key(self) -> dj.DamgardJurikPublicKey:
        """The underlying Damgård–Jurik public key."""
        return self.threshold_public.public_key

    @property
    def ciphertext_bits(self) -> int:
        return self.public_key.ciphertext_bits

    def share_for(self, index: int) -> KeyShare:
        """Return the key share with 1-based index *index*."""
        try:
            return self._shares[index]
        except KeyError as exc:
            raise ThresholdError(f"no key share with index {index}") from exc

    # ------------------------------------------------------------------ primitives
    def _encrypt_plaintexts(self, plaintexts: Sequence[int]) -> tuple[int, ...]:
        self.counter.pooled_encryptions += len(plaintexts)
        return tuple(
            dj.encrypt(self.public_key, value,
                       precomputed=self._precomputed, blinder=self._pool.take())
            for value in plaintexts
        )

    def _add_payloads(
        self, first: Sequence[int], second: Sequence[int]
    ) -> tuple[int, ...]:
        return tuple(
            dj.add_ciphertexts(self.public_key, a, b) for a, b in zip(first, second)
        )

    def _multiply_payload(self, payload: Sequence[int], factor: int) -> tuple[int, ...]:
        return tuple(
            dj.multiply_plaintext(self.public_key, ciphertext, factor,
                                  precomputed=self._precomputed)
            for ciphertext in payload
        )

    def _rerandomize_payload(self, payload: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            dj.rerandomize(self.public_key, ciphertext, blinder=self._pool.take())
            for ciphertext in payload
        )

    def _linear_combination_payloads(
        self, payloads: Sequence[Sequence[int]], factors: Sequence[int]
    ) -> tuple[int, ...]:
        if len(payloads) == 1:
            return super()._linear_combination_payloads(payloads, factors)
        modulus = self.public_key.ciphertext_modulus
        return tuple(
            multi_pow([payload[component] for payload in payloads], factors, modulus)
            for component in range(len(payloads[0]))
        )

    def _partial_decrypt_payload(
        self, share_index: int, payload: Sequence[int]
    ) -> tuple[int, ...]:
        share = self.share_for(share_index)
        return tuple(
            partial_decrypt(self.threshold_public, share, ciphertext,
                            precomputed=self._precomputed).value
            for ciphertext in payload
        )

    def _combine_payloads(self, partials: Sequence[PartialVectorDecryption]) -> list[int]:
        plaintexts: list[int] = []
        for component in range(len(partials[0].payload)):
            component_partials = [
                PartialDecryption(index=partial.share_index, value=partial.payload[component])
                for partial in partials
            ]
            plaintexts.append(
                combine_partial_decryptions(self.threshold_public, component_partials)
            )
        return plaintexts


class PlainBackend(CipherBackend):
    """Backend reproducing the demo's "homomorphic operations disabled" mode.

    Values travel as fixed-point encoded integers; additions are integer
    additions modulo the codec modulus, and partial decryptions are
    pass-through tokens (the combination step simply checks that enough
    distinct tokens were gathered, mirroring the threshold rule).  Operation
    counts are identical to the real backend's, so the cost model can charge
    measured per-operation times.

    The modular arithmetic runs on int64 NumPy slabs when the modulus (and
    scalar factor) leave enough room, so large crypto-free simulations are
    not bottlenecked on per-coordinate Python loops; above 62 bits it is a
    plain loop over Python integers (an object array runs the same ``+`` and
    ``%`` per element and pays for building the arrays on top).

    With packing enabled the simulated plaintext space is widened to match
    the plaintext of the simulated ciphertext (``simulated_ciphertext_bits /
    2``, the degree-1 Damgård–Jurik relation): the packed layout then mirrors
    what the real backend would do with a key of that size, so the operation
    counts and bandwidth the cost model charges stay faithful.  Packing
    ``"off"`` keeps the historical ``modulus_bits`` layout byte for byte.
    """

    name = "plain"

    def __init__(
        self,
        threshold: int = 3,
        n_shares: int = 8,
        encoding_scale: int = 10**6,
        modulus_bits: int = 256,
        simulated_ciphertext_bits: int = 4096,
        packing: int | str = "off",
        packing_value_bound: float = 1.0,
        packing_weight_bits: int = DEFAULT_WEIGHT_BITS,
    ) -> None:
        if normalize_packing(packing) != "off":
            modulus_bits = max(modulus_bits, simulated_ciphertext_bits // 2)
        modulus = 1 << modulus_bits
        codec = FixedPointCodec(modulus=modulus, scale=encoding_scale)
        packed_codec = _plan_packing(
            packing, modulus, encoding_scale, packing_value_bound, packing_weight_bits
        )
        super().__init__(codec=codec, threshold=threshold, n_shares=n_shares,
                         packed_codec=packed_codec)
        self._simulated_ciphertext_bits = simulated_ciphertext_bits

    @property
    def ciphertext_bits(self) -> int:
        return self._simulated_ciphertext_bits

    # ------------------------------------------------------------------ primitives
    def _encrypt_plaintexts(self, plaintexts: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(value) for value in plaintexts)

    def _add_payloads(
        self, first: Sequence[int], second: Sequence[int]
    ) -> tuple[int, ...]:
        modulus = self.codec.modulus
        if modulus.bit_length() <= 62:
            a = np.fromiter(first, dtype=np.int64, count=len(first))
            b = np.fromiter(second, dtype=np.int64, count=len(second))
            return tuple(int(value) for value in (a + b) % modulus)
        return tuple([(x + y) % modulus for x, y in zip(first, second, strict=True)])

    def _multiply_payload(self, payload: Sequence[int], factor: int) -> tuple[int, ...]:
        modulus = self.codec.modulus
        if modulus.bit_length() + factor.bit_length() <= 62:
            a = np.fromiter(payload, dtype=np.int64, count=len(payload))
            return tuple(int(value) for value in (a * factor) % modulus)
        return tuple([(x * factor) % modulus for x in payload])

    def _partial_decrypt_payload(
        self, share_index: int, payload: Sequence[int]
    ) -> tuple[int, ...]:
        if not 1 <= share_index <= self.n_shares:
            raise ThresholdError(f"no key share with index {share_index}")
        return tuple(payload)

    def _combine_payloads(self, partials: Sequence[PartialVectorDecryption]) -> list[int]:
        distinct = {partial.share_index for partial in partials}
        if len(distinct) < self.threshold:
            raise ThresholdError(
                f"need at least {self.threshold} distinct partial decryptions, got {len(distinct)}"
            )
        payloads = {partial.payload for partial in partials}
        if len(payloads) != 1:
            raise ThresholdError("partial decryptions disagree; vectors were not identical")
        return list(payloads.pop())


def _plan_packing(
    packing: int | str,
    modulus: int,
    scale: int,
    value_bound: float,
    weight_bits: int,
) -> PackedCodec | None:
    """Resolve a packing knob into a :class:`PackedCodec` (or None for off).

    Falls back to ``None`` (unpacked) when the plaintext space cannot fit at
    least two slots of the requested layout.
    """
    packing = normalize_packing(packing)
    if packing == "off":
        return None
    slots = None if packing == "auto" else int(packing)
    return PackedCodec.plan(
        modulus, scale, value_bound=value_bound, weight_bits=weight_bits, slots=slots
    )


def make_backend(
    backend: str,
    key_bits: int = 512,
    degree: int = 1,
    threshold: int = 3,
    n_shares: int = 8,
    encoding_scale: int = 10**6,
    packing: int | str = "off",
    packing_value_bound: float = 1.0,
    packing_weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> CipherBackend:
    """Factory mapping a configuration string to a backend instance.

    ``"paillier"`` is the degree-1 Damgård–Jurik scheme (they coincide), kept
    as a separate name for clarity in configurations.

    ``packing`` is ``"off"`` (one ciphertext per coordinate, the historical
    layout), ``"auto"`` (as many slots per ciphertext as the plaintext space
    supports) or a positive slot count.  ``packing_value_bound`` is the
    largest magnitude one fresh slot must hold (inflate it to cover noise
    shares); ``packing_weight_bits`` is the per-slot headroom for gossip
    halvings.
    """
    if backend in ("damgard_jurik", "paillier"):
        return DamgardJurikBackend(
            key_bits=key_bits,
            degree=1 if backend == "paillier" else degree,
            threshold=threshold,
            n_shares=n_shares,
            encoding_scale=encoding_scale,
            packing=packing,
            packing_value_bound=packing_value_bound,
            packing_weight_bits=packing_weight_bits,
        )
    if backend == "plain":
        return PlainBackend(
            threshold=threshold, n_shares=n_shares, encoding_scale=encoding_scale,
            packing=packing, packing_value_bound=packing_value_bound,
            packing_weight_bits=packing_weight_bits,
        )
    raise ValidationError(f"unknown backend {backend!r}")
