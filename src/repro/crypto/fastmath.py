"""Modular-arithmetic fast path for the Damgård–Jurik crypto hot loop.

Every Chiaroscuro run is dominated by a handful of bigint modular
exponentiations: encryption pays ``r^{n^s} mod n^{s+1}``, decryption pays
``c^λ mod n^{s+1}``, every partial decryption pays ``c^{2Δs_i}`` and every
gossip merge pays a multi-term homomorphic accumulation.  This module
implements the standard accelerations from the Damgård–Jurik paper (PKC
2001, Section 4.3) and the classical exponentiation literature, without
changing a single decrypted bit:

* :class:`PrecomputedKey` — per-key precomputation: CRT split of the
  private-key operations over ``p^{s+1}`` / ``q^{s+1}`` with cached
  λ-residues, decryption constants and recombination inverses (~3–4× on
  every private ``pow``); cached ``n^k mod n^{s+1}`` powers, factorial
  inverses for the ``(1+n)^m`` binomial expansion and the halving constant
  ``2^{-1} mod n^s``;
* :class:`BlinderPool` — an amortized pool of precomputed encryption
  blinders (``n^s``-th residues mod ``n^{s+1}``) so that hot-path
  ``encrypt`` / ``rerandomize`` cost one bigint multiplication instead of
  one full exponentiation.  The pool makes each blinder from one draw with
  :meth:`PrecomputedKey.blinder`;
* :func:`multi_pow` — Straus simultaneous multi-exponentiation for
  ``Π bᵢ^{eᵢ} mod m`` (threshold share combination, homomorphic weighted
  accumulation in the gossip layer).

The private-key, multi-exponentiation and decryption paths are *exact*
accelerations: partial decryptions, share combinations, homomorphic sums and
plaintexts are the integers the textbook bodies of
:mod:`~repro.crypto.damgard_jurik` and :mod:`~repro.crypto.threshold`
(called without a precomputed key or pool) produce from the same
ciphertexts.

Blinders are where the two contexts differ.  A *public-only* context draws
``r`` uniform in ``Z_n^*`` and computes the textbook ``r^{n^s}``.  A
*private* context uses the fixed-base short-exponent sampler of Damgård,
Jurik and Nielsen ("A generalization of Paillier's public-key system with
applications to electronic voting", IJIS 2010): at set-up it draws one
``y`` from ``Z_n^*`` and fixes ``h = y^{n^s} mod n^{s+1}``; a blinder is
``h^x`` for ``x`` uniform in ``[0, 2^L)``, ``L = max(256, ⌈|n|/2⌉)``
(``L`` follows from the key; it is not a knob).  Because ``h^x == (y^x mod
n)^{n^s} mod n^{s+1}``, a pooled ciphertext on the stream ``x₁, x₂, …`` is
the textbook ciphertext with randomness ``y^{x₁} mod n, y^{x₂} mod n, …`` —
which is what the tests compare against — and decryption never sees the
blinder.

**The assumption changes with it.**  These blinders are *not* uniform over
the ``n^s``-th residues: they range over the subgroup ``⟨h⟩`` and ``x`` is
short.  Semantic security now rests on DCR plus the DJN short-exponent
(subgroup) assumption — that ``h^x`` for a short ``x`` is indistinguishable
from a uniform ``n^s``-th residue — rather than on DCR alone.  ``y``, ``h``
and the window tables are public data: forked workers share them, and
:meth:`BlinderPool.reset` (run by ``after_fork``) still discards the pooled
blinders, so each process draws its own exponents from OS entropy.

Table size.  A private context keeps one fixed-base table per CRT half,
``⌈|p|/8⌉`` rows of 255 non-trivial residues mod ``p^{s+1}`` (and the same
mod ``q^{s+1}``).  At ``s = 1`` that is about 0.26 MB of residues for a
256-bit key (16 rows per half, built in milliseconds), 4.2 MB at 1024 bits
(64 rows) and 16.7 MB at 2048 bits (128 rows), plus CPython's ~28 bytes per
integer object; degree ``s`` scales it by ``(s+1)/2``.

When `gmpy2 <https://gmpy2.readthedocs.io>`_ is importable, the hot
modular primitives (:func:`powmod`, :func:`invert`) ride its ``mpz``
implementations instead of CPython's ``pow`` — same integers, GMP speed.
The library never requires gmpy2: absent, the pure-Python path runs.  Both
helpers live inside this module only, so the textbook reference arithmetic
is untouched either way.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Sequence

from ..exceptions import CryptoError
from .math_utils import mod_inverse, random_below, random_coprime

try:  # pragma: no cover - exercised only where gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - the common container case
    _gmpy2 = None

#: Whether the optional gmpy2 backend is active for :func:`powmod` /
#: :func:`invert` (purely a wall-clock matter; results are identical).
HAVE_GMPY2 = _gmpy2 is not None


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` on the fastest available bigint backend.

    Semantically identical to the built-in three-argument ``pow`` —
    including negative exponents for invertible bases — but routed through
    ``gmpy2.powmod`` when the library is importable.
    """
    if _gmpy2 is not None:
        try:
            return int(_gmpy2.powmod(base, exponent, modulus))
        except (ValueError, ZeroDivisionError) as exc:
            raise CryptoError(
                f"powmod({base}, {exponent}, {modulus}) is undefined"
            ) from exc
    return pow(base, exponent, modulus)


def invert(value: int, modulus: int) -> int:
    """Modular inverse on the fastest available bigint backend.

    Same contract as :func:`~repro.crypto.math_utils.mod_inverse`
    (:class:`CryptoError` when no inverse exists), via ``gmpy2.invert``
    when importable.
    """
    if _gmpy2 is not None:
        if modulus <= 0:
            raise CryptoError(f"modulus must be positive, got {modulus}")
        try:
            return int(_gmpy2.invert(value, modulus))
        except ZeroDivisionError as exc:
            raise CryptoError(f"{value} has no inverse modulo {modulus}") from exc
    return mod_inverse(value, modulus)


#: Below this exponent bit length a plain ``pow`` beats the CRT split (two
#: half-width exponentiations plus the recombination overhead).  Gossip lift
#: factors (small powers of two) stay on the plain path because of this.
_CRT_MIN_EXPONENT_BITS = 96

#: Bound on the number of distinct exponents whose CRT residues are cached
#: per key.  The recurring exponents of a run (``n^s``, the per-share
#: threshold exponents, the halving constant) are far fewer than this; the
#: cap only guards against an adversarial stream of unique exponents.
_EXPONENT_CACHE_LIMIT = 256

#: Shortest blinder exponent a private context draws; longer keys draw
#: ``⌈|n|/2⌉`` bits (see the module docstring).
_MIN_BLINDER_EXPONENT_BITS = 256

#: Straus interleaving processes bases in groups of this size: the shared
#: table has ``2^group`` entries, so 4 keeps precomputation negligible while
#: still merging the squaring chains of up to four exponentiations.
_STRAUS_GROUP = 4


# --------------------------------------------------------------------------- multi-exponentiation
def _straus_group(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
    """Simultaneous exponentiation of at most :data:`_STRAUS_GROUP` pairs."""
    count = len(pairs)
    table = [1] * (1 << count)
    for position, (base, _) in enumerate(pairs):
        low = 1 << position
        for index in range(low, low << 1):
            table[index] = (table[index - low] * base) % modulus
    result = 1
    for bit in range(max(e.bit_length() for _, e in pairs) - 1, -1, -1):
        result = (result * result) % modulus
        index = 0
        for position, (_, exponent) in enumerate(pairs):
            if (exponent >> bit) & 1:
                index |= 1 << position
        if index:
            result = (result * table[index]) % modulus
    return result


def multi_pow(bases: Sequence[int], exponents: Sequence[int], modulus: int) -> int:
    """Straus simultaneous multi-exponentiation: ``Π bases[i]^exponents[i] mod modulus``.

    Sharing one squaring chain across the whole product replaces ``t`` full
    square-and-multiply runs by a single one, which is the classical win for
    threshold share combination and for homomorphic weighted accumulation.
    Negative exponents are supported for invertible bases (as ``pow`` does).
    """
    if len(bases) != len(exponents):
        raise CryptoError(
            f"multi_pow needs one exponent per base, got {len(bases)} vs {len(exponents)}"
        )
    if modulus <= 0:
        raise CryptoError(f"modulus must be positive, got {modulus}")
    pairs: list[tuple[int, int]] = []
    for base, exponent in zip(bases, exponents):
        if exponent < 0:
            base = invert(base, modulus)
            exponent = -exponent
        if exponent:
            pairs.append((base % modulus, exponent))
    if not pairs:
        return 1 % modulus
    result = 1
    for start in range(0, len(pairs), _STRAUS_GROUP):
        group = pairs[start : start + _STRAUS_GROUP]
        result = (result * _straus_group(group, modulus)) % modulus
    return result


# --------------------------------------------------------------------------- generalized dlog
def _dlog_one_plus_base(base: int, s: int, value: int) -> int:
    """Extract ``i`` from ``(1 + base)^i mod base^(s+1)``.

    The iterative binomial algorithm of Damgård–Jurik Section 4.2, with the
    modulus ``n`` generalised to any *prime* base (used with ``base = p`` and
    ``base = q`` by the CRT decryption; every ``k!`` with ``k <= s`` is then
    invertible because ``k < base``).
    """
    i = 0
    for j in range(1, s + 1):
        base_to_j = base**j
        reduced = value % (base_to_j * base)
        if (reduced - 1) % base != 0:
            raise CryptoError("value is not of the form (1 + base)^i")
        t1 = ((reduced - 1) // base) % base_to_j
        t2 = i
        for k in range(2, j + 1):
            i = i - 1
            t2 = (t2 * i) % base_to_j
            factor = (t2 * base ** (k - 1)) % base_to_j
            t1 = (t1 - factor * mod_inverse(math.factorial(k), base_to_j)) % base_to_j
        i = t1
    return i


# --------------------------------------------------------------------------- fixed-base tables
def _fixed_base_table(base: int, exponent_bits: int, modulus: int) -> list[list[int]]:
    """Window table for ``base^x mod modulus`` with ``x < 2^exponent_bits``.

    Row ``i`` holds ``base^(d·256^i)`` for every byte value ``d`` (entry 0
    is 1), so an exponent's little-endian bytes index one entry per row.
    """
    rows: list[list[int]] = []
    step = base % modulus
    for _ in range(-(-exponent_bits // 8)):
        row = [1, step]
        for _ in range(254):
            row.append((row[-1] * step) % modulus)
        rows.append(row)
        step = (row[-1] * step) % modulus
    return rows


def _table_pow(rows: list[list[int]], exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` from :func:`_fixed_base_table` rows:
    one multiplication per non-zero exponent byte and no squarings."""
    result = 1
    for row, digit in zip(rows, exponent.to_bytes(len(rows), "little")):
        if digit:
            result = (result * row[digit]) % modulus
    return result


# --------------------------------------------------------------------------- per-key precomputation
class PrecomputedKey:
    """Per-key acceleration context for the Damgård–Jurik scheme.

    Built from a public key alone it caches the public recurring constants
    (``n^k mod n^{s+1}`` powers and factorial inverses for the ``(1+n)^m``
    binomial).  Built from a private key it additionally precomputes the CRT
    split: moduli ``p^{s+1}`` / ``q^{s+1}``, group orders, the decryption
    constants ``h_p`` / ``h_q`` and the Garner recombination inverses, which
    makes every private-key ``pow`` run on two half-width moduli with reduced
    exponents (~3–4× faster at realistic key sizes).  It also draws the fixed
    blinder base ``h = y^{n^s}`` (:attr:`blinder_root` is ``y``) and builds
    one window table for ``h mod p^{s+1}`` and one for ``h mod q^{s+1}``
    (see :meth:`blinder`).
    """

    def __init__(self, public_key, p: int | None = None, q: int | None = None) -> None:
        self.public_key = public_key
        n = public_key.n
        s = public_key.s
        self.n = n
        self.s = s
        self.n_to_s = public_key.plaintext_modulus
        self.modulus = public_key.ciphertext_modulus
        # Public recurring constants of the (1+n)^m binomial expansion.
        self.n_powers = [pow(n, k, self.modulus) for k in range(s + 1)]
        self.factorial_inverses = [
            mod_inverse(math.factorial(k), self.modulus) if k else 1 for k in range(s + 1)
        ]
        self.has_private = p is not None and q is not None
        if self.has_private:
            if p * q != n:
                raise CryptoError("p * q does not match the public modulus")
            if math.gcd(n, (p - 1) * (q - 1)) != 1:
                # generate_keypair retries on this; a hand-built key may not
                # have.  Without it encryption is not injective.
                raise CryptoError("gcd(n, (p-1)(q-1)) must be 1")
            self.p = p
            self.q = q
            self.p_to_s = p**s
            self.q_to_s = q**s
            self.p_to_s1 = self.p_to_s * p
            self.q_to_s1 = self.q_to_s * q
            #: Orders of the multiplicative groups mod p^{s+1} / q^{s+1}.
            self.order_p = self.p_to_s * (p - 1)
            self.order_q = self.q_to_s * (q - 1)
            # Garner recombination constants: ciphertext and plaintext spaces.
            self.p_to_s1_inv_q = mod_inverse(self.p_to_s1 % self.q_to_s1, self.q_to_s1)
            self.p_to_s_inv_q = mod_inverse(self.p_to_s % self.q_to_s, self.q_to_s)
            # Decryption constants: c^{p-1} mod p^{s+1} lands in the cyclic
            # subgroup generated by (1+p); dividing out the fixed discrete
            # log of (1+n)^{p-1} recovers the message residue directly.
            self.h_p = mod_inverse(
                _dlog_one_plus_base(p, s, pow(1 + n, p - 1, self.p_to_s1)), self.p_to_s
            )
            self.h_q = mod_inverse(
                _dlog_one_plus_base(q, s, pow(1 + n, q - 1, self.q_to_s1)), self.q_to_s
            )
            self._exponent_residues: dict[int, tuple[int, int]] = {}
            #: Bit length of a blinder exponent ``x`` (see :meth:`blinder`).
            self.blinder_exponent_bits = max(
                _MIN_BLINDER_EXPONENT_BITS, -(-n.bit_length() // 2)
            )
            #: ``y``: the fixed blinder base is ``h = y^{n^s} mod n^{s+1}``.
            self.blinder_root = random_coprime(n)
            base = self.crt_pow(self.blinder_root, self.n_to_s)
            self._blinder_table_p = _fixed_base_table(
                base, (p - 1).bit_length(), self.p_to_s1
            )
            self._blinder_table_q = _fixed_base_table(
                base, (q - 1).bit_length(), self.q_to_s1
            )

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_private_key(cls, private_key) -> "PrecomputedKey":
        """Full precomputation (CRT included) from a Damgård–Jurik private key."""
        return cls(private_key.public_key, p=private_key.p, q=private_key.q)

    @classmethod
    def from_public_key(cls, public_key) -> "PrecomputedKey":
        """Public-constants-only precomputation (no CRT)."""
        return cls(public_key)

    # ------------------------------------------------------------------ public fast paths
    def one_plus_n_pow(self, exponent: int) -> int:
        """``(1 + n)^exponent mod n^{s+1}`` via the binomial with cached constants."""
        exponent = exponent % self.n_to_s
        modulus = self.modulus
        result = 1
        numerator = 1
        for k in range(1, self.s + 1):
            numerator = (numerator * ((exponent - (k - 1)) % modulus)) % modulus
            binomial = (numerator * self.factorial_inverses[k]) % modulus
            result = (result + binomial * self.n_powers[k]) % modulus
        return result

    # ------------------------------------------------------------------ private fast paths
    def _reduced_exponents(self, exponent: int) -> tuple[int, int]:
        """CRT residues of an exponent, cached because hot exponents recur.

        The exponents of a run are a small fixed set (``n^s`` for blinders,
        one ``2Δs_i`` per key share, the halving constant), so caching their
        residues removes two wide reductions from every private ``pow``.
        """
        cached = self._exponent_residues.get(exponent)
        if cached is None:
            cached = (exponent % self.order_p, exponent % self.order_q)
            if len(self._exponent_residues) < _EXPONENT_CACHE_LIMIT:
                self._exponent_residues[exponent] = cached
        return cached

    def _recombine(self, residue_p: int, residue_q: int) -> int:
        """Garner CRT recombination in the ciphertext space."""
        difference = ((residue_q - residue_p) * self.p_to_s1_inv_q) % self.q_to_s1
        return residue_p + self.p_to_s1 * difference

    def crt_pow(self, base: int, exponent: int) -> int:
        """``base^exponent mod n^{s+1}`` computed mod ``p^{s+1}`` and ``q^{s+1}``.

        Exact for every base coprime to ``n`` (ciphertexts always are); other
        bases, tiny exponents and public-only contexts fall back to ``pow``.
        The win comes from two half-width moduli plus order-reduced
        exponents, the textbook CRT speedup of RSA-family schemes.
        """
        if not self.has_private or 0 < exponent.bit_length() < _CRT_MIN_EXPONENT_BITS:
            return powmod(base, exponent, self.modulus)
        if math.gcd(base, self.n) != 1:
            return powmod(base, exponent, self.modulus)
        if exponent < 0:
            base = invert(base, self.modulus)
            exponent = -exponent
        exponent_p, exponent_q = self._reduced_exponents(exponent)
        residue_p = powmod(base % self.p_to_s1, exponent_p, self.p_to_s1)
        residue_q = powmod(base % self.q_to_s1, exponent_q, self.q_to_s1)
        return self._recombine(residue_p, residue_q)

    def blinder(self, draw: int) -> int:
        """An ``n^s``-th residue mod ``n^{s+1}`` from one draw.

        The one place a blinder is made from a draw.  A public-only context
        takes ``r`` from ``Z_n^*`` and computes the textbook ``r^{n^s} mod
        n^{s+1}``.  A private context takes an exponent ``x`` (uniform in
        ``[0, 2^L)``, ``L`` = :attr:`blinder_exponent_bits`) and computes
        ``h^x`` for the fixed base ``h = y^{n^s}``: ``CRT(h^{x mod (p−1)}
        mod p^{s+1}, h^{x mod (q−1)} mod q^{s+1})``, each half one walk of
        its window table.  The reductions are exact — ``h mod p^{s+1}`` is
        an ``(n^s)``-th power in a group of order ``p^s (p−1)``, so its order
        divides ``p − 1`` (likewise for ``q``) — hence ``blinder(x) ==
        pow(pow(y, x, n), n^s, n^{s+1})`` and ``blinder(x + λ) ==
        blinder(x)``.  These blinders are not uniform over the ``n^s``-th
        residues; the module docstring states the assumption they rest on.
        """
        if not self.has_private:
            return powmod(draw, self.n_to_s, self.modulus)
        residue_p = _table_pow(self._blinder_table_p, draw % (self.p - 1), self.p_to_s1)
        residue_q = _table_pow(self._blinder_table_q, draw % (self.q - 1), self.q_to_s1)
        return self._recombine(residue_p, residue_q)

    def decrypt(self, ciphertext: int) -> int:
        """CRT decryption: half-width moduli *and* half-size exponents.

        ``c^{p-1} mod p^{s+1}`` kills the ``r^{n^s}`` randomness outright
        (its order divides ``p^s (p-1)``), so the discrete log of the result
        is ``m (p-1) α_p mod p^s`` — one constant multiplication away from
        the message residue.  Combining the two residues with Garner yields
        exactly the plaintext the full-width ``c^λ`` decryption produces.
        """
        if not self.has_private:
            raise CryptoError("CRT decryption requires the private key")
        residue_p = (
            _dlog_one_plus_base(
                self.p, self.s, powmod(ciphertext % self.p_to_s1, self.p - 1, self.p_to_s1)
            )
            * self.h_p
        ) % self.p_to_s
        residue_q = (
            _dlog_one_plus_base(
                self.q, self.s, powmod(ciphertext % self.q_to_s1, self.q - 1, self.q_to_s1)
            )
            * self.h_q
        ) % self.q_to_s
        difference = ((residue_q - residue_p) * self.p_to_s_inv_q) % self.q_to_s
        return residue_p + self.p_to_s * difference


# --------------------------------------------------------------------------- blinder pools
class BlinderPool:
    """Amortized pool of Damgård–Jurik encryption blinders (``n^s``-th residues).

    Hot-path ``encrypt`` and ``rerandomize`` take one precomputed blinder and
    pay a single bigint multiplication; the exponentiations are batched into
    :meth:`refill`, which a deployment runs in idle time.

    Each blinder is :meth:`PrecomputedKey.blinder` of one draw, and the
    draws are made in serve order.  A public-only context draws ``r`` with
    :func:`~repro.crypto.math_utils.random_coprime`, like fresh encryption,
    so pooled ciphertexts are bit-identical to unpooled ones given the same
    randomness stream.  A private context (the in-process simulation backend
    holds the dealer key) draws the short exponent ``x`` with
    :func:`~repro.crypto.math_utils.random_below` ``(2^L)``: the pooled
    ciphertexts on the stream ``x₁, x₂, …`` are the textbook ciphertexts
    with randomness ``y^{x₁} mod n, y^{x₂} mod n, …`` (``y`` is
    :attr:`PrecomputedKey.blinder_root`).  *rng* replaces that draw; it is
    called with the same bound (``2^L`` or ``n``).
    """

    def __init__(
        self,
        precomputed: PrecomputedKey,
        batch_size: int = 32,
        rng: Callable[[int], int] | None = None,
    ) -> None:
        self.precomputed = precomputed
        self.batch_size = batch_size
        if precomputed.has_private:
            draw, self._draw_bound = random_below, 1 << precomputed.blinder_exponent_bits
        else:
            draw, self._draw_bound = random_coprime, precomputed.n
        self._draw = rng if rng is not None else draw
        self._pool: deque[int] = deque()
        self.generated = 0
        self.served = 0
        # One condition guards the pool *and* serializes blinder generation:
        # every randomness draw happens under it, in append order, so the
        # FIFO pool serves blinders in draw order — whether a blinder was
        # generated synchronously on exhaustion or ahead of time by the
        # background refill thread.
        self._condition = threading.Condition()
        self._refill_thread: threading.Thread | None = None
        self._refill_stop: threading.Event | None = None

    def __len__(self) -> int:
        return len(self._pool)

    @property
    def batch_size(self) -> int:
        """Blinders one refill makes; at least 1 (the backend resizes it
        from the run's demand after construction)."""
        return self._batch_size

    @batch_size.setter
    def batch_size(self, value: int) -> None:
        if value < 1:
            raise CryptoError(f"batch_size must be >= 1, got {value}")
        self._batch_size = value

    @property
    def low_water(self) -> int:
        """Pool level at which :meth:`take` wakes the refill thread.

        Half the *current* batch size.
        """
        return max(1, self.batch_size // 2)

    def _fresh_blinder(self) -> int:
        return self.precomputed.blinder(self._draw(self._draw_bound))

    def refill(self, count: int | None = None) -> None:
        """Precompute *count* blinders (one batch when omitted)."""
        count = self.batch_size if count is None else count
        if count < 0:
            raise CryptoError(f"cannot refill a negative count of blinders: {count}")
        with self._condition:
            self._refill_locked(count)

    def _refill_locked(self, count: int) -> None:
        for _ in range(count):
            self._pool.append(self._fresh_blinder())
        self.generated += count

    def take(self) -> int:
        """Pop the oldest blinder, refilling a batch first when empty.

        FIFO order makes the i-th pooled operation use exactly the i-th
        draw.  With the background refill thread running, the pool rarely
        empties and this is one lock acquisition plus one ``popleft``;
        dropping to the low-water mark wakes the refiller.
        """
        with self._condition:
            if not self._pool:
                self._refill_locked(self.batch_size)
            self.served += 1
            blinder = self._pool.popleft()
            if self._refill_thread is not None and len(self._pool) <= self.low_water:
                self._condition.notify_all()
            return blinder

    def reset(self) -> None:
        """Discard every pooled blinder (counters untouched).

        A process that inherits a pool through ``fork`` MUST call this
        before encrypting: two processes serving the same precomputed
        blinders would produce ciphertexts with identical randomness, and
        the quotient of two such ciphertexts reveals the plaintext
        difference — exactly the linkability the re-randomization layer
        exists to prevent.  Post-fork draws come from the process's own
        entropy, so refilled pools diverge immediately.
        """
        with self._condition:
            self._pool.clear()

    # ------------------------------------------------------------------ background refill
    def start_background_refill(self) -> None:
        """Keep the pool topped up from a daemon worker thread.

        Real deployments refill blinder pools in idle time; this moves the
        batch exponentiations off the encryption hot path.  Generation
        stays under the pool lock, one blinder at a time, so the randomness
        stream is consumed in precisely the order the synchronous path
        consumes it — the served blinders are the same integers with or
        without the thread.  Idempotent; a no-op when the thread is already
        running.
        """
        with self._condition:
            if self._refill_thread is not None:
                return
            # Each thread gets its own stop event: even if a stop times out
            # with the old thread wedged behind the lock, a later start can
            # never revive it — its event stays set forever and a fresh
            # thread runs on a fresh event.
            stop = threading.Event()
            self._refill_stop = stop
            self._refill_thread = threading.Thread(
                target=self._background_refill_loop,
                args=(stop,),
                name="blinder-pool-refill",
                daemon=True,
            )
            self._refill_thread.start()

    def stop_background_refill(self) -> None:
        """Stop the refill thread (blocks until it exits); idempotent."""
        with self._condition:
            thread = self._refill_thread
            stop = self._refill_stop
            if thread is None:
                return
            stop.set()
            self._condition.notify_all()
        thread.join(timeout=30.0)
        with self._condition:
            self._refill_thread = None
            self._refill_stop = None

    def _background_refill_loop(self, stop: threading.Event) -> None:
        # The lock is re-acquired for every single blinder: a concurrent
        # take() waits for at most one blinder, never a whole batch, and
        # draw order == append order == serve order (stream identity).
        while True:
            with self._condition:
                if stop.is_set():
                    return
                if len(self._pool) >= self.low_water + self.batch_size:
                    self._condition.wait(timeout=0.1)
                    continue
                self._refill_locked(1)
                self._condition.notify_all()


def plan_pool_batch(expected_per_round: int, minimum: int = 16, maximum: int = 1024) -> int:
    """Pool batch size for an expected number of hot-path operations per round.

    The analysis cost model knows how many encryptions one protocol round
    performs (:attr:`~repro.analysis.costs.ProtocolWorkload.encryptions_per_iteration`);
    refilling in batches of that size bounds the precomputed-state memory
    and covers a round's *encryptions* with one burst.  It does not count
    rerandomizations, which draw from the same pool and are most of the
    demand (88 % of draws on the suite's ``object_dj`` workload: 196 refill
    bursts in 3 iterations), so a round sees many bursts, not one.
    """
    if expected_per_round < 1:
        raise CryptoError(
            f"expected_per_round must be >= 1, got {expected_per_round}"
        )
    return max(minimum, min(maximum, expected_per_round))
