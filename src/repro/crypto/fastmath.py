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
* :class:`BlinderPool` — the source of encryption blinders (``n^s``-th
  residues mod ``n^{s+1}``): ``encrypt`` / ``rerandomize`` take one and
  multiply it in.  Each is made when it is used, from one draw with
  :meth:`PrecomputedKey.blinder`, which a private context turns into one
  table walk per CRT half.  The cost model prices a blinder as work a
  device may precompute in idle time (``offline``); the simulator does not
  precompute it;
* :meth:`PrecomputedKey.partial_decryption_power` — a partial decryption
  ``c^e`` at half the exponent length per CRT half.  With ``e`` reduced mod
  ``p^s (p−1)`` and split as ``u + (p−1)·w``, ``u = e mod (p−1)``:
  ``c^e ≡ c^u · (1 + p·T)^w (mod p^{s+1})``, where ``c^{p−1} ≡ 1 + p·T``
  (Fermat) and ``(1 + p·T)^w`` is an ``(s+1)``-term binomial (likewise mod
  ``q^{s+1}``).  The Fermat power ``c^{p−1}`` is one ``(p−1)``-exponent
  ``pow`` per ciphertext, cached per key, so the ``t`` helpers of a
  committee round pay one short power each plus one shared Fermat power
  instead of ``t`` full-length ones; :meth:`PrecomputedKey.decrypt` reads
  the same cache;
* :func:`multi_pow` — Straus simultaneous multi-exponentiation for
  ``Π bᵢ^{eᵢ} mod m`` (threshold share combination, homomorphic weighted
  accumulation in the gossip layer), or one builtin ``pow`` per base when
  every exponent is a few bits long (the gossip's ``1`` / ``2^k`` lifts).

The private-key, multi-exponentiation and decryption paths are *exact*
accelerations: partial decryptions, share combinations, homomorphic sums and
plaintexts are the integers the textbook bodies of
:mod:`~repro.crypto.damgard_jurik` and :mod:`~repro.crypto.threshold`
(called without a precomputed key or blinder) produce from the same
ciphertexts.

Blinders are where the two contexts differ.  A *public-only* context draws
``r`` uniform in ``Z_n^*`` and computes the textbook ``r^{n^s}``.  A
*private* context uses the fixed-base short-exponent sampler of Damgård,
Jurik and Nielsen ("A generalization of Paillier's public-key system with
applications to electronic voting", IJIS 2010): at set-up it draws one
``y`` from ``Z_n^*`` and fixes ``h = y^{n^s} mod n^{s+1}``; a blinder is
``h^x`` for ``x`` uniform in ``[0, 2^L)``, ``L = max(256, ⌈|n|/2⌉)``
(``L`` follows from the key; it is not a knob).  Because ``h^x == (y^x mod
n)^{n^s} mod n^{s+1}``, the ciphertexts blinded on the stream ``x₁, x₂, …`` are
the textbook ciphertexts with randomness ``y^{x₁} mod n, y^{x₂} mod n, …`` —
which is what the tests compare against — and decryption never sees the
blinder.

**The assumption changes with it.**  These blinders are *not* uniform over
the ``n^s``-th residues: they range over the subgroup ``⟨h⟩`` and ``x`` is
short.  Semantic security now rests on DCR plus the DJN short-exponent
(subgroup) assumption — that ``h^x`` for a short ``x`` is indistinguishable
from a uniform ``n^s``-th residue — rather than on DCR alone.  ``y``, ``h``
and the window tables are public data: forked workers share them, and
since no blinder is kept between uses, each process draws its own exponents
from OS entropy.

Table size.  A private context keeps one fixed-base table per CRT half,
``⌈|p|/8⌉`` rows of 255 non-trivial residues mod ``p^{s+1}`` (and the same
mod ``q^{s+1}``).  At ``s = 1`` that is about 0.26 MB of residues for a
256-bit key (16 rows per half, built in milliseconds), 4.2 MB at 1024 bits
(64 rows) and 16.7 MB at 2048 bits (128 rows), plus CPython's ~28 bytes per
integer object; degree ``s`` scales it by ``(s+1)/2``.

Fermat cache.  A private context keeps the pair ``(c^{p−1} mod p^{s+1},
c^{q−1} mod q^{s+1})`` for at most :data:`_FERMAT_CACHE_LIMIT` (1024)
ciphertexts and drops the oldest first.  An entry holds the ciphertext and
two residues: about 0.3 MB for a full cache at 256 bits and 1.2 MB at 2048
bits (``s = 1``, CPython objects included, measured with tracemalloc).

The trade.  Three helpers in one process (every object-engine round) pay
30–38 % less for a ciphertext's partial decryptions than three CRT powers
did, at 256, 1024 and 2048 bits.  A process that decrypts a ciphertext
with one share only — a live worker hosting a single helper — pays the
Fermat power and the short power where one full-length power did: 0–23 %
more for that helper, measured the same way.  A committee request larger
than the cache evicts its own first entries before the next helper reads
them; every answer stays exact.

When `gmpy2 <https://gmpy2.readthedocs.io>`_ is importable, the hot
modular primitives (:func:`powmod`, :func:`invert`) ride its ``mpz``
implementations instead of CPython's ``pow`` — same integers, GMP speed.
The library never requires gmpy2: absent, the pure-Python path runs.  Both
helpers live inside this module only, so the textbook reference arithmetic
is untouched either way.
"""

from __future__ import annotations

import math
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

#: Bound on the ciphertexts whose Fermat powers a private key context caches
#: (see :meth:`PrecomputedKey.partial_decryption_power`).  One committee
#: request's ciphertexts must fit for its helpers to share them; a run of
#: the benchmark's ``object_dj`` workload decrypts 432.
_FERMAT_CACHE_LIMIT = 1024

#: When every exponent of :func:`multi_pow` is shorter than this, one
#: builtin ``pow`` per base beats Straus's Python-level bit loop.  Measured
#: on ``Π`` of two bases mod ``n^2``: the gossip lifts ``(2^k, 1)``,
#: ``k ≤ 6``, run 1.1–2.9× faster on ``pow`` at 256, 1024 and 2048 bits,
#: while share combination's 11–15-bit Lagrange exponents stay 1.3–2×
#: faster on Straus.
_STRAUS_MIN_EXPONENT_BITS = 8

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
    threshold share combination.  When every exponent is shorter than
    :data:`_STRAUS_MIN_EXPONENT_BITS` — the gossip's lift factors ``1`` and
    ``2^k`` — the chain is a few squarings long and each base takes one
    builtin ``pow`` instead.  Negative exponents are supported for
    invertible bases (as ``pow`` does); a non-invertible base with a
    negative exponent raises :class:`CryptoError`.
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
    if all(exponent.bit_length() < _STRAUS_MIN_EXPONENT_BITS for _, exponent in pairs):
        for base, exponent in pairs:
            result = (result * pow(base, exponent, modulus)) % modulus
        return result
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


def _split_pow(base: int, exponent: int, prime: int, modulus: int, fermat: int,
               s: int) -> int:
    """``base^exponent mod prime^{s+1}`` from ``fermat = base^{prime−1} mod
    prime^{s+1}``, for ``0 <= exponent < prime^s (prime−1)``.

    ``exponent = u + (prime−1)·w`` with ``u < prime − 1`` and ``w < prime^s``;
    ``fermat = 1 + prime·T``, so ``fermat^w`` is the binomial ``Σ_{k≤s}
    C(w, k)·(prime·T)^k`` — every later term is divisible by
    ``prime^{s+1}``.  What is left is one ``u``-exponent power.
    """
    high, low = divmod(exponent, prime - 1)
    step = fermat - 1
    lift = 1
    term = 1
    binomial = 1
    for k in range(1, s + 1):
        binomial = binomial * (high - k + 1) // k
        if not binomial:
            break
        term = (term * step) % modulus
        lift += binomial * term
    return (powmod(base % modulus, low, modulus) * lift) % modulus


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
    exponents (~3–4× faster at realistic key sizes), and keeps the bounded
    Fermat cache that partial decryption and decryption share (see
    :meth:`partial_decryption_power`).  It also draws the fixed
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
            #: ciphertext -> (c^{p-1} mod p^{s+1}, c^{q-1} mod q^{s+1}), oldest first.
            self._fermat_powers: dict[int, tuple[int, int]] = {}
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

    def _fermat_powers_of(self, ciphertext: int) -> tuple[int, int]:
        """``(c^{p−1} mod p^{s+1}, c^{q−1} mod q^{s+1})``, cached per ciphertext.

        One ``(p−1)``- and one ``(q−1)``-exponent power, paid once per
        ciphertext however many shares decrypt it.  The cache keeps at most
        :data:`_FERMAT_CACHE_LIMIT` ciphertexts and evicts the oldest.
        """
        cached = self._fermat_powers.get(ciphertext)
        if cached is None:
            cached = (
                powmod(ciphertext % self.p_to_s1, self.p - 1, self.p_to_s1),
                powmod(ciphertext % self.q_to_s1, self.q - 1, self.q_to_s1),
            )
            if len(self._fermat_powers) >= _FERMAT_CACHE_LIMIT:
                del self._fermat_powers[next(iter(self._fermat_powers))]
            self._fermat_powers[ciphertext] = cached
        return cached

    def partial_decryption_power(self, ciphertext: int, exponent: int) -> int:
        """``ciphertext^exponent mod n^{s+1}`` at half the exponent length.

        Mod ``p^{s+1}`` the exponent is reduced mod the group order ``p^s
        (p−1)`` and split as ``u + (p−1)·w``: ``c^e ≡ c^u · (c^{p−1})^w``,
        and ``(c^{p−1})^w = (1 + p·T)^w`` is an ``(s+1)``-term binomial, so
        the only power left is ``c^u`` with ``u < p − 1`` (likewise mod
        ``q^{s+1}``).  The Fermat powers ``c^{p−1}`` / ``c^{q−1}`` come from
        the per-key cache, which is what lets every helper of a round share
        them.  The result is the integer ``pow(c, e, n^{s+1})`` gives;
        public-only contexts and bases not coprime to ``n`` take that
        ``pow``.
        """
        if not self.has_private or math.gcd(ciphertext, self.n) != 1:
            return powmod(ciphertext, exponent, self.modulus)
        fermat_p, fermat_q = self._fermat_powers_of(ciphertext)
        exponent_p, exponent_q = self._reduced_exponents(exponent)
        residue_p = _split_pow(ciphertext, exponent_p, self.p, self.p_to_s1, fermat_p, self.s)
        residue_q = _split_pow(ciphertext, exponent_q, self.q, self.q_to_s1, fermat_q, self.s)
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
        The two powers are the Fermat powers partial decryption caches.
        """
        if not self.has_private:
            raise CryptoError("CRT decryption requires the private key")
        fermat_p, fermat_q = self._fermat_powers_of(ciphertext)
        residue_p = (_dlog_one_plus_base(self.p, self.s, fermat_p) * self.h_p) % self.p_to_s
        residue_q = (_dlog_one_plus_base(self.q, self.s, fermat_q) * self.h_q) % self.q_to_s
        difference = ((residue_q - residue_p) * self.p_to_s_inv_q) % self.q_to_s
        return residue_p + self.p_to_s * difference


# --------------------------------------------------------------------------- blinder source
class BlinderPool:
    """Source of Damgård–Jurik encryption blinders (``n^s``-th residues).

    :meth:`take` makes each blinder when it is used — one draw, then
    :meth:`PrecomputedKey.blinder` — and nothing is kept between calls, so
    the draws are made in use order and a process that inherits the object
    through ``fork`` shares only public data (``y`` and the window tables)
    with its parent: every later draw comes from its own OS entropy.

    A public-only context draws ``r`` with
    :func:`~repro.crypto.math_utils.random_coprime`, like fresh encryption,
    so its ciphertexts are bit-identical to unpooled ones given the same
    randomness stream.  A private context (the in-process simulation backend
    holds the dealer key) draws the short exponent ``x`` with
    :func:`~repro.crypto.math_utils.random_below` ``(2^L)``: the ciphertexts
    on the stream ``x₁, x₂, …`` are the textbook ciphertexts with randomness
    ``y^{x₁} mod n, y^{x₂} mod n, …`` (``y`` is
    :attr:`PrecomputedKey.blinder_root`).  *rng* replaces that draw; it is
    called with the same bound (``2^L`` or ``n``).

    The name says "pool" because the cost model still prices a blinder as
    work a device may precompute in idle time (``offline``).  It stays a
    class rather than a method of :class:`PrecomputedKey` because the
    benchmark suite's tracer times blinders by wrapping
    ``BlinderPool.take``; folding it in waits on that boundary moving
    (ROADMAP.md item 1(b)).
    """

    def __init__(
        self,
        precomputed: PrecomputedKey,
        rng: Callable[[int], int] | None = None,
    ) -> None:
        self.precomputed = precomputed
        if precomputed.has_private:
            draw, self._draw_bound = random_below, 1 << precomputed.blinder_exponent_bits
        else:
            draw, self._draw_bound = random_coprime, precomputed.n
        self._draw = rng if rng is not None else draw

    def take(self) -> int:
        """A fresh blinder from one new draw."""
        return self.precomputed.blinder(self._draw(self._draw_bound))
