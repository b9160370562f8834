"""Tests of the modular-arithmetic fast path (crypto/fastmath.py).

The fastmath layer changes wall-clock time and nothing a decryption sees:
CRT decryption must agree with plain decryption, pooled
encryption/rerandomisation must agree with the fresh path (bit for bit given
the same randomness stream on a public-only context; bit for bit with
randomness ``y^x mod n`` — :func:`textbook_draw` — on the exponent stream
``x₁, x₂, …`` when the pool holds the factorisation and its fixed-base
sampler), partial decryption at half the exponent must give the textbook
``pow`` for every share, multi-exponentiation must agree with a product of
``pow`` calls on both sides of its Straus cutoff, and the backend — which always runs the fast path — must produce the
integers the textbook functions of ``damgard_jurik`` / ``threshold``
produce.  Most invariants are property-based (Hypothesis) over all supported
degrees.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import damgard_jurik as dj
from repro.crypto import fastmath
from repro.crypto import threshold as th
from repro.crypto.backends import DamgardJurikBackend
from repro.crypto.fastmath import BlinderPool, PrecomputedKey, multi_pow
from repro.crypto.math_utils import random_below, random_coprime
from repro.exceptions import CryptoError
from repro.gossip.encrypted_sum import (
    average_estimates,
    fresh_estimate,
    rerandomize_estimate,
)

# One shared key pair per degree: key generation inside @given is far too slow.
KEYS = {s: dj.generate_keypair(key_bits=128, s=s) for s in (1, 2, 3)}
PRECOMPUTED = {s: PrecomputedKey.from_private_key(private) for s, (_, private) in KEYS.items()}

plaintext_fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                                allow_infinity=False)


def textbook_draw(precomputed: PrecomputedKey, x: int) -> int:
    """``y^x mod n``: the randomness whose *textbook* blinder is the blinder
    a private :class:`PrecomputedKey` makes from the exponent ``x``."""
    return pow(precomputed.blinder_root, x, precomputed.n)


def exponent_bound(precomputed: PrecomputedKey) -> int:
    """Exclusive bound of the exponents a private context draws."""
    return 1 << precomputed.blinder_exponent_bits


def recorded_stream(seed: int):
    """A replayable stand-in for ``random_coprime``: the same seed yields the
    same draws for the same modulus, in order."""
    rng = random.Random(seed)

    def draw(n: int) -> int:
        while True:
            candidate = rng.randrange(1, n)
            if math.gcd(candidate, n) == 1:
                return candidate

    return draw


def recorded_exponents(seed: int):
    """A replayable stand-in for ``random_below``: the same seed yields the
    same exponents for the same bound, in order."""
    rng = random.Random(seed)
    return rng.randrange


def _plaintext(s: int, fraction: float) -> int:
    """Map a fraction to a plaintext spanning the whole Z_{n^s} range."""
    modulus = KEYS[s][0].plaintext_modulus
    return min(int(fraction * modulus), modulus - 1)


class TestCrtDecryption:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(fraction=plaintext_fractions)
    @settings(max_examples=25, deadline=None)
    def test_crt_decrypt_equals_plain_decrypt(self, s, fraction):
        public, private = KEYS[s]
        plaintext = _plaintext(s, fraction)
        ciphertext = dj.encrypt(public, plaintext)
        plain = dj.decrypt(private, ciphertext)
        fast = dj.decrypt(private, ciphertext, precomputed=PRECOMPUTED[s])
        assert plain == fast == plaintext

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_crt_decrypt_boundary_plaintexts(self, s):
        public, private = KEYS[s]
        for plaintext in (0, 1, public.plaintext_modulus - 1):
            ciphertext = dj.encrypt(public, plaintext)
            assert dj.decrypt(private, ciphertext, precomputed=PRECOMPUTED[s]) == plaintext

    def test_crt_decrypt_requires_private_key(self):
        public, _private = KEYS[1]
        public_only = PrecomputedKey.from_public_key(public)
        assert not public_only.has_private
        with pytest.raises(CryptoError):
            public_only.decrypt(dj.encrypt(public, 5))

    def test_mismatched_primes_rejected(self):
        public, _ = KEYS[1]
        with pytest.raises(CryptoError):
            PrecomputedKey(public, p=3, q=5)

    def test_primes_dividing_the_group_order_rejected(self):
        """p = 11 divides q − 1 = 22: ``x ↦ x^{p^s}`` does not permute the
        order-22 subgroup mod ``q^{s+1}``, so the textbook blinders fill only
        an index-11 subgroup of what ``blinder`` samples.  Only
        ``generate_keypair`` retries on this; a hand-built key must fail."""
        p, q = 11, 23
        public = dj.DamgardJurikPublicKey(n=p * q, s=1)
        textbook = {pow(r, public.n, public.n**2)
                    for r in range(1, public.n) if math.gcd(r, public.n) == 1}
        assert len(textbook) * 11 == (p - 1) * (q - 1)
        with pytest.raises(CryptoError, match="gcd"):
            PrecomputedKey(public, p=p, q=q)
        with pytest.raises(CryptoError, match="gcd"):
            PrecomputedKey.from_private_key(
                dj.DamgardJurikPrivateKey(public, math.lcm(p - 1, q - 1), p, q)
            )


class TestCrtPow:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(exponent=st.integers(min_value=-(2**220), max_value=2**220))
    @settings(max_examples=25, deadline=None)
    def test_crt_pow_equals_pow(self, s, exponent):
        public, _private = KEYS[s]
        base = dj.encrypt(public, 42)  # coprime to n by construction
        expected = pow(base, exponent, public.ciphertext_modulus)
        assert PRECOMPUTED[s].crt_pow(base, exponent) == expected

    def test_non_coprime_base_falls_back_exactly(self):
        public, private = KEYS[1]
        base = private.p * 3  # shares a factor with n: no CRT shortcut exists
        exponent = 1 << 200
        assert PRECOMPUTED[1].crt_pow(base, exponent) == pow(
            base, exponent, public.ciphertext_modulus
        )

    def test_exponent_residues_are_cached(self):
        precomputed = PRECOMPUTED[1]
        base = dj.encrypt(KEYS[1][0], 7)
        exponent = 3 << 180
        precomputed.crt_pow(base, exponent)
        assert exponent in precomputed._exponent_residues


class TestPartialDecryptionPower:
    """``partial_decryption_power`` splits each CRT half's exponent as
    ``u + (p−1)·w`` and lifts the cached Fermat power ``c^{p−1}`` by an
    ``(s+1)``-term binomial — pinned against the textbook ``pow``."""

    THRESHOLD_KEYS = {
        s: th.generate_threshold_keypair(key_bits=128, s=s, threshold=3, n_shares=5)
        for s in (1, 2, 3)
    }

    @classmethod
    def key(cls, s):
        public, shares, dealer = cls.THRESHOLD_KEYS[s]
        return public, shares, PrecomputedKey.from_private_key(dealer)

    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(fraction=plaintext_fractions)
    @settings(max_examples=15, deadline=None)
    def test_every_share_equals_the_textbook(self, s, fraction):
        public, shares, precomputed = self.key(s)
        modulus = public.public_key.plaintext_modulus
        ciphertext = dj.encrypt(public.public_key, min(int(fraction * modulus), modulus - 1))
        for share in shares:
            textbook = th.partial_decrypt(public, share, ciphertext)
            fast = th.partial_decrypt(public, share, ciphertext, precomputed=precomputed)
            assert fast == textbook

    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(ciphertext=st.integers(min_value=0, max_value=2**600),
           exponent=st.integers(min_value=-(2**600), max_value=2**600))
    @settings(max_examples=40, deadline=None)
    def test_random_inputs_equal_pow(self, s, ciphertext, exponent):
        """Any base below ``n^{s+1}`` — coprime to ``n`` or not — and any
        exponent an invertible base allows."""
        _public, _shares, precomputed = self.key(s)
        modulus = precomputed.modulus
        ciphertext %= modulus
        if exponent < 0 and math.gcd(ciphertext, precomputed.n) != 1:
            exponent = -exponent  # no inverse exists; pow refuses it too
        assert precomputed.partial_decryption_power(ciphertext, exponent) == pow(
            ciphertext, exponent, modulus
        )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_edge_inputs(self, s):
        public, shares, precomputed = self.key(s)
        modulus = precomputed.modulus
        exponent = 2 * public.delta * shares[0].value
        ciphertext = dj.encrypt(public.public_key, 5)
        assert precomputed.partial_decryption_power(1, exponent) == 1
        assert precomputed.partial_decryption_power(ciphertext, 0) == 1
        assert precomputed.partial_decryption_power(ciphertext, 1) == ciphertext
        for base in (precomputed.p * 3, precomputed.q**2, 0):  # not coprime: falls back
            assert precomputed.partial_decryption_power(base, exponent) == pow(
                base, exponent, modulus
            )
            assert base not in precomputed._fermat_powers

    def test_public_only_context_takes_pow(self):
        public, shares, _precomputed = self.key(1)
        public_only = PrecomputedKey.from_public_key(public.public_key)
        ciphertext = dj.encrypt(public.public_key, 9)
        exponent = 2 * public.delta * shares[1].value
        assert public_only.partial_decryption_power(ciphertext, exponent) == pow(
            ciphertext, exponent, public.public_key.ciphertext_modulus
        )

    def test_cache_stays_within_its_bound_and_eviction_changes_nothing(self):
        public, shares, precomputed = self.key(1)
        limit = fastmath._FERMAT_CACHE_LIMIT
        exponent = 2 * public.delta * shares[2].value
        ciphertexts = [dj.encrypt(public.public_key, m) for m in range(limit + 40)]
        first = [precomputed.partial_decryption_power(c, exponent) for c in ciphertexts]
        assert len(precomputed._fermat_powers) == limit
        assert ciphertexts[0] not in precomputed._fermat_powers  # oldest went first
        assert ciphertexts[-1] in precomputed._fermat_powers
        again = [precomputed.partial_decryption_power(c, exponent) for c in ciphertexts[:50]]
        assert len(precomputed._fermat_powers) == limit
        assert again == first[:50] == [pow(c, exponent, precomputed.modulus)
                                       for c in ciphertexts[:50]]

    def test_a_committee_round_pays_one_fermat_power_per_ciphertext(self, monkeypatch):
        """Three helpers, one vector: per CRT half one ``(p−1)``-exponent
        power per ciphertext, then one short power per helper — and a
        later ``decrypt`` of the same ciphertexts pays none."""
        backend = DamgardJurikBackend(key_bits=128, threshold=3, n_shares=5)
        precomputed = backend._precomputed
        vector = backend.encrypt_vector([0.5, -0.25, 0.125, 0.0])
        count = len(vector.payload)
        calls = []

        def counting(base, exponent, modulus):
            calls.append(exponent)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(fastmath, "powmod", counting)
        partials = [backend.partial_decrypt_vector(index, vector) for index in (1, 2, 3)]
        assert calls.count(precomputed.p - 1) == calls.count(precomputed.q - 1) == count
        short = [e for e in calls if e not in (precomputed.p - 1, precomputed.q - 1)]
        assert len(short) == 3 * 2 * count
        assert all(e < max(precomputed.p, precomputed.q) for e in short)
        calls.clear()
        for ciphertext in vector.payload:
            dj.decrypt(backend._dealer_key, ciphertext, precomputed=precomputed)
        assert calls == []
        np.testing.assert_allclose(backend.combine_vector(partials),
                                   [0.5, -0.25, 0.125, 0.0], atol=1e-5)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_decrypt_after_eviction_is_unchanged(self, s, monkeypatch):
        public, private = KEYS[s]
        precomputed = PrecomputedKey.from_private_key(private)
        monkeypatch.setattr(fastmath, "_FERMAT_CACHE_LIMIT", 2)
        ciphertexts = [dj.encrypt(public, m) for m in (3, 4, 5, 6)]
        assert [precomputed.decrypt(c) for c in ciphertexts] == [3, 4, 5, 6]
        assert len(precomputed._fermat_powers) == 2
        assert [precomputed.decrypt(c) for c in ciphertexts] == [3, 4, 5, 6]


class TestBlinderPools:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(fraction=plaintext_fractions)
    @settings(max_examples=10, deadline=None)
    def test_pooled_encrypt_decrypts_like_fresh(self, s, fraction):
        public, private = KEYS[s]
        plaintext = _plaintext(s, fraction)
        pool = BlinderPool(PRECOMPUTED[s])
        pooled = dj.encrypt(public, plaintext, precomputed=PRECOMPUTED[s],
                            blinder=pool.take())
        assert dj.decrypt(private, pooled) == plaintext

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pooled_rerandomize_preserves_plaintext(self, s):
        public, private = KEYS[s]
        plaintext = _plaintext(s, 0.37)
        pool = BlinderPool(PRECOMPUTED[s])
        ciphertext = dj.encrypt(public, plaintext)
        refreshed = dj.rerandomize(public, ciphertext, blinder=pool.take())
        assert refreshed != ciphertext
        assert dj.decrypt(private, refreshed) == plaintext

    @staticmethod
    def fresh_and_pooled(s, precomputed, draws, textbook_randomness):
        """Four messages encrypted by the textbook on ``textbook_randomness(d)``
        and through a pool on *precomputed* fed the same *draws* ``d``."""
        public, _private = KEYS[s]
        fresh = [
            dj.encrypt(public, m, randomness=textbook_randomness(d))
            for m, d in zip((1, 2, 3, 4), draws)
        ]
        stream = iter(draws)
        pool = BlinderPool(precomputed, rng=lambda _n: next(stream))
        pooled = [
            dj.encrypt(public, m, precomputed=precomputed, blinder=pool.take())
            for m in (1, 2, 3, 4)
        ]
        return fresh, pooled

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pooled_ciphertexts_bit_identical_given_same_stream(self, s):
        """The private pool's ciphertexts on the exponents x₁, x₂, … are the
        textbook's with randomness y^{x₁} mod n, y^{x₂} mod n, …"""
        precomputed = PRECOMPUTED[s]
        draws = [random_below(exponent_bound(precomputed)) for _ in range(4)]
        fresh, pooled = self.fresh_and_pooled(
            s, precomputed, draws, lambda x: textbook_draw(precomputed, x)
        )
        assert fresh == pooled

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_public_pool_bit_identical_on_the_same_stream(self, s):
        """The pool ``measure_crypto_costs`` prices holds no factorisation
        and computes the textbook r^{n^s}: same stream, same integers."""
        public = KEYS[s][0]
        draws = [random_coprime(public.n) for _ in range(4)]
        fresh, pooled = self.fresh_and_pooled(
            s, PrecomputedKey.from_public_key(public), draws, lambda r: r
        )
        assert fresh == pooled

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_explicit_randomness_takes_the_textbook_path(self, s):
        public, _private = KEYS[s]
        r = random_coprime(public.n)
        pool = BlinderPool(PRECOMPUTED[s])
        assert dj.encrypt(
            public, 5, randomness=r, precomputed=PRECOMPUTED[s], blinder=pool.take()
        ) == dj.encrypt(public, 5, randomness=r)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_take_makes_one_blinder_per_draw_in_draw_order(self, s):
        """Nothing is drawn ahead: k takes ask for k draws, and the i-th
        blinder is the blinder of the i-th draw."""
        precomputed = PRECOMPUTED[s]
        source = recorded_exponents(s)
        draws = []

        def draw(bound):
            draws.append(source(bound))
            return draws[-1]

        pool = BlinderPool(precomputed, rng=draw)
        assert draws == []
        taken = [pool.take() for _ in range(5)]
        assert len(draws) == 5
        assert taken == [precomputed.blinder(x) for x in draws]

    def test_pool_keeps_nothing_between_takes(self):
        """A blinder depends on its draw alone: one pool fed x₁, x₂, x₃ and
        three pools fed one of them each make the same blinders."""
        precomputed = PRECOMPUTED[1]
        draws = [random_below(exponent_bound(precomputed)) for _ in range(3)]
        stream = iter(draws)
        shared = BlinderPool(precomputed, rng=lambda _bound: next(stream))
        together = [shared.take() for _ in draws]
        apart = [BlinderPool(precomputed, rng=lambda _bound, x=x: x).take()
                 for x in draws]
        assert together == apart
        assert len(set(together)) == 3

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_draw_bound_follows_the_context(self, s):
        """A private context asks for a short exponent below ``2^L``; a
        public-only one for ``r`` below ``n``, as fresh encryption does."""
        public = KEYS[s][0]
        bounds = []

        def draw(bound):
            bounds.append(bound)
            return 1

        BlinderPool(PRECOMPUTED[s], rng=draw).take()
        BlinderPool(PrecomputedKey.from_public_key(public), rng=draw).take()
        assert bounds == [exponent_bound(PRECOMPUTED[s]), public.n]

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_a_ready_blinder_stands_for_its_randomness(self, s):
        """``encrypt(m, blinder=r^{n^s})`` is ``encrypt(m, randomness=r)``,
        with or without the CRT context."""
        public, private = KEYS[s]
        r = random_coprime(public.n)
        blinder = pow(r, public.plaintext_modulus, public.ciphertext_modulus)
        plaintext = _plaintext(s, 0.61)
        expected = dj.encrypt(public, plaintext, randomness=r)
        assert dj.encrypt(public, plaintext, blinder=blinder) == expected
        assert dj.encrypt(public, plaintext, precomputed=PRECOMPUTED[s],
                          blinder=blinder) == expected
        assert dj.decrypt(private, expected) == plaintext

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_rerandomize_with_a_ready_blinder_is_one_multiplication(self, s):
        public, private = KEYS[s]
        ciphertext = dj.encrypt(public, _plaintext(s, 0.2))
        blinder = BlinderPool(PRECOMPUTED[s]).take()
        refreshed = dj.rerandomize(public, ciphertext, blinder=blinder)
        assert refreshed == (ciphertext * blinder) % public.ciphertext_modulus
        assert dj.decrypt(private, refreshed) == dj.decrypt(private, ciphertext)


class TestFixedBaseBlinder:
    """``PrecomputedKey.blinder`` with the factorisation is ``h^x`` for the
    fixed ``h = y^{n^s}`` — pinned against the textbook, not assumed."""

    TOY_PRIMES = [(11, 13), (17, 29), (19, 23)]

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("p,q", TOY_PRIMES)
    def test_exhaustive_toy_keys(self, p, q, s):
        """For *every* exponent below λ = lcm(p−1, q−1): the blinder is the
        textbook blinder of y^x mod n, depends on x only mod λ, and is an
        encryption of 0."""
        public = dj.DamgardJurikPublicKey(n=p * q, s=s)
        lam = math.lcm(p - 1, q - 1)
        private = dj.DamgardJurikPrivateKey(public, lam, p, q)
        precomputed = PrecomputedKey.from_private_key(private)
        y = precomputed.blinder_root
        n_to_s, modulus = public.plaintext_modulus, public.ciphertext_modulus
        for x in range(lam):
            blinder = precomputed.blinder(x)
            assert blinder == pow(pow(y, x, public.n), n_to_s, modulus)
            assert precomputed.blinder(x + lam) == blinder
            assert dj.decrypt(private, blinder) == 0

    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=20, deadline=None)
    def test_full_length_exponents_match_the_textbook(self, s, fraction):
        """Exponents of the drawn length walk every table row."""
        public = KEYS[s][0]
        precomputed = PRECOMPUTED[s]
        x = int(fraction * exponent_bound(precomputed))
        assert precomputed.blinder(x) == pow(
            textbook_draw(precomputed, x), public.plaintext_modulus,
            public.ciphertext_modulus,
        )

    def test_exponent_length_follows_the_key(self):
        assert PRECOMPUTED[1].blinder_exponent_bits == 256
        _public, private = dj.generate_keypair(key_bits=768, s=1)
        assert PrecomputedKey.from_private_key(private).blinder_exponent_bits == 384

    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_pooled_blinders_are_encryptions_of_zero(self, s, seed):
        public, private = KEYS[s]
        pool = BlinderPool(PRECOMPUTED[s], rng=recorded_stream(seed))
        for _ in range(3):
            blinder = pool.take()
            assert pow(blinder, private.lam, public.ciphertext_modulus) == 1
            assert dj.decrypt(private, blinder) == 0


class TestAfterFork:
    """The no-shared-blinder rule: a process that inherits a backend through
    fork uses none of the blinders its parent made, and needs no step of its
    own for that — the pool keeps no blinder to inherit."""

    def test_a_forked_child_shares_no_blinder_with_its_parent(self):
        import json
        import os

        backend = DamgardJurikBackend(key_bits=128, threshold=2, n_shares=3)
        before = {backend._pool.take() for _ in range(8)}
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                vector = backend.encrypt_vector([0.25, 0.5])
                report = {
                    "blinders": [backend._pool.take() for _ in range(8)],
                    "payload": list(vector.payload),
                    "decrypted": list(backend.decrypt_with_shares(vector, [1, 2])),
                }
                with os.fdopen(write_end, "w") as handle:
                    json.dump(report, handle)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end) as handle:
            text = handle.read()
        _pid, wait_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(wait_status) == 0
        report = json.loads(text)
        after = {backend._pool.take() for _ in range(8)}
        child = set(report["blinders"])
        assert len(child) == 8
        assert not child & before
        assert not child & after
        dealer = backend._dealer_key
        assert all(dj.decrypt(dealer, blinder) == 0 for blinder in child)
        assert report["decrypted"] == pytest.approx([0.25, 0.5], abs=1e-5)

    def test_plain_backend_has_nothing_to_do(self, monkeypatch):
        """A plain ciphertext carries no blinder: the plain backend draws no
        randomness, so a fork leaves it nothing to share."""
        from repro.crypto import damgard_jurik, fastmath, math_utils
        from repro.crypto.backends import PlainBackend

        def refuse(_bound):
            raise AssertionError("the plain backend drew randomness")

        for module in (math_utils, fastmath, damgard_jurik):
            for name in ("random_below", "random_coprime"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        backend = PlainBackend()
        vector = backend.encrypt_vector([0.25, 0.5])
        assert backend.rerandomize(vector) is vector
        assert backend.counter.rerandomizations == len(vector.payload)


class TestMultiExponentiation:
    @given(
        bases=st.lists(st.integers(min_value=2, max_value=2**64), min_size=1, max_size=9),
        exponents=st.lists(
            st.sampled_from([0, 1, -1, 2, 64, -3])
            | st.integers(min_value=-(2**7), max_value=2**7)
            | st.integers(min_value=-(2**80), max_value=2**80),
            min_size=1, max_size=9,
        ),
        modulus=st.integers(min_value=3, max_value=2**64) | st.just((1 << 89) - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_multi_pow_equals_product_of_pows(self, bases, exponents, modulus):
        """Short exponents (one ``pow`` per base), long ones (Straus) and
        both mixed in one call."""
        length = min(len(bases), len(exponents))
        bases, exponents = bases[:length], exponents[:length]
        expected = 1
        for base, exponent in zip(bases, exponents):
            if exponent < 0 and math.gcd(base, modulus) != 1:
                with pytest.raises(CryptoError):  # no inverse exists
                    multi_pow(bases, exponents, modulus)
                return
            expected = (expected * pow(base, exponent, modulus)) % modulus
        assert multi_pow(bases, exponents, modulus) == expected

    def test_the_cutoff_picks_the_path(self, monkeypatch):
        """All exponents short (the gossip lifts): one ``pow`` per base and
        no Straus group; one Lagrange-sized exponent: Straus."""
        groups = []
        straus = fastmath._straus_group
        monkeypatch.setattr(fastmath, "_straus_group",
                            lambda pairs, modulus: groups.append(pairs) or straus(pairs, modulus))
        modulus = (1 << 89) - 1
        short = (1 << (fastmath._STRAUS_MIN_EXPONENT_BITS - 1)) - 1
        assert multi_pow([3, 5], [short, 1], modulus) == (pow(3, short, modulus) * 5) % modulus
        assert groups == []
        lagrange = -(1 << 14) - 7
        assert multi_pow([3, 5], [short, lagrange], modulus) == (
            pow(3, short, modulus) * pow(5, lagrange, modulus)) % modulus
        assert len(groups) == 1

    def test_non_invertible_base_with_negative_exponent_raises(self):
        for exponents in ([-1, 1], [-1, 1 << 40], [-(1 << 20), 2]):
            with pytest.raises(CryptoError):
                multi_pow([6, 5], exponents, 9)

    def test_multi_pow_empty_exponents(self):
        assert multi_pow([5, 7], [0, 0], 101) == 1

    def test_multi_pow_validation(self):
        with pytest.raises(CryptoError):
            multi_pow([2, 3], [1], 101)
        with pytest.raises(CryptoError):
            multi_pow([2], [1], 0)


class TestThresholdFastPath:
    @pytest.fixture(scope="class")
    def threshold_key(self):
        public, shares, dealer = th.generate_threshold_keypair(
            key_bits=128, s=2, threshold=3, n_shares=5
        )
        return public, shares, PrecomputedKey.from_private_key(dealer)

    def test_partial_decrypt_crt_is_identical(self, threshold_key):
        public, shares, precomputed = threshold_key
        ciphertext = dj.encrypt(public.public_key, 31337)
        for share in shares:
            plain = th.partial_decrypt(public, share, ciphertext)
            fast = th.partial_decrypt(public, share, ciphertext, precomputed=precomputed)
            assert plain.value == fast.value

    def test_combine_multiexp_matches_loop(self, threshold_key):
        public, shares, precomputed = threshold_key
        message = 987654321
        ciphertext = dj.encrypt(public.public_key, message)
        partials = [
            th.partial_decrypt(public, share, ciphertext, precomputed=precomputed)
            for share in shares[:3]
        ]
        assert (
            th.combine_partial_decryptions(public, partials, multiexp=True)
            == th.combine_partial_decryptions(public, partials, multiexp=False)
            == message
        )


class TestBackendAgainstTextbook:
    """The backend has no "off" switch; what keeps its arithmetic honest is
    this comparison, integer for integer, with the textbook functions called
    with ``precomputed=None, blinder=None, multiexp=False`` on the same key.
    The backend's pool replays a recorded exponent stream x₁, x₂, …; the
    textbook side replays the same recording through :func:`textbook_draw`,
    y^{x₁} mod n, y^{x₂} mod n, … — the randomness whose textbook blinders
    the backend's fixed-base sampler computes."""

    VALUES = np.linspace(-0.9, 0.9, 7)
    OTHER = np.linspace(0.8, -0.7, 7)

    @pytest.fixture(params=[(1, "off"), (1, "auto"), (2, "off"), (2, "auto")],
                    ids=lambda param: f"s{param[0]}-packing-{param[1]}")
    def backend(self, request, monkeypatch):
        degree, packing = request.param
        # The pool binds its exponent source at construction; the textbook
        # functions look their randomness up per call.  Two replays of one
        # recording.
        monkeypatch.setattr("repro.crypto.fastmath.random_below", recorded_exponents(2024))
        backend = DamgardJurikBackend(
            key_bits=256, degree=degree, threshold=2, n_shares=3, packing=packing,
        )
        precomputed = backend._precomputed
        replay = recorded_exponents(2024)
        monkeypatch.setattr(
            "repro.crypto.damgard_jurik.random_coprime",
            lambda _n: textbook_draw(precomputed, replay(exponent_bound(precomputed))),
        )
        assert backend.is_packed == (packing == "auto")
        return backend

    @staticmethod
    def plaintexts(backend, values):
        array = np.asarray(values, dtype=float)
        if backend.packing is not None:
            return backend.packing.pack_vector(array)
        return backend.codec.encode_vector(array)

    def textbook_encrypt(self, backend, values):
        return tuple(
            dj.encrypt(backend.public_key, plaintext, precomputed=None, blinder=None)
            for plaintext in self.plaintexts(backend, values)
        )

    def test_encrypt_vector(self, backend):
        vector = backend.encrypt_vector(self.VALUES)
        assert vector.payload == self.textbook_encrypt(backend, self.VALUES)
        count = len(vector.payload)
        assert backend.counter.encryptions == count
        assert backend.counter.pooled_encryptions == count

    def test_rerandomize(self, backend):
        vector = backend.encrypt_vector(self.VALUES)
        refreshed = backend.rerandomize(vector)
        reference = tuple(
            dj.rerandomize(backend.public_key, ciphertext)
            for ciphertext in self.textbook_encrypt(backend, self.VALUES)
        )
        assert refreshed.payload == reference != vector.payload
        assert refreshed.weight == vector.weight
        assert backend.counter.rerandomizations == len(reference)

    def test_each_ciphertext_takes_one_blinder(self, backend, monkeypatch):
        """Encryption and refresh take one blinder per ciphertext, when the
        ciphertext is made, and no other operation takes one."""
        take = backend._pool.take
        takes = []
        monkeypatch.setattr(backend._pool, "take", lambda: takes.append(1) or take())
        vector = backend.encrypt_vector(self.VALUES)
        assert len(takes) == len(vector.payload) == backend.counter.pooled_encryptions
        backend.rerandomize(vector)
        assert len(takes) == 2 * len(vector.payload)
        backend.linear_combination([vector, vector], [2, 1])
        assert len(takes) == (backend.counter.pooled_encryptions
                              + backend.counter.rerandomizations)

    def test_linear_combination(self, backend):
        first = backend.encrypt_vector(self.VALUES)
        second = backend.encrypt_vector(self.OTHER)
        backend.counter.reset()
        combined = backend.linear_combination([first, second], [4, 1])
        public = backend.public_key
        reference = tuple(
            dj.add_ciphertexts(
                public, dj.multiply_plaintext(public, a, 4, precomputed=None), b
            )
            for a, b in zip(self.textbook_encrypt(backend, self.VALUES),
                            self.textbook_encrypt(backend, self.OTHER))
        )
        assert combined.payload == reference
        assert combined.weight == 5
        # One non-unit factor (one lift) plus one fold, per ciphertext.
        assert backend.counter.additions == 2 * len(reference)

    def test_partial_decrypt_and_combine(self, backend):
        vector = backend.encrypt_vector(self.VALUES)
        partials = [backend.partial_decrypt_vector(index, vector) for index in (1, 3)]
        ciphertexts = self.textbook_encrypt(backend, self.VALUES)
        reference = {
            index: [
                th.partial_decrypt(backend.threshold_public, backend.share_for(index),
                                   ciphertext, precomputed=None)
                for ciphertext in ciphertexts
            ]
            for index in (1, 3)
        }
        for partial in partials:
            assert partial.payload == tuple(
                entry.value for entry in reference[partial.share_index]
            )
        count = len(vector.payload)
        assert backend.counter.partial_decryptions == 2 * count

        decoded = backend.combine_vector(partials)
        combined = [
            th.combine_partial_decryptions(
                backend.threshold_public,
                [reference[1][component], reference[3][component]],
                multiexp=False,
            )
            for component in range(count)
        ]
        assert combined == self.plaintexts(backend, self.VALUES)
        if backend.packing is not None:
            expected = backend.packing.unpack_vector(combined, len(self.VALUES), weight=1)
        else:
            expected = backend.codec.decode_vector(combined)
        np.testing.assert_array_equal(decoded, expected)
        np.testing.assert_allclose(decoded, self.VALUES, atol=1e-5)
        assert backend.counter.combinations == count


class TestBackendOperations:
    @pytest.fixture(scope="class")
    def backend(self):
        return DamgardJurikBackend(key_bits=128, threshold=2, n_shares=3)

    def test_linear_combination_matches_lift_then_add(self, backend):
        first = backend.encrypt_vector([0.5, -0.25])
        second = backend.encrypt_vector([0.125, 0.5])
        combined = backend.linear_combination([first, second], [4, 2])
        reference = backend.add(
            backend.multiply_scalar(first, 4), backend.multiply_scalar(second, 2)
        )
        assert combined.weight == reference.weight == 6
        assert combined.payload == reference.payload

    def test_linear_combination_validation(self, backend):
        vector = backend.encrypt_vector([0.5])
        with pytest.raises(CryptoError):
            backend.linear_combination([], [])
        with pytest.raises(CryptoError):
            backend.linear_combination([vector], [1, 2])
        with pytest.raises(CryptoError):
            backend.linear_combination([vector], [0])

    def test_pair_average_then_rerandomize_decrypts_to_the_mean(self, backend):
        first = fresh_estimate(backend, [0.8, -0.4])
        second = fresh_estimate(backend, [0.2, 0.6])
        averaged = average_estimates(backend, first, second)
        refreshed = rerandomize_estimate(backend, averaged)
        decoded = backend.decrypt_with_shares(refreshed.vector, [1, 2])
        np.testing.assert_allclose(
            decoded / (1 << refreshed.halvings), [0.5, 0.1], atol=1e-5
        )
