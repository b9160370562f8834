"""Tests of the modular-arithmetic fast path (crypto/fastmath.py).

The fastmath layer changes wall-clock time and nothing a decryption sees:
CRT decryption must agree with plain decryption, pooled
encryption/rerandomisation must agree with the fresh path (bit for bit given
the same randomness stream on a public-only context; bit for bit with
randomness ``y^x mod n`` — :func:`textbook_draw` — on the exponent stream
``x₁, x₂, …`` when the pool holds the factorisation and its fixed-base
sampler), multi-exponentiation must agree with a product of ``pow`` calls,
and the backend — which always runs the fast path — must produce the
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
from repro.crypto import threshold as th
from repro.crypto.backends import DamgardJurikBackend
from repro.crypto.fastmath import (
    BlinderPool,
    PrecomputedKey,
    multi_pow,
    plan_pool_batch,
)
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


class TestBlinderPools:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(fraction=plaintext_fractions)
    @settings(max_examples=10, deadline=None)
    def test_pooled_encrypt_decrypts_like_fresh(self, s, fraction):
        public, private = KEYS[s]
        plaintext = _plaintext(s, fraction)
        pool = BlinderPool(PRECOMPUTED[s], batch_size=2)
        pooled = dj.encrypt(public, plaintext, precomputed=PRECOMPUTED[s], pool=pool)
        assert dj.decrypt(private, pooled) == plaintext

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pooled_rerandomize_preserves_plaintext(self, s):
        public, private = KEYS[s]
        plaintext = _plaintext(s, 0.37)
        pool = BlinderPool(PRECOMPUTED[s], batch_size=2)
        ciphertext = dj.encrypt(public, plaintext)
        refreshed = dj.rerandomize(public, ciphertext, pool=pool)
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
        pool = BlinderPool(precomputed, batch_size=2, rng=lambda _n: next(stream))
        pooled = [
            dj.encrypt(public, m, precomputed=precomputed, pool=pool)
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
        pool = BlinderPool(PRECOMPUTED[s], batch_size=2)
        assert dj.encrypt(
            public, 5, randomness=r, precomputed=PRECOMPUTED[s], pool=pool
        ) == dj.encrypt(public, 5, randomness=r)
        assert pool.served == 0

    def test_take_refills_in_fifo_batches(self):
        pool = BlinderPool(PRECOMPUTED[1], batch_size=3)
        assert len(pool) == 0
        pool.take()
        assert pool.generated == 3
        assert pool.served == 1
        assert len(pool) == 2

    def test_pool_validation(self):
        with pytest.raises(CryptoError):
            BlinderPool(PRECOMPUTED[1], batch_size=0)

    def test_sizes_the_pool_cannot_serve_are_refused(self):
        """A negative refill and a batch below 1 are refused where they are
        set, leaving the pool able to serve."""
        pool = BlinderPool(PRECOMPUTED[1], batch_size=2)
        with pytest.raises(CryptoError):
            pool.refill(-3)
        assert pool.generated == 0
        for size in (0, -1):
            with pytest.raises(CryptoError):
                pool.batch_size = size
        assert pool.batch_size == 2
        pool.take()
        assert pool.generated == 2

    def test_plan_pool_batch_clamps(self):
        assert plan_pool_batch(1) == 16
        assert plan_pool_batch(100) == 100
        assert plan_pool_batch(10**6) == 1024
        with pytest.raises(CryptoError):
            plan_pool_batch(0)


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
        pool = BlinderPool(PRECOMPUTED[s], batch_size=2, rng=recorded_stream(seed))
        for _ in range(3):
            blinder = pool.take()
            assert pow(blinder, private.lam, public.ciphertext_modulus) == 1
            assert dj.decrypt(private, blinder) == 0


class TestBackgroundRefill:
    """The refill worker thread moves generation off the hot path without
    perturbing the randomness stream (PR 2 follow-up)."""

    def test_background_pooled_ciphertexts_bit_identical_to_fresh(self):
        """pooled == fresh still holds with the refill thread running."""
        import time

        public = KEYS[1][0]
        precomputed = PRECOMPUTED[1]
        n_messages = 12
        draws = [random_below(exponent_bound(precomputed)) for _ in range(n_messages + 8)]
        fresh = [
            dj.encrypt(public, m, randomness=textbook_draw(precomputed, x))
            for m, x in zip(range(1, n_messages + 1), draws)
        ]
        stream = iter(draws)
        # Batch 4: the refiller wakes at 2 and keeps at most 6 pooled, so the
        # 12 takes draw at most 18 of the 20 prepared values.
        pool = BlinderPool(PRECOMPUTED[1], batch_size=4, rng=lambda _n: next(stream))
        pool.start_background_refill()
        try:
            pooled = []
            for m in range(1, n_messages + 1):
                pooled.append(
                    dj.encrypt(public, m, precomputed=PRECOMPUTED[1], pool=pool)
                )
                if m == n_messages // 2:
                    # Give the refiller a chance to interleave with takes.
                    time.sleep(0.01)
        finally:
            pool.stop_background_refill()
        assert fresh == pooled

    def test_background_refill_keeps_pool_above_low_water(self):
        import time

        pool = BlinderPool(PRECOMPUTED[1], batch_size=6)
        assert pool.low_water == 3
        pool.start_background_refill()
        try:
            deadline = time.monotonic() + 5.0
            while len(pool) <= 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(pool) > 3
            served_target = 6
            for _ in range(served_target):
                pool.take()
            assert pool.served == served_target
        finally:
            pool.stop_background_refill()
        assert pool._refill_thread is None

    def test_reset_discards_pooled_blinders(self):
        """A fork-inherited pool must be cleared before first use: shared
        blinders would make two processes' ciphertexts linkable."""
        pool = BlinderPool(PRECOMPUTED[1], batch_size=3)
        pool.refill()
        assert len(pool) == 3
        pool.reset()
        assert len(pool) == 0
        # The next take still works (fresh synchronous refill).
        pool.take()
        assert pool.served == 1

    def test_start_and_stop_are_idempotent(self):
        pool = BlinderPool(PRECOMPUTED[1], batch_size=2)
        pool.start_background_refill()
        pool.start_background_refill()
        pool.stop_background_refill()
        pool.stop_background_refill()
        assert pool._refill_thread is None

    def test_wake_up_mark_follows_a_resized_batch(self):
        """The backend sizes the batch after construction; the mark at which
        take() wakes the refiller must be half the *current* batch."""
        pool = BlinderPool(PRECOMPUTED[1], batch_size=32)
        assert pool.low_water == 16
        pool.batch_size = plan_pool_batch(10**6)
        assert pool.low_water == 512
        pool.batch_size = 1
        assert pool.low_water == 1

    def test_configure_pool_sizes_the_batch_and_the_mark(self):
        backend = DamgardJurikBackend(key_bits=128, threshold=2, n_shares=3)
        backend.configure_pool(36)
        assert backend._pool.batch_size == 36
        assert backend._pool.low_water == 18
        assert len(backend._pool) == 36  # refilled ahead of need


class TestAfterFork:
    """The no-shared-blinder rule: a process that inherits a backend through
    fork serves none of the blinders pooled before the fork."""

    def test_discards_inherited_blinders_and_starts_the_refill_thread(self):
        backend = DamgardJurikBackend(key_bits=128, threshold=2, n_shares=3)
        backend.configure_pool(8)
        inherited = set(backend._pool._pool)
        assert len(inherited) == 16
        try:
            backend.after_fork()
            thread = backend._pool._refill_thread
            assert thread is not None and thread.is_alive()
            served = {backend._pool.take() for _ in range(40)}
            assert not served & inherited
            vector = backend.encrypt_vector([0.25, 0.5])
            decrypted = backend.decrypt_with_shares(vector, [1, 2])
            assert decrypted == pytest.approx([0.25, 0.5], abs=1e-5)
        finally:
            backend.close()
        assert backend._pool._refill_thread is None
        assert not thread.is_alive()
        backend.close()  # idempotent

    def test_plain_backend_has_nothing_to_do(self):
        from repro.crypto.backends import PlainBackend

        backend = PlainBackend()
        backend.after_fork()
        backend.close()


class TestMultiExponentiation:
    @given(
        bases=st.lists(st.integers(min_value=2, max_value=2**64), min_size=1, max_size=9),
        exponents=st.lists(
            st.integers(min_value=-(2**80), max_value=2**80), min_size=1, max_size=9
        ),
        modulus=st.integers(min_value=3, max_value=2**64) | st.just((1 << 89) - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_multi_pow_equals_product_of_pows(self, bases, exponents, modulus):
        length = min(len(bases), len(exponents))
        bases, exponents = bases[:length], exponents[:length]
        import math

        expected = 1
        for base, exponent in zip(bases, exponents):
            if exponent < 0 and math.gcd(base, modulus) != 1:
                return  # no inverse exists; pow would fail identically
            expected = (expected * pow(base, exponent, modulus)) % modulus
        assert multi_pow(bases, exponents, modulus) == expected

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
    with ``precomputed=None, pool=None, multiexp=False`` on the same key.
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
            dj.encrypt(backend.public_key, plaintext, precomputed=None, pool=None)
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
            dj.rerandomize(backend.public_key, ciphertext, pool=None)
            for ciphertext in self.textbook_encrypt(backend, self.VALUES)
        )
        assert refreshed.payload == reference != vector.payload
        assert refreshed.weight == vector.weight
        assert backend.counter.rerandomizations == len(reference)

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
