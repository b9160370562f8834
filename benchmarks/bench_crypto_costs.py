"""E3 — encryption costs and their extrapolation (claim C3, "privacy vs performance").

The demo measures the Damgård–Jurik operation times beforehand and displays
the overhead that real homomorphic operations would add at full scale.  This
benchmark reproduces both halves: the per-operation timings as a function of
key size and degree, and the per-participant cost prediction of a complete
run for populations from 10^3 to 10^6.

Expected shape: per-operation cost grows roughly cubically with the key size;
the per-participant compute time is independent of the population size (the
gossip design's whole point) and stays in the "seconds to minutes per
iteration" range the paper calls affordable for personal devices.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import run_once

from repro.analysis import CostModel, ProtocolWorkload, format_table, measure_crypto_costs
from repro.crypto import damgard_jurik as dj
from repro.crypto import threshold as th
from repro.crypto.backends import DamgardJurikBackend, PlainBackend
from repro.crypto.fastmath import BlinderPool, PrecomputedKey
from repro.crypto.math_utils import random_below, random_coprime
from repro.gossip.encrypted_sum import average_estimates, fresh_estimate

KEY_SIZES = [256, 512, 1024]


@pytest.mark.parametrize("key_bits", KEY_SIZES)
def test_per_operation_costs_vs_key_size(benchmark, key_bits):
    """Measured per-operation times for increasing key sizes."""
    profile = run_once(
        benchmark, measure_crypto_costs, key_bits=key_bits, degree=1,
        threshold=3, n_shares=5, repetitions=3,
    )
    print()
    print(format_table(
        [profile.as_dict()],
        columns=["key_bits", "encryption_seconds", "addition_seconds",
                 "partial_decryption_seconds", "combination_seconds", "ciphertext_bytes"],
        title=f"E3 - Damgard-Jurik per-operation cost, {key_bits}-bit key",
    ))
    benchmark.extra_info.update(profile.as_dict())
    assert profile.encryption_seconds > profile.addition_seconds


def test_degree_two_costs(benchmark):
    """Degree s=2 doubles the plaintext space and increases per-op cost."""
    profile = run_once(
        benchmark, measure_crypto_costs, key_bits=512, degree=2,
        threshold=3, n_shares=5, repetitions=3,
    )
    print()
    print(format_table([profile.as_dict()],
                       title="E3 - Damgard-Jurik per-operation cost, 512-bit key, degree 2"))
    assert profile.ciphertext_bytes > 512 // 8 * 2


def test_encryption_throughput_single_op(benchmark):
    """Raw single-encryption latency with a realistic 1024-bit key."""
    public, _private = dj.generate_keypair(key_bits=1024, s=1)
    benchmark(dj.encrypt, public, 123456789)


@pytest.mark.parametrize("packing", ["off", "auto"])
def test_packed_gossip_exchange_costs(benchmark, packing):
    """Operation counts and wall clock of gossip exchanges, packed vs off.

    The plain backend widens its simulated plaintext to the 2048-bit space of
    a 4096-bit degree-1 ciphertext when packing is on; the counters then show
    the ≥ 4× (here ~30×) cut in bigint operations that the packed layer buys
    on a 64-point series.
    """
    backend = PlainBackend(threshold=3, n_shares=5, packing=packing)
    series = np.linspace(0.0, 1.0, 64)

    def exchanges():
        backend.counter.reset()
        first = fresh_estimate(backend, series)
        second = fresh_estimate(backend, series[::-1])
        for _ in range(50):
            averaged = average_estimates(backend, first, second)
            first, second = second, averaged
        return backend.counter.as_dict()

    counts = benchmark(exchanges)
    row = {"packing": packing, "slots": backend.packing.slots if backend.is_packed else 1}
    row.update(counts)
    print()
    print(format_table([row], title=f"E3 - gossip exchange crypto ops, packing={packing}"))
    benchmark.extra_info.update(row)
    if packing == "auto":
        assert counts["encryptions"] * 4 <= 2 * 64
        assert counts["additions"] * 4 <= 50 * 3 * 64


@pytest.mark.parametrize("packing", ["off", "auto"])
def test_packed_real_encryption_walltime(benchmark, packing):
    """Wall-clock win of packing with *real* Damgård–Jurik encryption.

    Packing a 64-point series into ~2048-bit plaintext slots divides the
    number of modular exponentiations by the slot count, which is the whole
    point of the packed cipher layer.
    """
    backend = DamgardJurikBackend(
        key_bits=512, degree=1, threshold=3, n_shares=5, packing=packing,
        packing_weight_bits=30,
    )
    series = np.linspace(0.0, 1.0, 64)
    vector = benchmark(backend.encrypt_vector, series)
    print()
    print(format_table(
        [{"packing": packing, "ciphertexts": vector.n_ciphertexts,
          "encryptions_counted": backend.counter.encryptions}],
        title=f"E3 - real 512-bit encryption of a 64-point series, packing={packing}",
    ))
    if packing == "auto":
        assert vector.n_ciphertexts * 4 <= 64


@pytest.mark.parametrize("fastmath", ["off", "auto"])
def test_fastmath_decryption_speedup(benchmark, fastmath):
    """CRT decryption (half-width moduli, half-size exponents) vs full pow.

    At 1024 bits the CRT split is already a multiple; it grows with the key
    size (``repro crypto-bench --fastmath sweep`` times both per operation).
    """
    public, private = dj.generate_keypair(key_bits=1024, s=1)
    precomputed = PrecomputedKey.from_private_key(private) if fastmath == "auto" else None
    ciphertext = dj.encrypt(public, 123456789)
    plaintext = benchmark(dj.decrypt, private, ciphertext, precomputed)
    assert plaintext == 123456789
    benchmark.extra_info["fastmath"] = fastmath


@pytest.mark.parametrize("fastmath", ["off", "auto"])
def test_fastmath_pooled_encrypt_speedup(benchmark, fastmath):
    """Hot-path encryption: one multiply with a ready blinder vs one pow."""
    public, private = dj.generate_keypair(key_bits=1024, s=1)
    precomputed = blinder = None
    if fastmath == "auto":
        precomputed = PrecomputedKey.from_private_key(private)
        blinder = BlinderPool(precomputed).take()  # offline: made before the timed calls

    ciphertext = benchmark(dj.encrypt, public, 123456789, None, precomputed, blinder)
    assert dj.decrypt(private, ciphertext) == 123456789
    benchmark.extra_info["fastmath"] = fastmath


@pytest.mark.parametrize("fastmath", ["off", "auto"])
def test_fastmath_blinder_refill(benchmark, fastmath):
    """Making one blinder: textbook ``r^{n^s}`` vs the fixed-base
    short-exponent sampler a private context runs (``PrecomputedKey.blinder``)."""
    public, private = dj.generate_keypair(key_bits=1024, s=1)
    if fastmath == "auto":
        precomputed = PrecomputedKey.from_private_key(private)
        exponent = random_below(1 << precomputed.blinder_exponent_bits)
        blinder = benchmark(precomputed.blinder, exponent)
    else:
        blinder = benchmark(
            pow, random_coprime(public.n), public.plaintext_modulus,
            public.ciphertext_modulus,
        )
    assert dj.decrypt(private, blinder) == 0
    benchmark.extra_info["fastmath"] = fastmath


@pytest.mark.parametrize("fastmath", ["off", "auto"])
def test_fastmath_partial_decryption_speedup(benchmark, fastmath):
    """One committee round: three helpers partially decrypt one fresh
    ciphertext.  Textbook: three full ``c^{2Δs_i} mod n^2`` powers.  Fast:
    per CRT half, one Fermat power ``c^{p−1}`` the three share, then one
    half-length power each (``PrecomputedKey.partial_decryption_power``)."""
    public, shares, dealer = th.generate_threshold_keypair(
        key_bits=1024, s=1, threshold=3, n_shares=5
    )
    precomputed = PrecomputedKey.from_private_key(dealer) if fastmath == "auto" else None
    helpers = shares[:3]

    def fresh_ciphertext():
        # Made outside the timed call, so every round misses the Fermat cache.
        return (dj.encrypt(public.public_key, 123456789),), {}

    def committee_round(ciphertext):
        return [th.partial_decrypt(public, share, ciphertext, precomputed)
                for share in helpers]

    partials = benchmark.pedantic(committee_round, setup=fresh_ciphertext, rounds=10)
    assert th.combine_partial_decryptions(public, partials) == 123456789
    benchmark.extra_info["fastmath"] = fastmath


def test_extrapolated_run_costs(benchmark):
    """Per-participant cost of a full run, extrapolated to 10^3..10^6 devices."""
    profile = measure_crypto_costs(key_bits=1024, degree=1, threshold=3, n_shares=5,
                                   repetitions=3)
    workload = ProtocolWorkload(
        n_clusters=5, series_length=48, iterations=10,
        gossip_cycles=12, exchanges_per_cycle=1, threshold=3,
    )
    model = CostModel(profile)
    rows = run_once(benchmark, model.sweep_population, workload,
                    [10**3, 10**4, 10**5, 10**6])
    print()
    print(format_table(
        rows,
        columns=["n_participants", "encryption_seconds", "addition_seconds",
                 "decryption_seconds", "total_compute_seconds", "bytes_sent",
                 "messages_sent", "aggregate_bytes"],
        title="E3 - extrapolated per-participant cost of a full run (1024-bit key, k=5, T=48)",
    ))
    # Per-participant cost must not depend on the population size.
    assert rows[0]["total_compute_seconds"] == rows[-1]["total_compute_seconds"]
    # "Affordable": less than an hour of compute per device for the whole run.
    assert rows[0]["total_compute_seconds"] < 3600

