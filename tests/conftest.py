"""Shared fixtures for the test suite.

Cryptographic fixtures use deliberately small keys (96–192 bits): they are
insecure but exercise exactly the same code paths as realistic keys while
keeping the suite fast.  Session scope is used for the expensive key
generations so they happen once.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np
import pytest

from repro.config import ChiaroscuroConfig
from repro.crypto.backends import CipherBackend, DamgardJurikBackend, PlainBackend, make_backend
from repro.crypto.fastmath import BlinderPool
from repro.datasets import generate_gaussian_clusters
from repro.timeseries import TimeSeries, TimeSeriesCollection


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic random generator shared by tests that only read it."""
    return np.random.default_rng(12345)


@pytest.fixture()
def fresh_rng() -> np.random.Generator:
    """A deterministic generator re-created for every test."""
    return np.random.default_rng(999)


@pytest.fixture(scope="session")
def small_collection() -> TimeSeriesCollection:
    """A small synthetic collection with known cluster structure."""
    return generate_gaussian_clusters(
        n_series=30, series_length=12, n_clusters=3, noise_std=0.05, seed=7
    )


@pytest.fixture(scope="session")
def tiny_series() -> TimeSeries:
    """A short hand-written series used by unit tests."""
    return TimeSeries(np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0]), series_id="tiny",
                      metadata={"archetype": "test"})


@pytest.fixture(scope="session")
def plain_backend() -> PlainBackend:
    """Plain (simulated-encryption) backend with a small committee."""
    return PlainBackend(threshold=2, n_shares=4, encoding_scale=10**6)


@pytest.fixture(scope="session")
def dj_backend() -> DamgardJurikBackend:
    """Real Damgård–Jurik backend with a small (insecure, fast) key."""
    return DamgardJurikBackend(
        key_bits=192, degree=1, threshold=2, n_shares=4, encoding_scale=10**4
    )


@pytest.fixture(scope="session", params=["plain_packed", "plain_unpacked", "dj256"])
def layout_backend(request) -> CipherBackend:
    """One backend per ciphertext layout the batched operations must match
    their one-vector loops on: plain packed, plain unpacked, and packed
    Damgård–Jurik with a 256-bit key."""
    if request.param == "dj256":
        backend = make_backend("damgard_jurik", key_bits=256, threshold=2, n_shares=3,
                               packing="auto")
    else:
        backend = make_backend("plain", threshold=2, n_shares=3,
                               packing="auto" if request.param == "plain_packed" else "off")
    assert backend.is_packed == (request.param != "plain_unpacked")
    return backend


@pytest.fixture()
def replay() -> Callable[[CipherBackend, int], list[int]]:
    """``replay(backend, seed)`` zeroes *backend*'s counter and, on
    Damgård–Jurik, gives it a ``BlinderPool(rng=)`` drawing from a stream
    seeded by *seed*; it returns the list each draw is appended to.  Two
    runs replayed from one seed make the same ciphertexts exactly when
    they draw in the same order."""
    def install(backend: CipherBackend, seed: int) -> list[int]:
        backend.counter.reset()
        draws: list[int] = []
        if isinstance(backend, DamgardJurikBackend):
            stream = random.Random(seed)

            def draw(bound: int) -> int:
                draws.append(stream.randrange(bound))
                return draws[-1]

            backend._pool = BlinderPool(backend._precomputed, rng=draw)
        return draws

    return install


@pytest.fixture(scope="session")
def fast_config() -> ChiaroscuroConfig:
    """A configuration sized for fast protocol integration tests."""
    return ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 3, "max_iterations": 4, "convergence_threshold": 1e-3},
        privacy={"epsilon": 4.0, "noise_shares": 10},
        gossip={"cycles_per_aggregation": 6},
        crypto={"threshold": 2, "n_key_shares": 4},
        simulation={"n_participants": 40, "seed": 3},
    )
