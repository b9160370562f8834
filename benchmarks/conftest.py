"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one element of the paper's demonstration
(claims C1–C3, the GUI figures, or a parameter-scaling note); each
``bench_*.py`` docstring names the one it regenerates.  Sizes are chosen so that the whole
harness runs in a few minutes on a laptop: the populations are in the 10^2
range (like the demo, which uses "on the order of 10^3 participants rather
than 10^6"), and costs at larger scales are extrapolated by the cost model
exactly as the demo does.

Run with ``pytest benchmarks/bench_*.py --benchmark-only -s`` to also see the
printed tables and series (the files are named: ``bench_*.py`` does not match
pytest's default ``test_*.py`` pattern).
"""

from __future__ import annotations

import pytest

from repro.config import ChiaroscuroConfig
from repro.datasets import generate_cer_like, generate_gaussian_clusters, generate_numed_like


@pytest.fixture(scope="session")
def cer_collection():
    """CER-like electricity consumption day profiles (24 half-hour slots)."""
    return generate_cer_like(n_households=120, n_days=1, readings_per_day=24, seed=101)


@pytest.fixture(scope="session")
def numed_collection():
    """NUMED-like tumor-growth series over twenty weeks (the demo's use-case)."""
    return generate_numed_like(n_patients=120, n_weeks=20, seed=102)


@pytest.fixture(scope="session")
def gaussian_collection():
    """Controlled synthetic collection with known ground-truth clusters."""
    return generate_gaussian_clusters(
        n_series=120, series_length=24, n_clusters=4, noise_std=0.05, seed=103
    )


@pytest.fixture(scope="session")
def bench_config():
    """Protocol configuration shared by the quality benchmarks."""
    return ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 4, "max_iterations": 6},
        privacy={"epsilon": 2.0, "noise_shares": 32},
        gossip={"cycles_per_aggregation": 10},
        crypto={"threshold": 3, "n_key_shares": 6},
        simulation={"n_participants": 120, "seed": 7},
    )


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark timing.

    Protocol runs take seconds, so the usual repeated-measurement strategy of
    pytest-benchmark would multiply the harness duration without adding
    information.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
