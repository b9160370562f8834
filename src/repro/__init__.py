"""Chiaroscuro reproduction: privacy-preserving clustering of massively
distributed personal time-series.

This package reproduces the system demonstrated in "A New Privacy-Preserving
Solution for Clustering Massively Distributed Personal Time-Series"
(Allard, Hébrail, Masseglia, Pacitti — ICDE 2016), including every substrate
it relies on: a cycle-driven P2P simulator, the Damgård–Jurik threshold
additively-homomorphic cryptosystem, gossip aggregation (cleartext and
encrypted), the differential-privacy layer (Laplace noise built from
per-participant noise-shares, budget strategies, probabilistic accounting),
the k-means substrate with quality-enhancing heuristics, the two use-case
dataset generators, and the analysis/cost layer behind the demonstration's
quality and cost screens.

Quickstart
----------
>>> from repro import generate_cer_like, run_chiaroscuro, ChiaroscuroConfig
>>> homes = generate_cer_like(n_households=80, n_days=1, seed=1)
>>> config = ChiaroscuroConfig().with_overrides(
...     kmeans={"n_clusters": 3, "max_iterations": 5},
...     privacy={"epsilon": 2.0},
... )
>>> result = run_chiaroscuro(homes, config)
>>> result.profiles.shape
(3, 48)
"""

from .config import (
    BUDGET_STRATEGIES,
    CRYPTO_BACKENDS,
    DEFAULT_CONFIG,
    SMOOTHING_METHODS,
    ChiaroscuroConfig,
    CryptoConfig,
    GossipConfig,
    KMeansConfig,
    PrivacyConfig,
    SimulationConfig,
    SmoothingConfig,
)
from .core import (
    ChiaroscuroParticipant,
    ChiaroscuroResult,
    CostSummary,
    ExecutionLog,
    IterationRecord,
    denormalize_profiles,
    run_chiaroscuro,
)
from .datasets import (
    generate_cer_like,
    generate_gaussian_clusters,
    generate_numed_like,
    load_dataset,
    load_dataset_for_population,
)
from .exceptions import ReproError
from .timeseries import TimeSeries, TimeSeriesCollection

#: Experiment-subsystem names re-exported lazily (PEP 562): the sweep runner
#: pulls in multiprocessing machinery that one-shot `import repro` users and
#: CLI commands should not pay for.
_EXPERIMENT_EXPORTS = (
    "ExperimentSpec", "ResultStore", "run_experiment", "format_report",
)


def __getattr__(name: str):
    if name in _EXPERIMENT_EXPORTS:
        from . import experiments

        value = getattr(experiments, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ChiaroscuroConfig",
    "KMeansConfig",
    "PrivacyConfig",
    "CryptoConfig",
    "GossipConfig",
    "SimulationConfig",
    "SmoothingConfig",
    "DEFAULT_CONFIG",
    "BUDGET_STRATEGIES",
    "SMOOTHING_METHODS",
    "CRYPTO_BACKENDS",
    "run_chiaroscuro",
    "ChiaroscuroResult",
    "ChiaroscuroParticipant",
    "CostSummary",
    "ExecutionLog",
    "IterationRecord",
    "denormalize_profiles",
    "TimeSeries",
    "TimeSeriesCollection",
    "generate_cer_like",
    "generate_numed_like",
    "generate_gaussian_clusters",
    "load_dataset",
    "load_dataset_for_population",
    "ExperimentSpec",
    "ResultStore",
    "run_experiment",
    "format_report",
    "ReproError",
]
