"""Quality analyses: Chiaroscuro against its baselines (claim C2).

These helpers orchestrate the comparisons the demonstration displays: the
quality of the perturbed centroids "compared to a centralized k-means", the
privacy-versus-quality trade-off as ε varies, and the contribution of each
quality-enhancing heuristic.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..baselines.centralized import centralized_kmeans
from ..baselines.centralized_dp import centralized_dp_kmeans
from ..baselines.distributed_plain import distributed_plain_kmeans
from ..clustering.metrics import quality_report
from ..config import ChiaroscuroConfig
from ..core.result import ChiaroscuroResult
from ..core.runner import normalize_collection, run_chiaroscuro
from ..timeseries import TimeSeriesCollection


def centralized_reference(
    collection: TimeSeriesCollection, config: ChiaroscuroConfig, seed: int = 0,
    n_restarts: int = 3,
) -> dict[str, Any]:
    """Centralised k-means reference on the *normalised* data.

    Chiaroscuro runs on min-max normalised data, so the reference is computed
    in the same space to keep inertia values comparable.
    """
    data, _transform = normalize_collection(collection, config.privacy.value_bound)
    normalised = TimeSeriesCollection.from_matrix(
        data, ids=collection.series_ids, name=f"{collection.name}-normalised"
    )
    result = centralized_kmeans(normalised, config.kmeans, seed=seed, n_restarts=n_restarts)
    return {
        "centroids": result.centroids,
        "inertia": result.inertia,
        "assignments": result.assignments,
        "data": data,
    }


def evaluate_result(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    result: ChiaroscuroResult,
    reference: dict[str, Any] | None = None,
    label_key: str | None = "archetype",
) -> dict[str, float]:
    """Full quality report of a Chiaroscuro result against the centralised reference."""
    if reference is None:
        reference = centralized_reference(collection, config)
    data = reference["data"]
    labels = None
    if label_key is not None:
        raw_labels = collection.labels(label_key)
        if all(label is not None for label in raw_labels):
            labels = np.asarray(raw_labels)
    report = quality_report(
        data,
        result.profiles,
        reference_centroids=reference["centroids"],
        reference_inertia=reference["inertia"],
        true_labels=labels,
    )
    report["epsilon_spent"] = result.epsilon_spent
    report["n_iterations"] = float(result.n_iterations)
    return report


def compare_with_baselines(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    seed: int = 0,
    label_key: str | None = "archetype",
) -> dict[str, dict[str, float]]:
    """Chiaroscuro vs centralised / centralised-DP / plain-gossip baselines (E2).

    Every method is evaluated on the same normalised data with the same k and
    the same ε (where applicable); the returned mapping contains one quality
    report per method.
    """
    reference = centralized_reference(collection, config, seed=seed)
    data = reference["data"]
    normalised = TimeSeriesCollection.from_matrix(
        data, ids=collection.series_ids, name=f"{collection.name}-normalised"
    )
    labels = None
    if label_key is not None:
        raw_labels = collection.labels(label_key)
        if all(label is not None for label in raw_labels):
            labels = np.asarray(raw_labels)

    def _report(centroids: np.ndarray) -> dict[str, float]:
        return quality_report(
            data,
            centroids,
            reference_centroids=reference["centroids"],
            reference_inertia=reference["inertia"],
            true_labels=labels,
        )

    results: dict[str, dict[str, float]] = {}
    results["centralized"] = _report(reference["centroids"])

    dp_result = centralized_dp_kmeans(
        normalised, config.kmeans, config.privacy, config.smoothing, seed=seed
    )
    results["centralized_dp"] = _report(dp_result.centroids)
    results["centralized_dp"]["epsilon_spent"] = dp_result.epsilon_spent

    plain_result = distributed_plain_kmeans(normalised, config.kmeans, config.gossip, seed=seed)
    results["distributed_plain"] = _report(plain_result.centroids)

    chiaroscuro_result = run_chiaroscuro(collection, config)
    results["chiaroscuro"] = _report(chiaroscuro_result.profiles)
    results["chiaroscuro"]["epsilon_spent"] = chiaroscuro_result.epsilon_spent

    # A random clustering gives the scale of "no information" inertia.
    rng = np.random.default_rng(seed)
    random_centroids = rng.uniform(
        0.0, config.privacy.value_bound, size=reference["centroids"].shape
    )
    results["random"] = _report(random_centroids)
    return results


def heuristics_ablation(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    strategies: Sequence[str] = ("uniform", "geometric", "adaptive"),
    smoothing_methods: Sequence[str] = ("none", "moving_average", "lowpass"),
    label_key: str | None = "archetype",
) -> list[dict[str, Any]]:
    """Grid over budget strategies × smoothing heuristics (experiment E9)."""
    reference = centralized_reference(collection, config)
    rows: list[dict[str, Any]] = []
    for strategy in strategies:
        for smoothing in smoothing_methods:
            run_config = config.with_overrides(
                privacy={"budget_strategy": strategy},
                smoothing={"method": smoothing},
            )
            result = run_chiaroscuro(collection, run_config)
            report = evaluate_result(collection, run_config, result, reference, label_key)
            rows.append({
                "budget_strategy": strategy,
                "smoothing": smoothing,
                **report,
            })
    return rows
