"""Clustering-quality metrics.

The demonstration compares the quality of Chiaroscuro's perturbed centroids
against a centralised k-means (claim C2).  The library reports:

* **intra-cluster inertia** (the k-means objective) and the *relative* inertia
  against a reference clustering — the paper's main quality measure;
* **adjusted Rand index** against the generators' ground-truth labels;
* **silhouette score** as a label-free quality check;
* **centroid matching error** — average distance between each reference
  centroid and its best-matching produced centroid, which quantifies how
  recognisable the noisy profiles remain (the "impact of the noise on the
  centroids" panel of the demo GUI).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_float_array
from ..exceptions import ValidationError
from ..timeseries.distance import pairwise_distances
from .kmeans import assign_to_centroids, compute_inertia


def relative_inertia(data: np.ndarray, centroids: np.ndarray,
                     reference_inertia: float) -> float:
    """Inertia of *centroids* on *data*, divided by a reference inertia.

    A value of 1.0 means "as good as the reference" (typically the
    centralised, non-private k-means); larger values quantify the degradation
    caused by privacy and distribution.
    """
    if reference_inertia <= 0:
        raise ValidationError(f"reference_inertia must be > 0, got {reference_inertia}")
    return compute_inertia(data, centroids) / reference_inertia


def contingency_table(labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    """Contingency table between two label vectors."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape:
        raise ValidationError("label vectors must have the same length")
    values_a, indices_a = np.unique(labels_a, return_inverse=True)
    values_b, indices_b = np.unique(labels_b, return_inverse=True)
    table = np.zeros((len(values_a), len(values_b)), dtype=np.int64)
    np.add.at(table, (indices_a, indices_b), 1)
    return table


def adjusted_rand_index(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Adjusted Rand index between two labelings (1 = identical partitions)."""
    table = contingency_table(labels_true, labels_pred)
    n = table.sum()
    if n <= 1:
        return 1.0
    sum_comb_cells = float((table * (table - 1) / 2).sum())
    sum_comb_rows = float((table.sum(axis=1) * (table.sum(axis=1) - 1) / 2).sum())
    sum_comb_cols = float((table.sum(axis=0) * (table.sum(axis=0) - 1) / 2).sum())
    total_pairs = float(n * (n - 1) / 2)
    expected = sum_comb_rows * sum_comb_cols / total_pairs
    maximum = 0.5 * (sum_comb_rows + sum_comb_cols)
    if maximum == expected:
        return 1.0
    return (sum_comb_cells - expected) / (maximum - expected)


def min_cost_assignment(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum-cost one-to-one assignment on a rectangular cost matrix.

    The Hungarian method in its shortest-augmenting-path form with row and
    column potentials (Jonker–Volgenant style), O(r² c) for r ≤ c: each row
    in turn grows a Dijkstra tree over reduced costs until it reaches a free
    column, then augments along it.  Every row of the shorter side is
    matched.  Returns ``(rows, cols)``, the matched index pairs with
    ``rows`` ascending.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValidationError(f"costs must be two-dimensional, got shape {costs.shape}")
    transposed = costs.shape[0] > costs.shape[1]
    if transposed:
        costs = costs.T
    n_rows, n_cols = costs.shape
    # Index 0 of the column arrays is a virtual column holding the row
    # being inserted; owner[j] is the 1-based row matched to column j.
    row_potential = np.zeros(n_rows + 1)
    col_potential = np.zeros(n_cols + 1)
    owner = np.zeros(n_cols + 1, dtype=np.int64)
    via = np.zeros(n_cols + 1, dtype=np.int64)
    for row in range(1, n_rows + 1):
        owner[0] = row
        column = 0
        slack = np.full(n_cols + 1, np.inf)
        visited = np.zeros(n_cols + 1, dtype=bool)
        while owner[column] != 0:
            visited[column] = True
            current = owner[column]
            reduced = costs[current - 1] - row_potential[current] - col_potential[1:]
            better = ~visited[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            via[1:][better] = column
            open_slack = np.where(visited[1:], np.inf, slack[1:])
            column = int(np.argmin(open_slack)) + 1
            delta = open_slack[column - 1]
            row_potential[owner[visited]] += delta
            col_potential[visited] -= delta
            slack[~visited] -= delta
        while column != 0:
            previous = via[column]
            owner[column] = owner[previous]
            column = previous
    cols = np.nonzero(owner[1:])[0]
    rows = owner[1:][cols] - 1
    if transposed:
        rows, cols = cols, rows
    order = np.argsort(rows)
    return rows[order], cols[order]


def match_centroids(reference: np.ndarray, produced: np.ndarray) -> list[tuple[int, int]]:
    """Optimal one-to-one matching between two centroid sets (Hungarian method).

    Returns (reference_index, produced_index) pairs minimising the total
    Euclidean distance.  When the sets have different sizes, the smaller one
    is fully matched.
    """
    reference = as_2d_float_array(reference, "reference")
    produced = as_2d_float_array(produced, "produced")
    if reference.shape[1] != produced.shape[1]:
        raise ValidationError("centroid sets must share their series length")
    costs = pairwise_distances(reference, produced, metric="euclidean")
    row_indices, col_indices = min_cost_assignment(costs)
    return list(zip(row_indices.tolist(), col_indices.tolist()))


def centroid_matching_error(reference: np.ndarray, produced: np.ndarray) -> float:
    """Average distance between matched reference/produced centroid pairs."""
    pairs = match_centroids(reference, produced)
    if not pairs:
        raise ValidationError("no centroid pairs to compare")
    costs = pairwise_distances(
        as_2d_float_array(reference, "reference"),
        as_2d_float_array(produced, "produced"),
        metric="euclidean",
    )
    return float(np.mean([costs[i, j] for i, j in pairs]))


def quality_report(
    data: np.ndarray,
    centroids: np.ndarray,
    reference_centroids: np.ndarray | None = None,
    reference_inertia: float | None = None,
    true_labels: np.ndarray | None = None,
) -> dict[str, float]:
    """Assemble every applicable quality metric into one dictionary."""
    data = as_2d_float_array(data, "data")
    centroids = as_2d_float_array(centroids, "centroids")
    assignments = assign_to_centroids(data, centroids)
    report: dict[str, float] = {
        "inertia": compute_inertia(data, centroids, assignments),
        "n_clusters_used": float(len(np.unique(assignments))),
    }
    if reference_inertia is not None and reference_inertia > 0:
        report["relative_inertia"] = report["inertia"] / reference_inertia
    if reference_centroids is not None:
        report["centroid_matching_error"] = centroid_matching_error(
            reference_centroids, centroids
        )
    if true_labels is not None:
        report["adjusted_rand_index"] = adjusted_rand_index(
            np.asarray(true_labels), assignments
        )
    return report
