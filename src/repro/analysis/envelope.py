"""Nondeterminism envelope of concurrent live runs.

A concurrent live run (``runtime.stepping="concurrent"``) lets every worker
drive its shard's participants with many gossip exchanges in flight at once.
The interleaving of those exchanges is scheduler- and network-timing
dependent, so the run is *not* bit-identical to the deterministic cycle-mode
replay the sequential live runner performs.  The divergence is bounded by
the protocol itself — gossip averaging tolerates message loss and
reordering — but it must be *measured*, not assumed.

This module computes that measurement: given the concurrent live result and
a deterministic reference run of the same configuration, it reports

``profile_distance``
    L2 distance between the consensus profile matrices (clusters aligned by
    a minimum-total-distance matching, since concurrent interleaving may
    permute cluster indices).
``profile_distance_relative``
    The same distance normalised by the reference profile norm.
``assignment_churn``
    Fraction of participants whose final cluster assignment differs from
    the reference (under the same cluster alignment).
``byte_spread``
    Relative difference in total bytes sent versus the reference —
    concurrent runs may take a different number of gossip cycles to
    converge, so traffic varies.

The dictionary is attached to :class:`~repro.core.result.CostSummary` as
its ``envelope`` field and flows into experiment store rows and reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..clustering.metrics import min_cost_assignment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.result import ChiaroscuroResult

__all__ = ["align_profiles", "nondeterminism_envelope"]


def align_profiles(profiles: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Map each reference cluster index to its matching ``profiles`` row.

    Concurrent interleaving can permute cluster labels between two runs of
    the same configuration, so envelope metrics compare clusters after an
    optimal alignment: the one-to-one matching of reference clusters to
    ``profiles`` rows with the least total Euclidean distance
    (:func:`~repro.clustering.metrics.min_cost_assignment`).  Returns an
    integer array ``perm`` of length ``k`` with ``profiles[perm[j]]`` the
    match of ``reference[j]``.

    A cluster that ended a run empty can carry a NaN profile row; NaN
    distances would corrupt the matching, and silently the downstream churn
    metric, so only real (NaN-free) rows take part in it.  NaN rows — and
    any real rows starved by them — then pair up in index order, keeping
    the result a full permutation.
    """
    k = reference.shape[0]
    if profiles.shape != reference.shape:
        raise ValueError(
            f"profile shapes differ: {profiles.shape} vs {reference.shape}"
        )
    reference_real = np.nonzero(~np.isnan(reference).any(axis=1))[0]
    candidate_real = np.nonzero(~np.isnan(profiles).any(axis=1))[0]
    perm = np.full(k, -1, dtype=np.int64)
    if reference_real.size and candidate_real.size:
        distances = np.linalg.norm(
            reference[reference_real, None, :] - profiles[None, candidate_real, :],
            axis=2,
        )
        rows, cols = min_cost_assignment(distances)
        perm[reference_real[rows]] = candidate_real[cols]
    unmatched = np.nonzero(perm < 0)[0]
    if unmatched.shape[0]:
        unclaimed = np.setdiff1d(np.arange(k), perm[perm >= 0])
        perm[unmatched] = unclaimed
    return perm


def nondeterminism_envelope(
    result: "ChiaroscuroResult", reference: "ChiaroscuroResult"
) -> dict[str, Any]:
    """Quantify how far a concurrent run drifted from its reference.

    ``result`` is the concurrent live run, ``reference`` the deterministic
    run (cycle mode, or equivalently a sequential live run) of the same
    collection and configuration.  Returns a plain dictionary suitable for
    ``CostSummary.envelope``; see the module docstring for field meanings.
    """
    perm = align_profiles(result.profiles, reference.profiles)
    aligned = result.profiles[perm]
    profile_distance = float(np.linalg.norm(aligned - reference.profiles))
    reference_norm = float(np.linalg.norm(reference.profiles))
    relative = profile_distance / reference_norm if reference_norm > 0 else 0.0

    # Relabel the concurrent assignments into the reference's cluster
    # indexing before comparing: inverse[i] is the reference label of the
    # concurrent run's cluster i.
    k = reference.profiles.shape[0]
    inverse = np.empty(k, dtype=np.int64)
    inverse[perm] = np.arange(k)
    relabelled = inverse[np.asarray(result.assignments, dtype=np.int64)]
    churn = float(
        np.mean(relabelled != np.asarray(reference.assignments, dtype=np.int64))
    )

    live_bytes = int(result.costs.bytes_sent)
    reference_bytes = int(reference.costs.bytes_sent)
    spread = (
        abs(live_bytes - reference_bytes) / reference_bytes
        if reference_bytes > 0
        else 0.0
    )

    return {
        "profile_distance": profile_distance,
        "profile_distance_relative": relative,
        "assignment_churn": churn,
        "byte_spread": spread,
        "bytes_sent": float(live_bytes),
        "reference_bytes_sent": float(reference_bytes),
        "iterations": float(result.n_iterations),
        "reference_iterations": float(reference.n_iterations),
    }
