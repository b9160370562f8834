"""The Diptych data structure (paper, Section II.B).

The Diptych is the two-sided structure each participant maintains:

* the **clear side** — the perturbed centroids, cleartext but differentially
  private, used by the local assignment and convergence steps;
* the **encrypted side** — the per-cluster encrypted aggregation estimates
  (the gossiped averages of member series and membership indicators, plus the
  gossiped averages of the noise-shares), used by the distributed computation
  step.

Every per-cluster estimate is a vector of length ``series_length + 1``: the
first ``series_length`` components average the member series (times the
membership indicator), the last component averages the indicator itself, so
the cluster mean is recovered after decryption as ``sum_part / count_part``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .._validation import as_2d_float_array, check_positive_int
from ..crypto.backends import CipherBackend
from ..exceptions import ProtocolError
from ..gossip.encrypted_sum import EncryptedEstimate, average_estimates, fresh_estimate


@dataclass
class Diptych:
    """One participant's diptych for one iteration.

    Attributes
    ----------
    centroids:
        The perturbed cleartext centroids of the current iteration
        (``(k, series_length)``).
    data_estimates:
        Per-cluster encrypted estimates of the averaged member contributions
        (k entries, each of length ``series_length + 1``).
    noise_estimates:
        Per-cluster encrypted estimates of the averaged noise-shares (same
        shapes as ``data_estimates``).
    """

    centroids: np.ndarray
    data_estimates: list[EncryptedEstimate] = field(default_factory=list)
    noise_estimates: list[EncryptedEstimate] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.centroids = as_2d_float_array(self.centroids, "centroids")

    @property
    def n_clusters(self) -> int:
        """Number of clusters k."""
        return self.centroids.shape[0]

    @property
    def series_length(self) -> int:
        """Length of the time-series (and of the centroids)."""
        return self.centroids.shape[1]

    def check_consistent(self) -> None:
        """Raise :class:`ProtocolError` when the two sides disagree on shapes."""
        if len(self.data_estimates) != self.n_clusters:
            raise ProtocolError(
                f"expected {self.n_clusters} data estimates, got {len(self.data_estimates)}"
            )
        if len(self.noise_estimates) != self.n_clusters:
            raise ProtocolError(
                f"expected {self.n_clusters} noise estimates, got {len(self.noise_estimates)}"
            )
        expected_length = self.series_length + 1
        for estimate in list(self.data_estimates) + list(self.noise_estimates):
            if len(estimate) != expected_length:
                raise ProtocolError(
                    f"estimate length {len(estimate)} differs from expected {expected_length}"
                )

    def fits(self, view_data: Sequence[EncryptedEstimate],
             view_noise: Sequence[EncryptedEstimate]) -> bool:
        """Whether a received view has this diptych's shape: one estimate
        per cluster on each side, each of length ``series_length + 1`` and
        in the packing layout of the stored one it would be averaged with."""
        return all(
            len(view) == self.n_clusters
            and all(
                len(estimate) == self.series_length + 1
                and estimate.vector.packed == stored.vector.packed
                for estimate, stored in zip(view, mine)
            )
            for view, mine in (
                (view_data, self.data_estimates),
                (view_noise, self.noise_estimates),
            )
        )

    def absorb(self, backend: CipherBackend,
               view_data: Sequence[EncryptedEstimate],
               view_noise: Sequence[EncryptedEstimate]) -> None:
        """Adopt the pairwise average of the stored estimates and a peer's
        view — its (data, noise) estimates as decoded from the frame that
        carried them.  One device's half of a gossip exchange."""
        if len(view_data) != self.n_clusters or len(view_noise) != self.n_clusters:
            raise ProtocolError("peer view does not carry one estimate per cluster")
        for cluster in range(self.n_clusters):
            self.data_estimates[cluster] = average_estimates(
                backend, self.data_estimates[cluster], view_data[cluster]
            )
            self.noise_estimates[cluster] = average_estimates(
                backend, self.noise_estimates[cluster], view_noise[cluster]
            )


def build_contribution(
    backend: CipherBackend,
    series_values: np.ndarray,
    assigned_cluster: int,
    n_clusters: int,
    noise_shares: list[np.ndarray] | None = None,
) -> tuple[list[EncryptedEstimate], list[EncryptedEstimate]]:
    """Build a participant's initial encrypted contribution for one iteration.

    This implements the local part of the assignment step (paper, Section
    II.B, step 1): the estimate of the assigned cluster is initialised with
    the encryption of the participant's series (and indicator 1), every other
    cluster with encryptions of zero; the noise estimates are initialised
    with this participant's noise-shares (zero vectors for participants not
    selected as noise contributors).

    Parameters
    ----------
    backend:
        Cipher backend performing the encryptions.
    series_values:
        The participant's (clipped) time-series values.
    assigned_cluster:
        Index of the centroid closest to the participant's series.
    n_clusters:
        Number of clusters k.
    noise_shares:
        Optional per-cluster noise-share vectors of length
        ``series_length + 1``; ``None`` means this participant contributes no
        noise this iteration.
    """
    check_positive_int(n_clusters, "n_clusters")
    series_values = np.asarray(series_values, dtype=float)
    if series_values.ndim != 1:
        raise ProtocolError("series_values must be one-dimensional")
    if not 0 <= assigned_cluster < n_clusters:
        raise ProtocolError(
            f"assigned cluster {assigned_cluster} outside [0, {n_clusters})"
        )
    length = series_values.shape[0] + 1
    if noise_shares is not None and len(noise_shares) != n_clusters:
        raise ProtocolError("noise_shares must contain one vector per cluster")

    data_estimates: list[EncryptedEstimate] = []
    noise_estimates: list[EncryptedEstimate] = []
    zero_vector = np.zeros(length)
    for cluster in range(n_clusters):
        if cluster == assigned_cluster:
            contribution = np.concatenate([series_values, [1.0]])
        else:
            contribution = zero_vector
        data_estimates.append(fresh_estimate(backend, contribution))
        if noise_shares is None:
            noise_estimates.append(fresh_estimate(backend, zero_vector))
        else:
            share = np.asarray(noise_shares[cluster], dtype=float)
            if share.shape[0] != length:
                raise ProtocolError(
                    f"noise share length {share.shape[0]} differs from expected {length}"
                )
            noise_estimates.append(fresh_estimate(backend, share))
    return data_estimates, noise_estimates


def merge_diptychs(
    backend: CipherBackend,
    mine: Diptych,
    theirs: Diptych,
    theirs_view: tuple[Sequence[EncryptedEstimate], Sequence[EncryptedEstimate]] | None = None,
) -> None:
    """Pairwise gossip exchange between two diptychs (both sides updated).

    Averages every per-cluster estimate of the two participants; this is the
    gossip computation of the encrypted means and of the encrypted noises
    (steps 2a and 2b), performed in a single exchange.

    *theirs_view*, when given, is the peer's contribution *as it travelled*
    — the (data, noise) estimates decoded from the received wire frame
    (and re-randomized per hop).  *mine* absorbs that view instead of the
    peer's in-memory objects, and *theirs* then adopts the same merged
    estimates (in the real protocol each side computes the identical
    plaintext average locally; the shared objects are the cycle
    simulation's shortcut for that, and the reason a cycle-mode exchange
    charges one average where a live one charges two).
    """
    mine.check_consistent()
    theirs.check_consistent()
    if mine.n_clusters != theirs.n_clusters or mine.series_length != theirs.series_length:
        raise ProtocolError("cannot merge diptychs with different shapes")
    if theirs_view is None:
        theirs_view = theirs.data_estimates, theirs.noise_estimates
    mine.absorb(backend, *theirs_view)
    theirs.data_estimates[:] = mine.data_estimates
    theirs.noise_estimates[:] = mine.noise_estimates
