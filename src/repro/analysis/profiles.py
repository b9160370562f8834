"""Use of the clustering result by an individual (the "Bob" scenario).

The last screen of the demonstration GUI lets the audience select a
sub-sequence of Bob's own time-series and find "the centroids the closest to
the sub-sequence chosen" (Fig. 3, panel 6).  This module implements that
interaction: aligning a query sub-sequence against every offset of every
profile and ranking the profiles by their best alignment distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_1d_float_array, as_2d_float_array, check_positive_int
from ..exceptions import AnalysisError
from ..timeseries.preprocessing import sliding_windows


@dataclass(frozen=True)
class ProfileMatch:
    """One profile's best alignment against a query sub-sequence."""

    profile_index: int
    distance: float
    offset: int

    def as_dict(self) -> dict[str, float]:
        """Plain dictionary view."""
        return {
            "profile_index": float(self.profile_index),
            "distance": self.distance,
            "offset": float(self.offset),
        }


def match_subsequence(
    profiles: np.ndarray,
    query: np.ndarray,
    normalize_query: bool = False,
) -> list[ProfileMatch]:
    """Rank every profile by its best alignment with *query*.

    The query slides over every offset of each profile; a profile's
    distance is the smallest Euclidean distance over those offsets.

    Parameters
    ----------
    profiles:
        ``(k, series_length)`` matrix of final profiles.
    query:
        The sub-sequence selected by the individual (length <= series_length).
    normalize_query:
        Min-max normalise the query and each compared window first, which
        matches shapes rather than absolute levels.
    """
    profiles = as_2d_float_array(profiles, "profiles")
    query = as_1d_float_array(query, "query")
    if len(query) > profiles.shape[1]:
        raise AnalysisError(
            f"query length {len(query)} exceeds profile length {profiles.shape[1]}"
        )

    def _normalise(values: np.ndarray) -> np.ndarray:
        if not normalize_query:
            return values
        span = values.max() - values.min()
        if span == 0:
            return np.zeros_like(values)
        return (values - values.min()) / span

    prepared_query = _normalise(query)
    matches: list[ProfileMatch] = []
    for index, profile in enumerate(profiles):
        windows = sliding_windows(profile, width=len(query))
        best_distance = np.inf
        best_offset = 0
        for offset, window in enumerate(windows):
            distance = float(np.linalg.norm(_normalise(window) - prepared_query))
            if distance < best_distance:
                best_distance = distance
                best_offset = offset
        matches.append(
            ProfileMatch(profile_index=index, distance=best_distance, offset=best_offset)
        )
    matches.sort(key=lambda match: match.distance)
    return matches


def closest_profiles(
    profiles: np.ndarray,
    query: np.ndarray,
    top: int = 3,
    normalize_query: bool = False,
) -> list[ProfileMatch]:
    """The *top* closest profiles to a query sub-sequence."""
    check_positive_int(top, "top")
    matches = match_subsequence(profiles, query, normalize_query=normalize_query)
    return matches[:top]


def profile_recall(
    profiles: np.ndarray,
    reference_profiles: np.ndarray,
    queries: np.ndarray,
    top: int = 1,
) -> float:
    """Fraction of queries whose best profile matches the reference answer.

    For every query sub-sequence, the profile ranked first using the
    *perturbed* profiles is compared to the one ranked first using the
    *reference* (noise-free) profiles; the recall measures how often the
    individual would have been pointed at the same profile despite the
    privacy noise.  Used by the profile-search experiment (E8).
    """
    profiles = as_2d_float_array(profiles, "profiles")
    reference_profiles = as_2d_float_array(reference_profiles, "reference_profiles")
    queries = as_2d_float_array(queries, "queries")
    if profiles.shape != reference_profiles.shape:
        raise AnalysisError("profiles and reference_profiles must have the same shape")
    check_positive_int(top, "top")
    hits = 0
    for query in queries:
        perturbed_best = {
            match.profile_index for match in closest_profiles(profiles, query, top=top)
        }
        reference_best = closest_profiles(reference_profiles, query, top=1)[0].profile_index
        if reference_best in perturbed_best:
            hits += 1
    return hits / len(queries)
