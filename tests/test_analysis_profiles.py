"""Tests of the profile-search analysis (the "Bob" use-case)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import closest_profiles, match_subsequence, profile_recall
from repro.exceptions import AnalysisError


@pytest.fixture(scope="module")
def profiles():
    grid = np.linspace(0, 2 * np.pi, 48)
    return np.vstack([
        np.sin(grid) * 0.5 + 0.5,          # profile 0: one slow bump
        np.sin(3 * grid) * 0.5 + 0.5,      # profile 1: three bumps
        np.full(48, 0.2),                  # profile 2: flat low
    ])


class TestMatchSubsequence:
    def test_exact_subsequence_is_found(self, profiles):
        query = profiles[1][10:25]
        matches = match_subsequence(profiles, query)
        assert matches[0].profile_index == 1
        assert matches[0].distance == pytest.approx(0.0, abs=1e-9)
        assert matches[0].offset == 10

    def test_flat_query_matches_flat_profile(self, profiles):
        query = np.full(12, 0.2)
        matches = match_subsequence(profiles, query)
        assert matches[0].profile_index == 2

    def test_all_profiles_ranked(self, profiles):
        matches = match_subsequence(profiles, profiles[0][:20])
        assert len(matches) == 3
        assert [m.distance for m in matches] == sorted(m.distance for m in matches)

    def test_normalised_matching_ignores_level(self, profiles):
        query = profiles[0][10:30] + 10.0  # same shape, shifted level
        raw = match_subsequence(profiles, query)
        normalised = match_subsequence(profiles, query, normalize_query=True)
        assert normalised[0].profile_index == 0
        assert raw[0].distance > normalised[0].distance

    def test_query_longer_than_profile_rejected(self, profiles):
        with pytest.raises(AnalysisError):
            match_subsequence(profiles, np.zeros(100))

    def test_match_as_dict(self, profiles):
        match = match_subsequence(profiles, profiles[0][:10])[0]
        assert set(match.as_dict()) == {"profile_index", "distance", "offset"}


class TestClosestProfiles:
    def test_top_k_limits_results(self, profiles):
        top = closest_profiles(profiles, profiles[0][:15], top=2)
        assert len(top) == 2

    def test_top_must_be_positive(self, profiles):
        with pytest.raises(Exception):
            closest_profiles(profiles, profiles[0][:15], top=0)


class TestProfileRecall:
    def test_identical_profiles_have_full_recall(self, profiles, fresh_rng):
        queries = np.vstack([
            profiles[int(fresh_rng.integers(0, 3))][5:25] for _ in range(10)
        ])
        assert profile_recall(profiles, profiles, queries) == 1.0

    def test_mild_noise_keeps_recall_high(self, profiles, fresh_rng):
        noisy = profiles + fresh_rng.normal(0, 0.02, size=profiles.shape)
        queries = np.vstack([profiles[i % 3][8:28] for i in range(9)])
        assert profile_recall(noisy, profiles, queries) >= 2 / 3

    def test_top_parameter_never_decreases_recall(self, profiles, fresh_rng):
        noisy = profiles + fresh_rng.normal(0, 0.3, size=profiles.shape)
        queries = np.vstack([profiles[i % 3][0:20] for i in range(6)])
        top1 = profile_recall(noisy, profiles, queries, top=1)
        top3 = profile_recall(noisy, profiles, queries, top=3)
        assert top3 >= top1
        assert top3 == 1.0  # with k=3 profiles, top-3 always contains the answer

    def test_shape_mismatch_rejected(self, profiles):
        with pytest.raises(AnalysisError):
            profile_recall(profiles, profiles[:2], np.zeros((2, 10)))
