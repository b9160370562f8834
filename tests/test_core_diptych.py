"""Tests of the Diptych data structure and its gossip merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Diptych, build_contribution, merge_diptychs
from repro.exceptions import ProtocolError
import oracles


def _decode_all(backend, estimates):
    return [oracles.decode_estimate(backend, estimate, [1, 2]) for estimate in estimates]


class TestBuildContribution:
    def test_assigned_cluster_carries_series_and_indicator(self, plain_backend):
        series = np.array([0.2, 0.4, 0.6])
        data_estimates, noise_estimates = build_contribution(
            plain_backend, series, assigned_cluster=1, n_clusters=3
        )
        decoded = _decode_all(plain_backend, data_estimates)
        assert np.allclose(decoded[1][:3], series, atol=1e-5)
        assert decoded[1][3] == pytest.approx(1.0, abs=1e-5)
        for cluster in (0, 2):
            assert np.allclose(decoded[cluster], 0.0, atol=1e-6)
        # No noise shares supplied: every noise estimate encrypts zero.
        for decoded_noise in _decode_all(plain_backend, noise_estimates):
            assert np.allclose(decoded_noise, 0.0, atol=1e-6)

    def test_noise_shares_embedded(self, plain_backend):
        series = np.array([0.1, 0.9])
        shares = [np.array([0.5, -0.5, 0.25]), np.array([0.0, 0.1, -0.1])]
        _data, noise_estimates = build_contribution(
            plain_backend, series, assigned_cluster=0, n_clusters=2, noise_shares=shares
        )
        decoded = _decode_all(plain_backend, noise_estimates)
        assert np.allclose(decoded[0], shares[0], atol=1e-5)
        assert np.allclose(decoded[1], shares[1], atol=1e-5)

    def test_invalid_cluster_index(self, plain_backend):
        with pytest.raises(ProtocolError):
            build_contribution(plain_backend, np.ones(3), assigned_cluster=5, n_clusters=2)

    def test_noise_share_count_checked(self, plain_backend):
        with pytest.raises(ProtocolError):
            build_contribution(
                plain_backend, np.ones(3), 0, 2, noise_shares=[np.zeros(4)]
            )

    def test_noise_share_length_checked(self, plain_backend):
        with pytest.raises(ProtocolError):
            build_contribution(
                plain_backend, np.ones(3), 0, 1, noise_shares=[np.zeros(2)]
            )

    def test_series_must_be_one_dimensional(self, plain_backend):
        with pytest.raises(ProtocolError):
            build_contribution(plain_backend, np.ones((2, 3)), 0, 2)


class TestDiptych:
    def test_consistency_check(self, plain_backend):
        series = np.array([0.3, 0.7])
        data_estimates, noise_estimates = build_contribution(plain_backend, series, 0, 2)
        diptych = Diptych(
            centroids=np.zeros((2, 2)),
            data_estimates=data_estimates,
            noise_estimates=noise_estimates,
        )
        diptych.check_consistent()
        assert diptych.n_clusters == 2
        assert diptych.series_length == 2

    def test_inconsistent_cluster_count_detected(self, plain_backend):
        series = np.array([0.3, 0.7])
        data_estimates, noise_estimates = build_contribution(plain_backend, series, 0, 2)
        diptych = Diptych(
            centroids=np.zeros((3, 2)),
            data_estimates=data_estimates,
            noise_estimates=noise_estimates,
        )
        with pytest.raises(ProtocolError):
            diptych.check_consistent()

    def test_merge_averages_both_sides(self, plain_backend):
        series_a = np.array([1.0, 0.0])
        series_b = np.array([0.0, 1.0])
        data_a, noise_a = build_contribution(plain_backend, series_a, 0, 2)
        data_b, noise_b = build_contribution(plain_backend, series_b, 1, 2)
        diptych_a = Diptych(np.zeros((2, 2)), data_a, noise_a)
        diptych_b = Diptych(np.zeros((2, 2)), data_b, noise_b)
        merge_diptychs(plain_backend, diptych_a, diptych_b)
        decoded_a = _decode_all(plain_backend, diptych_a.data_estimates)
        decoded_b = _decode_all(plain_backend, diptych_b.data_estimates)
        # After one exchange both participants hold the average of the two
        # contributions: cluster 0 = (series_a, 1)/2, cluster 1 = (series_b, 1)/2.
        expected_cluster0 = np.array([0.5, 0.0, 0.5])
        expected_cluster1 = np.array([0.0, 0.5, 0.5])
        for decoded in (decoded_a, decoded_b):
            assert np.allclose(decoded[0], expected_cluster0, atol=1e-5)
            assert np.allclose(decoded[1], expected_cluster1, atol=1e-5)

    def test_merge_shape_mismatch_rejected(self, plain_backend):
        data_a, noise_a = build_contribution(plain_backend, np.ones(2), 0, 2)
        data_b, noise_b = build_contribution(plain_backend, np.ones(3), 0, 2)
        diptych_a = Diptych(np.zeros((2, 2)), data_a, noise_a)
        diptych_b = Diptych(np.zeros((2, 3)), data_b, noise_b)
        with pytest.raises(ProtocolError):
            merge_diptychs(plain_backend, diptych_a, diptych_b)
