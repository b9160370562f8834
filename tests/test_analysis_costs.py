"""Tests of the cost model and the measured crypto cost profile."""

from __future__ import annotations

import pytest

from repro.analysis import CostModel, CryptoCostProfile, ProtocolWorkload, measure_crypto_costs
from repro.exceptions import AnalysisError, ValidationError


@pytest.fixture(scope="module")
def measured_profile():
    # Small key keeps the measurement fast; the model only needs the constants.
    return measure_crypto_costs(key_bits=160, degree=1, threshold=2, n_shares=3, repetitions=3)


@pytest.fixture()
def workload():
    return ProtocolWorkload(
        n_clusters=5, series_length=48, iterations=10,
        gossip_cycles=12, exchanges_per_cycle=1, threshold=3,
    )


class TestMeasurement:
    def test_all_timings_positive(self, measured_profile):
        profile = measured_profile.as_dict()
        for key in ("keygen_seconds", "encryption_seconds", "addition_seconds",
                    "partial_decryption_seconds", "combination_seconds"):
            assert profile[key] > 0.0

    def test_addition_cheaper_than_encryption(self, measured_profile):
        assert measured_profile.addition_seconds < measured_profile.encryption_seconds

    def test_ciphertext_size_reported(self, measured_profile):
        # A degree-1 ciphertext lives modulo n^2, i.e. roughly twice the key size.
        assert measured_profile.ciphertext_bytes >= (2 * 160) // 8 - 2


class TestWorkload:
    def test_operation_counts(self, workload):
        assert workload.components_per_estimate == 49
        assert workload.encryptions_per_iteration == 2 * 5 * 49
        assert workload.partial_decryptions_per_iteration == 3 * 5 * 49
        assert workload.combinations_per_iteration == 5 * 49
        assert workload.messages_per_iteration == 2 * 12 + 2 * 3

    def test_additions_grow_with_gossip_cycles(self):
        few = ProtocolWorkload(3, 24, 5, gossip_cycles=4, exchanges_per_cycle=1, threshold=3)
        many = ProtocolWorkload(3, 24, 5, gossip_cycles=16, exchanges_per_cycle=1, threshold=3)
        assert many.additions_per_iteration > few.additions_per_iteration

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            ProtocolWorkload(0, 24, 5, 4, 1, 3)


class TestCostModel:
    def test_estimate_components_add_up(self, measured_profile, workload):
        model = CostModel(measured_profile)
        estimate = model.estimate(workload)
        assert estimate.total_compute_seconds == pytest.approx(
            estimate.encryption_seconds + estimate.addition_seconds
            + estimate.decryption_seconds
        )
        assert estimate.bytes_sent > 0
        assert estimate.messages_sent == workload.iterations * workload.messages_per_iteration

    def test_per_participant_cost_is_population_independent(self, measured_profile, workload):
        model = CostModel(measured_profile)
        rows = model.sweep_population(workload, [10**3, 10**6])
        assert rows[0]["total_compute_seconds"] == rows[1]["total_compute_seconds"]
        assert rows[0]["bytes_sent"] == rows[1]["bytes_sent"]

    def test_aggregate_cost_scales_linearly(self, measured_profile, workload):
        model = CostModel(measured_profile)
        rows = model.sweep_population(workload, [10**3, 10**6])
        assert rows[1]["aggregate_bytes"] == pytest.approx(rows[0]["aggregate_bytes"] * 1000)

    def test_empty_population_list_rejected(self, measured_profile, workload):
        with pytest.raises(AnalysisError):
            CostModel(measured_profile).sweep_population(workload, [])

    def test_synthetic_profile_usable_without_measurement(self, workload):
        profile = CryptoCostProfile(
            key_bits=2048, degree=1, keygen_seconds=1.0, encryption_seconds=0.01,
            addition_seconds=1e-4, partial_decryption_seconds=0.02,
            combination_seconds=0.03, ciphertext_bytes=512,
        )
        estimate = CostModel(profile).estimate(workload)
        # 10 iterations * 2*5*49 encryptions * 10 ms each = 49 s of encryption time.
        assert estimate.encryption_seconds == pytest.approx(10 * 2 * 5 * 49 * 0.01)


class TestPhaseSplit:
    """Offline/online phase attribution of pool-served operations."""

    @pytest.fixture()
    def pooled_profile(self):
        return CryptoCostProfile(
            key_bits=2048, degree=1, keygen_seconds=1.0, encryption_seconds=0.01,
            addition_seconds=1e-4, partial_decryption_seconds=0.02,
            combination_seconds=0.03, ciphertext_bytes=512,
            fastmath="auto", pooled_encryption_seconds=0.001,
        )

    def test_rerandomizations_are_charged_the_pooled_cost(self, pooled_profile):
        """Regression: a rerandomization draws a blinder from the same pool
        as a pooled encryption and is one multiplication on the hot path —
        it must never be billed a full fresh exponentiation online."""
        counts = {"pooled_encryptions": 10, "rerandomizations": 5}
        assert pooled_profile.seconds_for_counts(counts) \
            == pytest.approx(15 * 0.001)

    def test_offline_charges_one_exponentiation_per_pool_draw(self, pooled_profile):
        counts = {"pooled_encryptions": 10, "rerandomizations": 5,
                  "additions": 100}
        assert pooled_profile.offline_seconds_for_counts(counts) \
            == pytest.approx(15 * 0.01)

    def test_phases_sum_to_the_total(self, pooled_profile):
        counts = {"encryptions": 3, "pooled_encryptions": 10,
                  "rerandomizations": 5, "additions": 100,
                  "partial_decryptions": 7, "combinations": 2}
        phases = pooled_profile.phase_seconds_for_counts(counts)
        assert phases["total_seconds"] == pytest.approx(
            phases["offline_seconds"] + phases["online_seconds"]
        )
        assert phases["offline_seconds"] > 0

    def test_without_a_pool_everything_is_online(self, workload):
        profile = CryptoCostProfile(
            key_bits=2048, degree=1, keygen_seconds=1.0, encryption_seconds=0.01,
            addition_seconds=1e-4, partial_decryption_seconds=0.02,
            combination_seconds=0.03, ciphertext_bytes=512,
        )
        counts = {"pooled_encryptions": 10, "rerandomizations": 5}
        assert profile.offline_seconds_for_counts(counts) == 0.0
        # With no pool the full exponentiation happens on the hot path.
        assert profile.seconds_for_counts(counts) == pytest.approx(15 * 0.01)


class TestByteAccounting:
    def test_modelled_bytes_match_cost_model(self, measured_profile, workload):
        estimate = CostModel(measured_profile).estimate(workload)
        per_iteration = workload.modelled_bytes_per_iteration(
            measured_profile.ciphertext_bytes
        )
        assert estimate.bytes_sent == workload.iterations * per_iteration

    def test_wire_bytes_exceed_modelled_by_frame_overhead(self, workload):
        modelled = workload.modelled_bytes_per_iteration(512)
        wired = workload.wire_bytes_per_iteration(512)
        assert wired > modelled
        # The overhead is exactly the per-message/per-estimate constants.
        from repro.analysis.costs import (
            WIRE_ESTIMATE_OVERHEAD_BYTES,
            WIRE_FRAME_OVERHEAD_BYTES,
        )
        gossip_messages = 2 * workload.gossip_cycles * workload.exchanges_per_cycle
        decrypt_messages = 2 * workload.threshold
        expected = (
            (gossip_messages + decrypt_messages) * WIRE_FRAME_OVERHEAD_BYTES
            + (2 * gossip_messages + decrypt_messages)
            * workload.n_clusters * WIRE_ESTIMATE_OVERHEAD_BYTES
        )
        assert wired - modelled == expected

    def test_byte_accounting_totals(self, workload):
        from repro.analysis import ByteAccounting

        accounting = workload.byte_accounting(512)
        assert isinstance(accounting, ByteAccounting)
        assert accounting.bytes_modelled == (
            workload.iterations * workload.modelled_bytes_per_iteration(512)
        )
        assert accounting.bytes_measured == (
            workload.iterations * workload.wire_bytes_per_iteration(512)
        )
        assert 0 < accounting.overhead_fraction < 0.10
        as_dict = accounting.as_dict()
        assert set(as_dict) == {"bytes_modelled", "bytes_measured",
                                "overhead_fraction"}

    def test_overhead_fraction_zero_when_unknown(self):
        from repro.analysis import ByteAccounting

        assert ByteAccounting(0.0, 100.0).overhead_fraction == 0.0

    def test_from_traffic(self):
        from repro.analysis import ByteAccounting
        from repro.simulation.network import TrafficStats

        stats = TrafficStats(bytes_sent=1050, bytes_modelled=1000)
        accounting = ByteAccounting.from_traffic(stats)
        assert accounting.bytes_measured == 1050.0
        assert accounting.bytes_modelled == 1000.0
        assert accounting.overhead_fraction == pytest.approx(0.05)


class TestLoadReferenceProfile:
    """A missing or unreadable benchmark file means "no seconds metrics";
    a bug in the loader must not look like one."""

    @pytest.fixture()
    def nowhere(self, tmp_path, monkeypatch):
        """No ``BENCH_crypto.json`` in the working directory or at the root
        the module derives from its own location."""
        from repro.analysis import costs

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(costs, "__file__", str(tmp_path / "src/repro/analysis/costs.py"))
        return tmp_path

    def test_committed_file_gives_the_fast_column(self):
        import json
        from pathlib import Path

        from repro.analysis.costs import load_reference_profile

        payload = json.loads(
            (Path(__file__).resolve().parents[1] / "BENCH_crypto.json").read_text()
        )
        assert load_reference_profile() == CryptoCostProfile.from_bench_json(
            payload, fastmath="auto"
        )

    def test_absent_file_gives_none(self, nowhere):
        from repro.analysis.costs import load_reference_profile

        assert load_reference_profile() is None

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"operations": {}}'])
    def test_malformed_file_gives_none(self, nowhere, text):
        from repro.analysis.costs import load_reference_profile

        (nowhere / "BENCH_crypto.json").write_text(text, encoding="utf-8")
        assert load_reference_profile() is None

    def test_programming_error_propagates(self, nowhere, monkeypatch):
        from repro.analysis.costs import load_reference_profile

        (nowhere / "BENCH_crypto.json").write_text("{}", encoding="utf-8")

        def stale_signature(payload):  # a call site this PR could have missed
            raise AssertionError("unreachable")

        monkeypatch.setattr(CryptoCostProfile, "from_bench_json", stale_signature)
        with pytest.raises(TypeError):
            load_reference_profile()
