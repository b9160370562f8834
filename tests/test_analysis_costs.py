"""Tests of the cost model and the measured crypto cost profile."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import CostModel, ProtocolWorkload, measure_crypto_costs
from repro.core.slab_runner import bootstrap_extrapolate
from repro.crypto.cost_profile import REFERENCE_PROFILE, CryptoCostProfile
from repro.crypto.damgard_jurik import DamgardJurikPublicKey
from repro.crypto.wire import wire_ciphertext_bytes
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

    def test_default_measures_the_arithmetic_runs_execute(self, measured_profile):
        """By default a measurement times the fastmath arithmetic every run
        uses, blinders included, like ``REFERENCE_PROFILE``: its price list
        has an offline phase."""
        assert measured_profile.fastmath == REFERENCE_PROFILE.fastmath == "auto"
        assert measured_profile.pooled_encryption_seconds > 0


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


def phase_seconds(profile, counts):
    """(offline, online) seconds of *counts*: the sums ``price`` is read by."""
    priced = profile.price(counts)
    return sum(priced["offline"].values()), sum(priced["online"].values())


SYNTHETIC_UNPOOLED = CryptoCostProfile(
    key_bits=2048, degree=1, keygen_seconds=1.0, encryption_seconds=0.01,
    addition_seconds=1e-4, partial_decryption_seconds=0.02,
    combination_seconds=0.03, ciphertext_bytes=512,
)
SYNTHETIC_POOLED = replace(
    SYNTHETIC_UNPOOLED, fastmath="auto", pooled_encryption_seconds=0.001
)


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
        estimate = CostModel(SYNTHETIC_UNPOOLED).estimate(workload)
        # 10 iterations * 2*5*49 encryptions * 10 ms each = 49 s of encryption time.
        assert estimate.encryption_seconds == pytest.approx(10 * 2 * 5 * 49 * 0.01)


class TestPhaseSplit:
    """Offline/online phase attribution of pool-served operations."""

    def test_rerandomizations_are_charged_the_pooled_cost(self):
        """Regression: a rerandomization draws a blinder from the same pool
        as a pooled encryption and is one multiplication on the hot path —
        it must never be billed a full fresh exponentiation online."""
        counts = {"encryptions": 10, "pooled_encryptions": 10, "rerandomizations": 5}
        _, online = phase_seconds(SYNTHETIC_POOLED, counts)
        assert online == pytest.approx(15 * 0.001)

    def test_offline_charges_one_exponentiation_per_pool_draw(self):
        counts = {"encryptions": 10, "pooled_encryptions": 10,
                  "rerandomizations": 5, "additions": 100}
        offline, _ = phase_seconds(SYNTHETIC_POOLED, counts)
        assert offline == pytest.approx(15 * 0.01)

    def test_fresh_encryptions_are_the_ones_the_pool_did_not_serve(self):
        """``pooled_encryptions`` is a subset of ``encryptions`` (that is how
        the backends count): only the remainder is a hot-path exponentiation."""
        priced = SYNTHETIC_POOLED.price({"encryptions": 13, "pooled_encryptions": 10})
        assert priced["online"]["encryptions"] == pytest.approx(3 * 0.01)
        assert priced["online"]["pooled_encryptions"] == pytest.approx(10 * 0.001)

    def test_phases_sum_to_the_total(self):
        counts = {"encryptions": 13, "pooled_encryptions": 10,
                  "rerandomizations": 5, "additions": 100,
                  "partial_decryptions": 7, "combinations": 2}
        offline, online = phase_seconds(SYNTHETIC_POOLED, counts)
        assert offline == pytest.approx(15 * 0.01)
        assert online == pytest.approx(
            3 * 0.01 + 15 * 0.001 + 100 * 1e-4 + 7 * 0.02 + 2 * 0.03
        )

    def test_without_a_pool_everything_is_online(self):
        counts = {"encryptions": 10, "pooled_encryptions": 10, "rerandomizations": 5}
        offline, online = phase_seconds(SYNTHETIC_UNPOOLED, counts)
        assert offline == 0.0
        # With no pool the full exponentiation happens on the hot path.
        assert online == pytest.approx(15 * 0.01)

    def test_per_node_arrays_price_like_their_sums(self):
        """Pricing ``(sample,)``-shaped per-node counts and summing is pricing
        the summed counts — and the total ``bootstrap_extrapolate`` reports
        when the sample is the whole population."""
        rng = np.random.default_rng(5)
        per_node = {
            key: rng.integers(0, 500, size=9).astype(float)
            for key in ("additions", "partial_decryptions", "combinations",
                        "pooled_encryptions", "rerandomizations")
        }
        per_node["encryptions"] = per_node["pooled_encryptions"] + 2.0
        offline, online = phase_seconds(SYNTHETIC_POOLED, per_node)
        assert offline.shape == online.shape == (9,)
        summed = {key: values.sum() for key, values in per_node.items()}
        total_offline, total_online = phase_seconds(SYNTHETIC_POOLED, summed)
        assert offline.sum() == pytest.approx(total_offline, rel=1e-12)
        assert online.sum() == pytest.approx(total_online, rel=1e-12)
        measured = bootstrap_extrapolate(
            {"offline_seconds": offline, "online_seconds": online}, population=9
        ).totals
        assert measured["offline_seconds"][0] == pytest.approx(total_offline, rel=1e-12)
        assert measured["online_seconds"][0] == pytest.approx(total_online, rel=1e-12)

    @pytest.mark.parametrize("profile", [SYNTHETIC_UNPOOLED, SYNTHETIC_POOLED])
    @pytest.mark.parametrize("amortized", [False, True])
    def test_cost_model_is_the_pricing_of_the_workload_counts(self, profile, amortized):
        workload = ProtocolWorkload(
            n_clusters=5, series_length=48, iterations=10, gossip_cycles=12,
            exchanges_per_cycle=1, threshold=3, amortized_encryptions=amortized,
        )
        estimate = CostModel(profile).estimate(workload)
        _, online = phase_seconds(profile, {
            name: count * workload.iterations
            for name, count in workload.counts_per_iteration.items()
        })
        assert estimate.total_compute_seconds == pytest.approx(online, rel=1e-12)
        per_encryption = (
            profile.pooled_encryption_seconds
            if amortized and profile.pooled_encryption_seconds > 0
            else profile.encryption_seconds
        )
        assert estimate.encryption_seconds == pytest.approx(
            10 * 2 * 5 * 49 * per_encryption
        )


class TestReferenceProfile:
    """The one committed price list: what each name on it must mean."""

    def test_encryption_is_a_fresh_exponentiation(self):
        assert REFERENCE_PROFILE.encryption_seconds \
            >= 100 * REFERENCE_PROFILE.pooled_encryption_seconds > 0

    def test_addition_is_a_ciphertext_multiplication(self):
        assert 0 < REFERENCE_PROFILE.addition_seconds \
            < REFERENCE_PROFILE.partial_decryption_seconds / 100

    def test_price_weights_counters(self):
        priced = REFERENCE_PROFILE.price({"encryptions": 10})
        assert priced["online"]["encryptions"] == pytest.approx(
            10 * REFERENCE_PROFILE.encryption_seconds
        )
        assert phase_seconds(REFERENCE_PROFILE, {}) == (0.0, 0.0)

    def test_ciphertext_width_is_the_wire_width(self):
        """Every modulus of the recorded key size and degree puts a
        ciphertext on the wire at the width the price list charges."""
        bits, degree = REFERENCE_PROFILE.key_bits, REFERENCE_PROFILE.degree
        for n in ((1 << (bits - 1)) + 1, (1 << bits) - 1):
            public = DamgardJurikPublicKey(n=n, s=degree)
            assert REFERENCE_PROFILE.ciphertext_bytes == wire_ciphertext_bytes(public)


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

    def test_overhead_fraction_zero_when_unknown(self):
        from repro.analysis import ByteAccounting

        assert ByteAccounting(0.0, 100.0).overhead_fraction == 0.0
