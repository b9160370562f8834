"""End-to-end slab-vs-object equivalence and sampled-crypto extrapolation.

The acceptance contract of the slab engine: with sampling fraction 1.0 and
one shard on the plain backend, ``engine="slab"`` is bit-identical to
``engine="object"``; below 1.0 it reports population cost totals with
bootstrap confidence intervals, from a sample that is never smaller than
one complete miniature run (which is what 0.0 asks for).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.clustering.kmeans import reseed_centroid
from repro.config import ChiaroscuroConfig
from repro.core.runner import run_chiaroscuro
from repro.crypto.cost_profile import REFERENCE_PROFILE
from repro.datasets import load_dataset_for_population
from repro.exceptions import ConfigurationError
from repro.privacy.probabilistic import guarantee_for_run


def make_config(n: int, **runtime) -> ChiaroscuroConfig:
    return ChiaroscuroConfig().with_overrides(
        simulation={"n_participants": n, "seed": 5},
        kmeans={"n_clusters": 3, "max_iterations": 3},
        privacy={"epsilon": 4.0, "noise_shares": 12},
        gossip={"cycles_per_aggregation": 4},
        crypto={"threshold": 2, "n_key_shares": 4},
        runtime={"engine": "slab", **runtime},
    )


@pytest.fixture(scope="module")
def collection():
    return load_dataset_for_population("gaussian", 60, 5, n_clusters=3,
                                       noise_std=0.05)


class TestFullSamplingIsObjectMode:
    def test_bit_identical_results(self, collection):
        slab = run_chiaroscuro(collection, make_config(60))
        config = make_config(60).with_overrides(runtime={"engine": "object"})
        obj = run_chiaroscuro(collection, config)
        assert np.array_equal(slab.profiles, obj.profiles)
        assert np.array_equal(slab.assignments, obj.assignments)
        assert slab.n_iterations == obj.n_iterations
        assert slab.epsilon_spent == obj.epsilon_spent
        assert slab.costs.messages_sent == obj.costs.messages_sent
        assert slab.costs.bytes_sent == obj.costs.bytes_sent

    def test_measured_extrapolation_attached(self, collection):
        result = run_chiaroscuro(collection, make_config(60))
        extrapolated = result.costs.extrapolated
        assert extrapolated is not None
        assert extrapolated["method"] == "measured"
        assert extrapolated["population"] == 60
        totals = extrapolated["totals"]
        # Full sampling: intervals are degenerate, totals match the counters.
        assert totals["encryptions"]["estimate"] == result.costs.encryptions
        assert totals["encryptions"]["low"] == totals["encryptions"]["high"]
        # ... and the priced seconds are the cost summary's own.
        assert totals["offline_seconds"]["estimate"] == result.costs.offline_seconds
        assert totals["online_seconds"]["estimate"] == result.costs.online_seconds
        costs = result.costs
        assert {key: entry["estimate"] for key, entry in totals.items()} == {
            "encryptions": costs.encryptions,
            "homomorphic_additions": costs.homomorphic_additions,
            "partial_decryptions": costs.partial_decryptions,
            "combinations": costs.combinations,
            "messages_sent": costs.messages_sent,
            "bytes_sent": costs.bytes_sent,
            "online_seconds": costs.online_seconds,
            "offline_seconds": costs.offline_seconds,
            "crypto_seconds": costs.online_seconds + costs.offline_seconds,
        }
        assert result.metadata["cost_profile"] == REFERENCE_PROFILE.as_dict()
        assert result.metadata["engine"]["crypto_sample_fraction"] == 1.0


class TestSampledCrypto:
    @pytest.fixture(scope="class")
    def sampled(self, collection):
        return run_chiaroscuro(
            collection, make_config(60, crypto_sample_fraction=0.25)
        )

    def test_extrapolated_totals_with_error_bars(self, sampled):
        extrapolated = sampled.costs.extrapolated
        assert extrapolated["method"] == "sampled"
        assert extrapolated["population"] == 60
        assert 0 < extrapolated["sample_size"] < 60
        for key in ("encryptions", "partial_decryptions", "combinations",
                    "messages_sent", "bytes_sent"):
            entry = extrapolated["totals"][key]
            assert entry["low"] <= entry["estimate"] <= entry["high"]
            assert entry["estimate"] > 0
        # The same nine metrics as a fully measured run's block.
        assert len(extrapolated["totals"]) == 9

    def test_phase_split_extrapolates_and_sums(self, sampled):
        """``REFERENCE_PROFILE`` prices the sampled counters, so the
        extrapolated totals carry the offline/online split — and the two
        phases sum to the extrapolated crypto seconds."""
        totals = sampled.costs.extrapolated["totals"]
        assert totals["online_seconds"]["estimate"] > 0
        assert totals["offline_seconds"]["estimate"] >= 0
        assert totals["crypto_seconds"]["estimate"] == pytest.approx(
            totals["online_seconds"]["estimate"]
            + totals["offline_seconds"]["estimate"], rel=1e-6,
        )
        assert sampled.metadata["cost_profile"] == REFERENCE_PROFILE.as_dict()

    def test_cost_summary_prices_the_executed_sample(self, sampled):
        """The summary's own phase split covers what ran (the sample), like
        its counters; it is the un-extrapolated sum of the per-node seconds."""
        costs = sampled.costs
        assert costs.as_dict()["phase_ops"]["online"]["encryptions"] == costs.encryptions
        totals = costs.extrapolated["totals"]
        assert 0 < costs.online_seconds < totals["online_seconds"]["estimate"]
        assert 0 < costs.offline_seconds < totals["offline_seconds"]["estimate"]

    def test_counters_hold_the_sample_only(self, sampled):
        # Executed crypto covers only the sampled sub-run, scaled copies
        # live in the extrapolation.
        assert 0 < sampled.costs.encryptions
        assert (sampled.costs.encryptions
                < sampled.costs.extrapolated["totals"]["encryptions"]["estimate"])

    def test_engine_metadata(self, sampled):
        engine = sampled.metadata["engine"]
        assert engine["name"] == "slab"
        assert engine["population"] == 60
        assert engine["sample_size"] == engine["crypto_sample_fraction"] * 60

    def test_quality_is_reasonable(self, sampled, collection):
        # The bulk slab estimate still clusters the gaussian blobs.
        assert sampled.profiles.shape[0] == 3
        assert np.isfinite(sampled.inertia)
        assert len(np.unique(sampled.assignments)) > 1

    def test_shard_count_does_not_change_results(self, collection, sampled):
        three = run_chiaroscuro(
            collection,
            make_config(60, crypto_sample_fraction=0.25, slab_shards=3),
        )
        assert np.array_equal(three.profiles, sampled.profiles)
        assert np.array_equal(three.assignments, sampled.assignments)


class TestEveryEngineFinishesAlike:
    """Object, full-fraction slab and sampled slab results are all finished
    by ``core.runner.finish_result``: one guarantee formula, one metadata
    stamp (the slab engines add only their ``engine`` block)."""

    @pytest.mark.parametrize("runtime", [
        {"engine": "object"}, {}, {"crypto_sample_fraction": 0.25},
    ], ids=["object", "slab_full", "slab_sampled"])
    def test_guarantee_and_base_metadata(self, collection, runtime):
        config = make_config(60).with_overrides(runtime=runtime)
        result = run_chiaroscuro(collection, config)
        assert result.guarantee == guarantee_for_run(
            max(result.epsilon_spent, 1e-12),
            config.gossip.cycles_per_aggregation,
            60,
        )
        assert set(result.metadata) - {"engine"} == {
            "normalization", "tracked_participants", "dataset", "packing",
            "cost_profile",
        }


def _bulk_iteration(messages, label_agreement, dropped=None, corrupted=None):
    """One iteration's cost record of the 60-node sampled run (600 modelled
    bytes per bulk message), without its ``phase_seconds.*`` timings."""
    record = {"messages_sent": messages, "bytes_sent": 600.0 * messages,
              "label_agreement": label_agreement}
    if dropped is not None:
        record.update(dropped_frames=dropped, corrupted_frames=corrupted)
    return record


class TestPinnedSampledRun:
    """Everything a seeded sampled slab run reports but its timings, pinned.

    The bulk loop's random streams (churn, pairing, noise, loss, corruption)
    and the sample's object sub-run together decide these numbers, so a
    change to how the loop holds or steps its state that moves any draw
    shows up here.  The profiles are pinned as the SHA-256 of their float64
    bytes."""

    CASES = {
        "static": (
            {},
            "75e7a75575e0e27dab1049d32db1a7998742516917146e219fc7ee67a5d4b0b8",
            (486, 1252902),
            (720, 432000, 0, 0),
            [_bulk_iteration(240.0, 1.0), _bulk_iteration(240.0, 0.0),
             _bulk_iteration(240.0, 1.0)],
        ),
        "churn_and_faults": (
            {"simulation": {"churn_rate": 0.1, "rejoin_rate": 0.5},
             "gossip": {"drop_probability": 0.1},
             "network": {"corruption_rate": 0.05}},
            "76738af27d758452bea67a3c6304f198200981da3dd5dc4c74cdbd3ba15b2611",
            (419, 1034544),
            (572, 343200, 62, 27),
            [_bulk_iteration(190.0, 1.0, 16.0, 6.0),
             _bulk_iteration(191.0, 0.0, 25.0, 9.0),
             _bulk_iteration(191.0, 2 / 3, 21.0, 12.0)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_is_pinned(self, collection, case):
        overrides, digest, traffic, bulk, iterations = self.CASES[case]
        result = run_chiaroscuro(
            collection,
            make_config(60, crypto_sample_fraction=0.25).with_overrides(**overrides),
        )
        assert hashlib.sha256(result.profiles.tobytes()).hexdigest() == digest
        assert (result.costs.messages_sent, result.costs.bytes_sent) == traffic
        engine = result.metadata["engine"]
        assert (engine["bulk_messages_modelled"], engine["bulk_bytes_modelled"],
                engine["bulk_dropped_frames"], engine["bulk_corrupted_frames"]) == bulk
        assert [
            {key: value for key, value in record.items()
             if not key.startswith("phase_seconds.")}
            for record in result.costs.iteration_costs
        ] == iterations


class TestLabelAgreementStream:
    def test_every_iteration_records_label_agreement(self, collection):
        """The bulk slab log carries the reference-free convergence signal:
        the fraction of nodes whose cluster label survived from the
        previous iteration, 1.0 by convention on the first.  (At sampling
        fraction 1.0 the slab engine delegates to the object engine, so
        the stream belongs to the sampled bulk path.)"""
        result = run_chiaroscuro(
            collection, make_config(60, crypto_sample_fraction=0.25)
        )
        series = [record.costs["label_agreement"] for record in result.log]
        assert len(series) == result.n_iterations
        assert series[0] == 1.0
        assert all(0.0 <= value <= 1.0 for value in series)

    def test_agreement_flows_into_iteration_costs(self, collection):
        result = run_chiaroscuro(
            collection, make_config(60, crypto_sample_fraction=0.25)
        )
        for entry in result.costs.iteration_costs:
            assert "label_agreement" in entry


class TestSmallestSample:
    def test_zero_fraction_runs_the_smallest_sample(self, collection):
        """A fraction of 0.0 means what the sample-size formula says: the
        smallest population that can run the protocol, max(threshold, k, 2)
        nodes, measured like any other sample."""
        result = run_chiaroscuro(
            collection, make_config(60, crypto_sample_fraction=0.0)
        )
        extrapolated = result.costs.extrapolated
        assert extrapolated["method"] == "sampled"
        assert extrapolated["sample_size"] == 3
        assert result.metadata["engine"]["sample_size"] == 3
        assert result.costs.encryptions > 0
        assert extrapolated["totals"]["encryptions"]["estimate"] > 0


class TestEmptyClusterRepair:
    def test_slab_run_reseeds_empty_clusters(self, collection):
        """Six clusters over three blobs under heavy noise: some clusters
        come out of gossip empty, and the slab loop repairs them by the same
        public rule the participants use — a jittered copy of the (clipped)
        donor centroid.  Smoothing is off so the logged rows are the rule's
        own output."""
        config = make_config(60, crypto_sample_fraction=0.25).with_overrides(
            kmeans={"n_clusters": 6},
            privacy={"epsilon": 0.05},
            smoothing={"method": "none"},
        )
        result = run_chiaroscuro(collection, config)
        bound = config.privacy.value_bound
        reseeded = [
            (record.iteration, cluster)
            for record in result.log
            for cluster, row in enumerate(record.perturbed_means)
            if any(
                np.array_equal(
                    row,
                    reseed_centroid(donor, bound, record.iteration, cluster, seed=5),
                )
                for donor in np.delete(record.perturbed_means, cluster, axis=0)
            )
        ]
        assert reseeded


class TestConfigGuards:
    def test_slab_requires_cycle_mode(self):
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig().with_overrides(
                runtime={"engine": "slab", "mode": "live"}
            )


class TestBulkFaults:
    """Message loss and frame corruption in the sampled bulk path.

    Both used to be rejected at config time; the slab engine now models
    them directly on the pair exchanges (lost/corrupted request drops the
    pair, lost/corrupted reply leaves a half-exchange)."""

    def faulty_config(self, **overrides):
        return make_config(
            60, crypto_sample_fraction=0.25
        ).with_overrides(
            gossip={"drop_probability": 0.1},
            network={"corruption_rate": 0.05},
            **overrides,
        )

    def test_sampled_run_accepts_message_loss(self, collection):
        result = run_chiaroscuro(collection, self.faulty_config())
        engine = result.metadata["engine"]
        assert engine["bulk_dropped_frames"] > 0
        assert engine["bulk_corrupted_frames"] > 0
        assert np.isfinite(result.inertia)

    def test_faults_are_deterministic(self, collection):
        first = run_chiaroscuro(collection, self.faulty_config())
        second = run_chiaroscuro(collection, self.faulty_config())
        assert np.array_equal(first.profiles, second.profiles)
        assert first.costs.messages_sent == second.costs.messages_sent
        assert (first.metadata["engine"]["bulk_dropped_frames"]
                == second.metadata["engine"]["bulk_dropped_frames"])

    def test_faults_reduce_traffic(self, collection):
        clean = run_chiaroscuro(
            collection, make_config(60, crypto_sample_fraction=0.25)
        )
        faulty = run_chiaroscuro(collection, self.faulty_config())
        # Dropped requests suppress their replies, so fewer frames fly.
        assert faulty.costs.messages_sent < clean.costs.messages_sent

    def test_fault_counters_stream_into_iteration_costs(self, collection):
        result = run_chiaroscuro(collection, self.faulty_config())
        for entry in result.costs.iteration_costs:
            assert "dropped_frames" in entry
            assert "corrupted_frames" in entry

    def test_shard_count_invariant_under_faults(self, collection):
        one = run_chiaroscuro(collection, self.faulty_config())
        three = run_chiaroscuro(
            collection, self.faulty_config(runtime={"slab_shards": 3})
        )
        assert np.array_equal(one.profiles, three.profiles)
        assert one.costs.messages_sent == three.costs.messages_sent


class TestSampledChurn:
    """The sampled crypto sub-run sees churn (it used to pin the sample
    population static, biasing the extrapolated cost bars downward)."""

    def test_sample_metadata_records_churn(self, collection):
        result = run_chiaroscuro(
            collection,
            make_config(60, crypto_sample_fraction=0.25).with_overrides(
                simulation={"churn_rate": 0.1, "rejoin_rate": 0.5},
            ),
        )
        assert result.costs.extrapolated["method"] == "sampled"
        assert result.costs.encryptions > 0

    def test_bars_bracket_full_fraction_reference(self, collection):
        churn = {"churn_rate": 0.1, "rejoin_rate": 0.5}
        sampled = run_chiaroscuro(
            collection,
            make_config(60, crypto_sample_fraction=0.5).with_overrides(
                simulation=churn,
            ),
        )
        full = run_chiaroscuro(
            collection, make_config(60).with_overrides(simulation=churn)
        )
        totals = sampled.costs.extrapolated["totals"]
        for key in ("encryptions", "partial_decryptions", "combinations"):
            entry = totals[key]
            reference = getattr(full.costs, key)
            assert entry["low"] <= reference <= entry["high"]
