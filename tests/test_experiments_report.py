"""Tests of the cross-scenario comparison reports."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_markdown_table
from repro.exceptions import AnalysisError
from repro.experiments import (
    ExperimentSpec,
    ResultStore,
    comparison_rows,
    format_report,
    run_experiment,
    scenario_rows,
)
from repro.experiments.report import iteration_cost_rows


@pytest.fixture(scope="module")
def executed():
    """One executed two-scenario, two-repeat experiment in a module store."""
    import tempfile
    from pathlib import Path

    spec = ExperimentSpec(
        name="report-unit",
        dataset="gaussian",
        dataset_params={"n_clusters": 2, "noise_std": 0.05},
        participants=14,
        base={
            "kmeans": {"n_clusters": 2, "max_iterations": 2},
            "privacy": {"epsilon": 4.0, "noise_shares": 6},
            "gossip": {"cycles_per_aggregation": 3},
            "crypto": {"threshold": 2, "n_key_shares": 3},
        },
        sweep={"privacy.epsilon": [2.0, 4.0]},
        repeats=2,
        base_seed=1,
        metrics={"label_key": "cluster"},
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "results.jsonl")
        progress = run_experiment(spec, store, jobs=2)
        assert progress.failed == 0
        yield spec, store


class TestScenarioRows:
    def test_one_row_per_cell_in_expansion_order(self, executed):
        spec, store = executed
        rows = scenario_rows(spec, store)
        assert [row["cell"] for row in rows] == [0, 1, 2, 3]
        assert [row["privacy.epsilon"] for row in rows] == [2.0, 2.0, 4.0, 4.0]
        assert [row["seed"] for row in rows] == [1, 2, 1, 2]

    def test_rows_carry_quality_cost_and_timing(self, executed):
        spec, store = executed
        row = scenario_rows(spec, store)[0]
        assert row["relative_inertia"] > 0
        assert row["bytes_sent"] > 0
        assert row["wall_clock_seconds"] > 0
        assert len(row["iteration_costs"]) >= 1
        assert row["profiles_digest"]

    def test_incomplete_cells_are_absent(self, executed):
        spec, _ = executed
        empty = ResultStore("/nonexistent/never-written.jsonl")
        assert scenario_rows(spec, empty) == []

    def test_rows_carry_the_phase_split(self, executed):
        """``REFERENCE_PROFILE`` prices every stored run, so report rows
        surface the offline/online crypto-second split as columns."""
        spec, store = executed
        for row in scenario_rows(spec, store):
            assert row["online_seconds"] > 0
            assert row["offline_seconds"] >= 0


class TestComparisonRows:
    def test_one_row_per_scenario_with_run_counts(self, executed):
        spec, store = executed
        rows = comparison_rows(spec, store)
        assert len(rows) == 2
        assert [row["privacy.epsilon"] for row in rows] == [2.0, 4.0]
        assert all(row["runs"] == 2 for row in rows)

    def test_repeats_aggregate_by_mean(self, executed):
        spec, store = executed
        flat = scenario_rows(spec, store)
        rows = comparison_rows(spec, store, metrics=["inertia"])
        expected = (flat[0]["inertia"] + flat[1]["inertia"]) / 2
        assert rows[0]["inertia"] == pytest.approx(expected)

    def test_boolean_repeats_aggregate_to_agreement_or_fraction(self):
        from repro.experiments.report import _aggregate

        assert _aggregate([True, True]) is True
        assert _aggregate([False, False]) is False
        assert _aggregate([True, False, False]) == pytest.approx(1 / 3)
        assert _aggregate([True]) is True

    def test_single_run_values_pass_through_unchanged(self, executed):
        spec, store = executed
        solo = ExperimentSpec.from_dict({
            **spec.to_dict(), "repeats": 1, "base_seed": 1,
            "sweep": {"privacy.epsilon": [2.0]},
        })
        flat = scenario_rows(solo, store)
        rows = comparison_rows(solo, store)
        # Mean-of-one must not perturb values or types (ints stay ints).
        assert rows[0]["n_iterations"] == flat[0]["n_iterations"]
        assert isinstance(rows[0]["n_iterations"], type(flat[0]["n_iterations"]))
        # No repeats anywhere ⇒ no spread columns sneak in.
        assert not any(key.endswith((".std", ".min", ".max")) for key in rows[0])

    def test_repeats_gain_spread_columns(self, executed):
        spec, store = executed
        flat = scenario_rows(spec, store)
        rows = comparison_rows(spec, store, metrics=["inertia"])
        values = [flat[0]["inertia"], flat[1]["inertia"]]
        assert rows[0]["inertia.min"] == min(values)
        assert rows[0]["inertia.max"] == max(values)
        mean = sum(values) / 2
        expected_std = (sum((v - mean) ** 2 for v in values) / 1) ** 0.5
        assert rows[0]["inertia.std"] == pytest.approx(expected_std)
        assert rows[0]["inertia.min"] <= rows[0]["inertia"] <= rows[0]["inertia.max"]

    def test_spread_can_be_disabled(self, executed):
        spec, store = executed
        rows = comparison_rows(spec, store, metrics=["inertia"], spread=False)
        assert list(rows[0]) == ["scenario", "privacy.epsilon", "inertia", "runs"]


class TestIterationCosts:
    def test_per_iteration_byte_series(self, executed):
        spec, store = executed
        rows = iteration_cost_rows(spec, store)
        assert rows, "expected at least one iteration"
        assert rows[0]["iteration"] == 1
        labels = [key for key in rows[0] if key != "iteration"]
        assert labels == ["privacy.epsilon=2.0", "privacy.epsilon=4.0"]
        assert all(rows[0][label] > 0 for label in labels)


class TestFormatReport:
    def test_text_report_contains_both_tables(self, executed):
        spec, store = executed
        report = format_report(spec, store)
        assert "experiment: report-unit" in report
        assert "scenario comparison" in report
        assert "per-iteration network cost" in report
        assert "completed=4" in report

    def test_markdown_report(self, executed):
        spec, store = executed
        report = format_report(spec, store, markdown=True)
        assert report.startswith("# Experiment: report-unit")
        assert "| privacy.epsilon |" in report
        assert "| --- |" in report

    def test_empty_store_reports_gracefully(self, executed):
        spec, _ = executed
        report = format_report(spec, ResultStore("/nonexistent/never.jsonl"))
        assert "no completed cells" in report


class TestCrossStoreReport:
    def test_rows_interleave_scenario_major(self, executed):
        from repro.experiments import cross_store_rows

        spec, store = executed
        rows = cross_store_rows(spec, [("left", store), ("right", store)])
        # Two scenarios x two sources, the rows being diffed adjacent.
        assert [row["store"] for row in rows] == ["left", "right"] * 2
        assert [row["scenario"] for row in rows] == [0, 0, 1, 1]
        # Same store under both labels ⇒ the aligned cells agree exactly.
        assert rows[0]["inertia"] == rows[1]["inertia"]
        assert rows[0]["privacy.epsilon"] == rows[1]["privacy.epsilon"] == 2.0

    def test_missing_cells_in_one_store_are_skipped(self, executed):
        from repro.experiments import cross_store_rows

        spec, store = executed
        empty = ResultStore("/nonexistent/never.jsonl")
        rows = cross_store_rows(spec, [("full", store), ("empty", empty)])
        assert [row["store"] for row in rows] == ["full", "full"]

    def test_format_cross_report_renders_both_sources(self, executed):
        from repro.experiments import format_cross_report

        spec, store = executed
        report = format_cross_report(spec, [("a", store), ("b", store)])
        assert "experiment: report-unit (cross-store)" in report
        assert "stores: a, b" in report
        assert "cross-store scenario comparison" in report

    def test_empty_sources_report_gracefully(self, executed):
        from repro.experiments import format_cross_report

        spec, _ = executed
        empty = ResultStore("/nonexistent/never.jsonl")
        report = format_cross_report(spec, [("a", empty)])
        assert "no completed cells" in report


class TestMarkdownTable:
    def test_rows_render_as_pipes(self):
        text = format_markdown_table(
            [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.5}], title="t"
        )
        lines = text.splitlines()
        assert lines[0] == "### t"
        assert lines[2] == "| a | b |"
        assert lines[3] == "| --- | --- |"
        assert lines[4] == "| 1 | 0.5000 |"

    def test_pipes_in_cells_are_escaped(self):
        text = format_markdown_table([{"a": "x|y"}])
        assert "x\\|y" in text

    def test_empty_rows_rejected(self):
        with pytest.raises(AnalysisError):
            format_markdown_table([])
