"""Tests of the append-only JSONL result store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments import ExperimentSpec, ResultStore
from repro.experiments.store import failure_row, profiles_digest


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="store-unit",
        dataset="gaussian",
        dataset_params={"n_clusters": 2},
        participants=12,
        base={"kmeans": {"n_clusters": 2, "max_iterations": 2}},
        sweep={"privacy.epsilon": [1.0, 2.0]},
    )


def _row(key: str, status: str = "ok", extra: dict | None = None) -> dict:
    row = {"key": key, "status": status, "experiment": "store-unit"}
    row.update(extra or {})
    return row


class TestAppendAndRead:
    def test_rows_come_back_in_file_order(self, tmp_path):
        store = ResultStore(tmp_path / "rows.jsonl")
        store.append(_row("a"))
        store.append(_row("b"))
        assert [row["key"] for row in list(store.iter_rows())] == ["a", "b"]

    def test_append_creates_parent_directories(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "dir" / "rows.jsonl")
        store.append(_row("a"))
        assert store.path.exists()

    def test_append_is_append_only(self, tmp_path):
        store = ResultStore(tmp_path / "rows.jsonl")
        store.append(_row("a"))
        first = store.path.read_text(encoding="utf-8")
        store.append(_row("b"))
        assert store.path.read_text(encoding="utf-8").startswith(first)

    def test_missing_file_reads_as_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert list(store.iter_rows()) == []
        assert store.completed_keys() == set()

    def test_rows_need_key_and_status(self, tmp_path):
        store = ResultStore(tmp_path / "rows.jsonl")
        with pytest.raises(ExperimentError):
            store.append({"key": "a"})
        with pytest.raises(ExperimentError):
            store.append({"key": "a", "status": "meh"})

    def test_interior_corruption_is_reported_with_location(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"key": "a", "status": "ok"}\nnot json\n{"key": "b", "status": "ok"}\n',
            encoding="utf-8",
        )
        store = ResultStore(path)
        with pytest.raises(ExperimentError, match="rows.jsonl:2"):
            list(store.iter_rows())

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        # A run killed mid-append leaves a partial trailing record; resume
        # must still read every complete row instead of refusing the store.
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"key": "a", "status": "ok"}\n{"key": "b", "sta', encoding="utf-8",
        )
        store = ResultStore(path)
        assert [row["key"] for row in list(store.iter_rows())] == ["a"]
        assert store.completed_keys() == {"a"}

    def test_append_after_truncation_drops_the_partial_record(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"key": "a", "status": "ok"}\n{"key": "b", "sta', encoding="utf-8",
        )
        store = ResultStore(path)
        store.append(_row("c"))
        # The partial record is gone (not merged into the new row), and the
        # store reads cleanly end to end.
        assert [row["key"] for row in list(store.iter_rows())] == ["a", "c"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '\n{"key": "a", "status": "ok"}\n\n  \n{"key": "b", "status": "ok"}\n\n',
            encoding="utf-8",
        )
        assert [row["key"] for row in ResultStore(path).iter_rows()] == ["a", "b"]

    def test_truncated_record_before_trailing_blank_lines_is_the_tail(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"key": "a", "status": "ok"}\n{"key": "b\n\n\n', encoding="utf-8")
        assert [row["key"] for row in ResultStore(path).iter_rows()] == ["a"]

    def test_non_object_lines_are_rejected(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ExperimentError):
            list(ResultStore(path).iter_rows())


class TestCacheSemantics:
    def test_only_ok_rows_count_as_completed(self, tmp_path):
        store = ResultStore(tmp_path / "rows.jsonl")
        store.append(_row("good", "ok"))
        store.append(_row("bad", "error", {"error": "boom"}))
        store.append(_row("slow", "timeout", {"error": "too slow"}))
        assert store.completed_keys() == {"good"}

    def test_latest_row_wins(self, tmp_path):
        store = ResultStore(tmp_path / "rows.jsonl")
        store.append(_row("cell", "error", {"error": "first try"}))
        store.append(_row("cell", "ok"))
        assert store.completed_keys() == {"cell"}
        # ... and a later failure invalidates the cache again.
        store.append(_row("cell", "timeout", {"error": "regression"}))
        assert store.completed_keys() == set()

    def test_latest_by_key_holds_the_last_row_of_each_key(self, tmp_path):
        store = ResultStore(tmp_path / "rows.jsonl")
        store.append(_row("x", "error", {"error": "first"}))
        store.append(_row("y", "ok", {"value": 1}))
        store.append(_row("x", "ok", {"value": 2}))
        latest = store.latest_by_key()
        assert list(latest) == ["x", "y"]
        assert latest["x"]["status"] == "ok" and latest["x"]["value"] == 2
        assert latest["y"]["value"] == 1

    def test_failure_row_shape(self):
        spec = _spec()
        cell = spec.expand()[0]
        row = failure_row(spec, cell, "timeout", "exceeded 5s", 5.2)
        assert row["status"] == "timeout"
        assert row["key"] == cell.key
        assert row["cell"]["overrides"] == {"privacy.epsilon": 1.0}
        assert row["timing"]["wall_clock_seconds"] == pytest.approx(5.2)
        with pytest.raises(ExperimentError):
            failure_row(spec, cell, "ok", "not a failure", 0.0)


class TestProfilesDigest:
    def test_digest_is_stable(self):
        profiles = np.arange(12, dtype=float).reshape(3, 4)
        assert profiles_digest(profiles) == profiles_digest(profiles.copy())

    def test_digest_tracks_values_and_shape(self):
        profiles = np.arange(12, dtype=float).reshape(3, 4)
        changed = profiles.copy()
        changed[0, 0] += 1e-12
        assert profiles_digest(profiles) != profiles_digest(changed)
        assert profiles_digest(profiles) != profiles_digest(profiles.reshape(4, 3))
