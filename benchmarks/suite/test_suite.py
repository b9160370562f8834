"""Tier-1 tests of the benchmark suite itself: arithmetic, verdicts, names,
and one smoke-scale run.  No sockets, no timing assertions."""

from __future__ import annotations

import json
import os
import re

import pytest

import calibrate
import compare
import run
import trace
from workloads import DRIVER_WORKLOADS, END_TO_END, PER_LAYER, WORKLOADS


def _spans(rows):
    """Hand-built spans ``(name id, parent, start, end)`` in start order."""
    spans = trace.Spans()
    for name_id, parent, start, end in rows:
        spans.end[spans.open(name_id, parent, start)] = end
    return spans


class TestSelfTimes:
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = _spans([
            (0, -1, 0.0, 10.0),   # root
            (1, 0, 1.0, 4.0),     # child
            (2, 1, 2.0, 3.0),     # grandchild
            (1, 0, 3.5, 6.0),     # overlaps the first child by 0.5
            (1, 0, 8.0, 9.0),
        ])
        own = trace.self_times(spans.parent, spans.start, spans.end)
        assert own == pytest.approx([10.0 - (3.0 + 2.0 + 1.0), 2.0, 1.0, 2.5, 1.0])
        # Self times partition the root's wall: nothing is counted twice
        # except where siblings genuinely ran at the same time.
        assert sum(own) == pytest.approx(10.0 + 0.5)

    def test_a_child_outliving_its_parent_is_clipped(self):
        spans = _spans([(0, -1, 0.0, 2.0), (1, 0, 1.0, 5.0)])
        assert trace.self_times(spans.parent, spans.start, spans.end) == \
            pytest.approx([1.0, 4.0])

    def test_layer_table_counts_leaves_amounts_and_failures(self):
        spans = _spans([
            (0, -1, 0.0, 9.0),
            (1, 0, 1.0, 5.0),     # decrypt_many fanning out ...
            (1, 1, 1.5, 2.5),     # ... into two per-estimate decrypts
            (1, 1, 3.0, 4.0),
            (2, 0, 6.0, 7.0),
        ])
        spans.amount[4] = 4096
        spans.failed[3] = 1
        table = trace.layer_table(spans, ["run", "decrypt", "encode"])
        assert table["decrypt"]["calls"] == 3
        assert table["decrypt"]["leaves"] == 2
        assert table["decrypt"]["failed"] == 1
        assert table["decrypt"]["self_s"] == pytest.approx(4.0)
        assert table["encode"]["amount"] == 4096
        assert table["run"]["self_s"] == pytest.approx(9.0 - 4.0 - 1.0)
        merged = trace.merge_tables([table, table])
        assert merged["decrypt"]["calls"] == 6


def _result(values, better="lower", bound=0.10, per_layer=None):
    return {"workloads": {"object_plain": {
        "end_to_end": {"run_wall_s": {
            "values": values, "median": sorted(values)[len(values) // 2],
            "better": better, "bound": bound}},
        "per_layer": per_layer or {},
    }}}


class TestCompare:
    @pytest.mark.parametrize("baseline, candidate, better, bound, verdict", [
        ([2.00, 2.01, 2.02], [1.50, 1.51, 1.52], "lower", 0.10, "better"),
        ([2.00, 2.01, 2.02], [2.05, 2.06, 2.07], "lower", 0.10, "within"),
        ([2.00, 2.01, 2.02], [2.50, 2.51, 2.52], "lower", 0.10, "worse"),
        ([2.00, 2.01, 2.02], [2.50, 2.51, 2.52], "higher", 0.10, "better"),
        # Spread wider than the bound and the runs overlap: cannot tell.
        ([2.0, 2.4, 2.9], [2.1, 2.7, 3.0], "lower", 0.10, "unresolved"),
        # As wide, but every candidate run beats every baseline run.
        ([2.0, 2.4, 2.9], [1.0, 1.2, 1.5], "lower", 0.10, "better"),
        ([117455.0] * 3, [117455.0] * 3, "lower", 0.0, "within"),
        ([117455.0] * 3, [117456.0] * 3, "lower", 0.0, "worse"),
    ])
    def test_verdicts(self, baseline, candidate, better, bound, verdict):
        assert compare.judge(baseline, candidate, better, bound)[0] == verdict

    def test_exact_layer_counts_must_match_on_single_process_workloads(self):
        calls = {"gossip.messages.encode_calls": {"unit": "count", "value": 7206}}
        seconds = {"gossip.messages.encode_s": {"unit": "s", "value": 0.3}}
        baseline = _result([2.0, 2.0, 2.0], per_layer={**calls, **seconds})
        moved = {"gossip.messages.encode_calls": {"unit": "count", "value": 7000},
                 "gossip.messages.encode_s": {"unit": "s", "value": 0.2}}
        rows = compare.compare(baseline, _result([2.0, 2.0, 2.0], per_layer=moved))
        assert [(row[1], row[2]) for row in rows] == [
            ("run_wall_s", "within"),
            ("gossip.messages.encode_calls", "mismatch"),
        ]

    def test_exit_code_follows_the_rows(self, tmp_path):
        paths = []
        for label, values in (("a", [2.0, 2.0, 2.0]), ("b", [2.6, 2.6, 2.6])):
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(_result(values)))
            paths.append(str(path))
        assert compare.main([paths[0], paths[0]]) == 0
        assert compare.main(paths) == 1


class TestCalibration:
    def test_every_workload_names_a_kernel_or_none(self):
        for definition in WORKLOADS.values():
            assert definition["calibration"] in (*calibrate.KERNELS, None)

    @pytest.mark.parametrize("kernel", calibrate.KERNELS)
    def test_a_sampler_always_has_a_burst_to_judge_by(self, kernel):
        try:
            sampler = calibrate.Sampler(kernel)
            sampler.start()
            sampler.stop()  # at once: the first burst still completes
        finally:
            calibrate._memory.cache_clear()  # 65 MB the other tests do not need
        assert sampler.cpu_s and sampler.slowdown > 0
        assert sampler.core_s == sum(sampler.cpu_s)

    def test_calibrated_seconds(self):
        row = {"run_wall_s": 3.0, "cpu_s": 2.8, "child_wall_s": 3.3,
               "sampler_s": 0.11, "slowdown": 1.4}
        assert run.calibrated(row, "cpu_s") == pytest.approx(2.0)
        # The wall first gives back the run's share of the sampler's core time.
        assert run.calibrated(row, "run_wall_s") == pytest.approx(
            (3.0 - 0.11 * 3.0 / 3.3) / 1.4)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="Linux only")
    def test_pin_confines_to_one_core_and_unpin_restores(self):
        before = os.sched_getaffinity(0)
        allowed = calibrate.pin()
        try:
            assert allowed == before and len(os.sched_getaffinity(0)) == 1
            calibrate.unpin()  # every core there is: what a child of a
            assert os.sched_getaffinity(0) >= before  # concurrent workload does
        finally:
            calibrate.unpin(allowed)
        assert os.sched_getaffinity(0) == before


class TestRegistry:
    @pytest.fixture(scope="class")
    def manifest(self):
        return json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_names_match_the_registry_both_ways(self, manifest):
        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        listed = {
            "workloads": [row["name"] for row in manifest["workloads"]],
            "end_to_end": [row["name"] for row in manifest["end_to_end"]],
            "per_layer": [row["name"] for row in manifest["per_layer"]],
        }
        for names in listed.values():
            assert all(name.fullmatch(entry) for entry in names)
            assert len(set(names)) == len(names)
        assert listed["workloads"] == list(DRIVER_WORKLOADS)
        assert set(DRIVER_WORKLOADS) <= set(WORKLOADS)
        assert listed["end_to_end"] == list(run.DRIVER_END_TO_END)
        assert listed["per_layer"] == list(PER_LAYER)

    def test_units_directions_and_bounds_match(self, manifest):
        for row in manifest["end_to_end"]:
            unit, better, bound, per_workload = END_TO_END[row["name"]]
            assert (row["unit"], row["better"]) == (unit, better)
            # One bound per metric there: the widest any workload has here.
            assert row["bound"] >= max([bound, *per_workload.values()])
            assert row["bound"] <= 0.25
        for row in manifest["per_layer"]:
            assert (row["unit"], row["better"]) == PER_LAYER[row["name"]][:2]
        assert manifest["paths"] == ["benchmarks/suite"]
        assert manifest["command"] == ["python3", "benchmarks/suite/run.py"]

    def test_every_boundary_names_a_callable_of_the_program(self):
        import importlib

        for _name, module, qualified, _enter, _leave in trace.BOUNDARIES:
            owner = importlib.import_module(module)
            for part in qualified.split("."):
                owner = getattr(owner, part)
            assert callable(owner)


def test_smoke_run_of_object_plain_yields_every_metric(tmp_path, capsys):
    out = tmp_path / "smoke.json"
    status = run.main(["--scale", "smoke", "--workloads", "object_plain",
                       "--reps", "1", "--out", str(out)])
    printed = capsys.readouterr().out
    report = json.loads(out.read_text(encoding="utf-8"))
    entry = report["workloads"]["object_plain"]
    assert status == 0 and entry["failed"] == 0 and not entry["failures"]
    assert entry["attempted"] == 2  # one untraced, one traced
    assert set(entry["end_to_end"]) == set(END_TO_END)
    assert set(entry["per_layer"]) == set(PER_LAYER)
    for metric in list(END_TO_END) + list(PER_LAYER):
        assert metric in printed
    assert entry["end_to_end"]["fail_share"]["median"] == 0
    layers = {metric: row["value"] for metric, row in entry["per_layer"].items()}
    # The wire byte count is measured twice, from outside and by the program.
    assert layers["net.transport.transmit_bytes"] == entry["traced"]["bytes_sent"]
    assert layers["gossip.messages.encode_calls"] > 0
    assert layers["probe.wire.decode_mb_s.plain"] > 0
    assert report["provenance"]["seed"] == 7
    line = json.loads(run.driver_line(report, "object_plain", "0"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and set(line["metrics"]) == set(run.DRIVER_END_TO_END)
    traced_line = json.loads(run.driver_line(report, "object_plain", "1"))
    assert set(traced_line["metrics"]) == set(PER_LAYER)
