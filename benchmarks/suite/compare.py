"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the baseline, B the candidate.  One row per (workload, end-to-end
metric), each with both medians and the ratio B/A, judged by the metric's
direction and its bound for that workload:

* ``better`` / ``worse``: B's median is beyond the bound on that side;
* ``within``: it is not;
* ``unresolved``: either side's min-max spread is wider than the bound and
  the two sets of runs overlap, so the medians cannot tell — reported as
  such, never as unchanged;
* ``mismatch``: a count that must repeat exactly on a single-process
  workload (per-layer ``_calls``/``_bytes``) differs.

Exits non-zero on any ``worse`` or ``mismatch`` row, or a higher
``fail_share``.  Two runs of one commit must therefore exit 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Sequence

from workloads import EXACT_UNITS, PER_LAYER, SINGLE_PROCESS

FAILING = ("worse", "mismatch")


def judge(baseline: Sequence[float], candidate: Sequence[float],
          better: str, bound: float) -> tuple[str, float, float, float]:
    """``(verdict, baseline median, candidate median, ratio)`` of one metric."""
    base, new = statistics.median(baseline), statistics.median(candidate)
    ratio = new / base if base else float("inf") if new else 1.0
    worsening = (new - base) / base if base else float(new != base)
    if better == "higher":
        worsening = -worsening
    if bound == 0:
        verdict = "within" if new == base else "worse" if worsening > 0 else "better"
        return verdict, base, new, ratio

    def spread(values: Sequence[float]) -> float:
        return (max(values) - min(values)) / statistics.median(values)

    overlap = min(baseline) <= max(candidate) and min(candidate) <= max(baseline)
    if overlap and max(spread(baseline), spread(candidate)) > bound:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    elif worsening < -bound:
        verdict = "better"
    else:
        verdict = "within"
    return verdict, base, new, ratio


def compare(baseline: dict[str, Any], candidate: dict[str, Any],
            ) -> list[tuple[str, str, str, float, float, float, float]]:
    """Rows ``(workload, metric, verdict, A, B, ratio, bound)``."""
    rows = []
    for name, before in baseline["workloads"].items():
        after = candidate["workloads"].get(name)
        if after is None:
            continue
        for metric, old in before["end_to_end"].items():
            new = after["end_to_end"].get(metric)
            if new is None:
                rows.append((name, metric, "worse", old["median"], float("nan"),
                             float("nan"), old["bound"]))
                continue
            rows.append((name, metric, *judge(
                old["values"], new["values"], old["better"], old["bound"]),
                old["bound"]))
        if name not in SINGLE_PROCESS:
            continue
        for metric, old in before["per_layer"].items():
            new = after["per_layer"].get(metric)
            if new is not None and PER_LAYER[metric][0] in EXACT_UNITS \
                    and new["value"] != old["value"]:
                rows.append((name, metric, "mismatch", old["value"], new["value"],
                             new["value"] / old["value"] if old["value"] else float("inf"),
                             0.0))
    return rows


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    loaded = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    rows = compare(*loaded)
    print(f"{'workload':<14} {'metric':<44} {'verdict':<11} "
          f"{'A median':>14} {'B median':>14} {'B/A':>8} {'bound':>6}")
    for name, metric, verdict, base, new, ratio, bound in rows:
        print(f"{name:<14} {metric:<44} {verdict:<11} {base:>14.6g} {new:>14.6g} "
              f"{ratio:>8.4f} {bound:>6.2f}")
    failing = [row for row in rows if row[2] in FAILING]
    print(f"{len(rows)} rows, {len(failing)} failing "
          f"({', '.join(sorted({row[2] for row in rows}))})")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
