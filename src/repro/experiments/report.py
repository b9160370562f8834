"""Cross-scenario comparison reports over the result store.

Built on :mod:`repro.analysis.reporting`: the same aligned-text tables the
benchmarks print, plus a markdown variant for CI artifacts.  A report walks
the spec's scenario matrix, pulls every completed cell's row from the store
and renders:

* a **comparison table** — one row per scenario (axis values as the leading
  columns), repeats aggregated by mean with ``.std``/``.min``/``.max``
  spread columns alongside; a single-repeat scenario's row carries the
  stored values verbatim (and no spread columns), bit-identical to an
  equivalent standalone ``repro run``;
* a **per-iteration network-cost table** — the per-iteration byte deltas
  recorded in the execution log, one column per scenario (quality vs. ε,
  bytes vs. N and convergence vs. churn all read off these two tables).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..analysis.reporting import format_markdown_table, format_table
from .spec import ExperimentSpec, ScenarioCell
from .store import ResultStore

#: Metric columns reports show by default, in order, when present in rows.
DEFAULT_METRICS = (
    "relative_inertia",
    "adjusted_rand_index",
    "inertia",
    "n_iterations",
    "converged",
    "epsilon_spent",
    "effective_epsilon",
    "delta",
    "messages_per_participant",
    "bytes_per_participant",
    "wall_clock_seconds",
    # Phase-tagged crypto compute, priced by crypto.cost_profile.REFERENCE_PROFILE.
    "offline_seconds",
    "online_seconds",
    # Nondeterminism envelope of concurrent live runs (absent otherwise).
    "envelope.profile_distance_relative",
    "envelope.assignment_churn",
    "envelope.byte_spread",
    # Measured per-phase wall-clock of the slab engine's bulk loop (absent
    # for the object engine and full-measured slab runs).
    "phase_seconds.assignment",
    "phase_seconds.averaging",
    "phase_seconds.means",
    "phase_seconds.sample",
)


def _axis_value(cell: ScenarioCell, axis: str, described: Mapping[str, Any]) -> Any:
    """The effective value of one dotted axis for a cell (override or base)."""
    if axis == "participants":
        return cell.participants
    if axis.startswith("dataset."):
        return cell.dataset_params.get(axis[len("dataset."):], "")
    section, _, fieldname = axis.partition(".")
    return described.get(section, {}).get(fieldname, "")


def _flat_row(spec: ExperimentSpec, cell: ScenarioCell, row: Mapping[str, Any],
              axis_keys: Sequence[str],
              described_cache: dict[int, Mapping[str, Any]]) -> dict[str, Any]:
    """Flatten one stored ``ok`` row into a single-level report row.

    *described_cache* memoizes the (config-validating) ``describe()`` view
    per scenario — repeats of a scenario differ only in seed, which is not
    an axis value, so they share one entry.
    """
    described: Mapping[str, Any] = {}
    if axis_keys:
        if cell.scenario not in described_cache:
            described_cache[cell.scenario] = cell.config().describe()
        described = described_cache[cell.scenario]
    flat: dict[str, Any] = {"cell": cell.index, "scenario": cell.scenario}
    for axis in axis_keys:
        flat[axis] = _axis_value(cell, axis, described)
    flat["seed"] = cell.seed
    result = row.get("result", {})
    flat.update(result.get("quality", {}))
    flat.update(result.get("summary", {}))
    flat.update({
        "bytes_sent": result.get("costs", {}).get("bytes_sent"),
        "messages_sent": result.get("costs", {}).get("messages_sent"),
        "encryptions": result.get("costs", {}).get("encryptions"),
        "offline_seconds": result.get("costs", {}).get("offline_seconds"),
        "online_seconds": result.get("costs", {}).get("online_seconds"),
        "profiles_digest": result.get("profiles_digest"),
        "wall_clock_seconds": row.get("timing", {}).get("wall_clock_seconds"),
    })
    # Concurrent live runs attach divergence-from-reference metrics; flatten
    # them under an "envelope." prefix so they render as ordinary columns.
    for key, value in (result.get("costs", {}).get("envelope") or {}).items():
        flat[f"envelope.{key}"] = value
    # Measured slab phase profile; flatten under a "phase_seconds." prefix
    # so each phase renders as an ordinary column.
    for key, value in (result.get("costs", {}).get("phase_seconds") or {}).items():
        flat[f"phase_seconds.{key}"] = value
    flat["iteration_costs"] = result.get("iteration_costs", [])
    flat.pop("stop_reasons", None)
    return flat


def scenario_rows(spec: ExperimentSpec, store: ResultStore) -> list[dict[str, Any]]:
    """One flat row per *completed* cell of this spec, in expansion order.

    Rows come from the latest ``ok`` store entry of each cell key; cells
    without a completed result (never run, errored, timed out) are absent.
    """
    latest = store.latest_by_key()
    axis_keys = spec.axis_keys()
    described_cache: dict[int, Mapping[str, Any]] = {}
    rows: list[dict[str, Any]] = []
    for cell in spec.expand():
        row = latest.get(cell.key)
        if row is not None and row.get("status") == "ok":
            rows.append(_flat_row(spec, cell, row, axis_keys, described_cache))
    return rows


def _aggregate(values: list[Any]) -> Any:
    """Mean for numeric repeat values; agreement-or-fraction for booleans.

    A single value passes through unchanged (type included), which keeps
    single-repeat scenario rows bit-identical to the stored run results.
    Disagreeing boolean repeats (e.g. only some seeds converged) aggregate
    to the fraction of true values rather than silently showing one seed's
    outcome; other non-numeric values fall back to the first repeat.
    """
    if len(values) == 1:
        return values[0]
    if all(isinstance(value, bool) for value in values):
        if all(value == values[0] for value in values):
            return values[0]
        return sum(1.0 for value in values if value) / len(values)
    numeric = [value for value in values
               if isinstance(value, (int, float)) and not isinstance(value, bool)]
    if len(numeric) == len(values) and numeric:
        return sum(float(value) for value in numeric) / len(numeric)
    return values[0]


def _spread(values: list[Any]) -> dict[str, float] | None:
    """Sample std / min / max of repeated numeric values, None otherwise.

    Defined only for two or more all-numeric repeats — exactly the rows
    whose mean hides variation worth reporting.
    """
    numeric = [float(value) for value in values
               if isinstance(value, (int, float)) and not isinstance(value, bool)]
    if len(numeric) < 2 or len(numeric) != len(values):
        return None
    mean = sum(numeric) / len(numeric)
    variance = sum((value - mean) ** 2 for value in numeric) / (len(numeric) - 1)
    return {"std": variance ** 0.5, "min": min(numeric), "max": max(numeric)}


def comparison_rows(
    spec: ExperimentSpec,
    store: ResultStore,
    metrics: Sequence[str] | None = None,
    rows: Sequence[Mapping[str, Any]] | None = None,
    spread: bool = True,
) -> list[dict[str, Any]]:
    """One row per scenario: axis columns, then metrics aggregated over repeats.

    With *spread* (the default), every numeric metric that has repeats
    anywhere in the matrix also gets ``<metric>.std`` / ``.min`` / ``.max``
    columns (sample std; blank for scenarios with a single completed
    repeat).  A matrix with no repeats at all gains no extra columns, so
    single-repeat reports are unchanged.  Pass precomputed
    :func:`scenario_rows` as *rows* to avoid re-reading the store
    (``format_report`` builds several tables from one read).
    """
    flat = scenario_rows(spec, store) if rows is None else list(rows)
    by_scenario: dict[int, list[dict[str, Any]]] = {}
    for row in flat:
        by_scenario.setdefault(int(row["scenario"]), []).append(row)
    axis_keys = spec.axis_keys()
    # One shared column set across all scenarios: per-group auto-detection
    # would give rows inconsistent keys when a metric is present in only
    # some scenarios, and format_table builds its columns from the first row.
    wanted = metrics if metrics is not None else [
        metric for metric in DEFAULT_METRICS
        if any(metric in member for member in flat)
    ]
    spread_metrics: list[str] = []
    if spread:
        spread_metrics = [
            metric for metric in wanted
            if any(_spread([member[metric] for member in group
                            if metric in member]) is not None
                   for group in by_scenario.values())
        ]
    out: list[dict[str, Any]] = []
    for scenario in sorted(by_scenario):
        group = by_scenario[scenario]
        row: dict[str, Any] = {"scenario": scenario}
        for axis in axis_keys:
            row[axis] = group[0].get(axis, "")
        for metric in wanted:
            values = [member[metric] for member in group if metric in member]
            row[metric] = _aggregate(values or [""])
            if metric in spread_metrics:
                stats = _spread(values) or {}
                for statistic in ("std", "min", "max"):
                    row[f"{metric}.{statistic}"] = stats.get(statistic, "")
        row["runs"] = len(group)
        out.append(row)
    return out


def _scenario_label(spec: ExperimentSpec, overrides: Mapping[str, Any]) -> str:
    if not overrides:
        return "base"
    return ", ".join(f"{key}={value}" for key, value in overrides.items())


def iteration_cost_rows(
    spec: ExperimentSpec,
    store: ResultStore,
    counter: str = "bytes_sent",
    rows: Sequence[Mapping[str, Any]] | None = None,
) -> list[dict[str, Any]]:
    """Per-iteration cost deltas, one column per scenario (mean over repeats).

    Reads the ``iteration_costs`` recorded in the execution log of every
    run (both cycle and live modes record them); scenarios whose runs did
    not record the counter contribute empty cells.  Pass precomputed
    :func:`scenario_rows` as *rows* to avoid re-reading the store.
    """
    flat = scenario_rows(spec, store) if rows is None else list(rows)
    by_scenario: dict[int, list[dict[str, Any]]] = {}
    for row in flat:
        by_scenario.setdefault(int(row["scenario"]), []).append(row)
    overrides_by_scenario = {
        index: overrides
        for index, overrides in enumerate(spec.scenario_overrides())
    }
    columns: dict[int, list[float]] = {}
    depth = 0
    for scenario, group in by_scenario.items():
        series_list = []
        for member in group:
            series = [
                float(record.get(counter, 0.0))
                for record in member.get("iteration_costs", [])
            ]
            if series:
                series_list.append(series)
        if not series_list:
            continue
        length = max(len(series) for series in series_list)
        means = []
        for position in range(length):
            values = [series[position] for series in series_list
                      if len(series) > position]
            means.append(sum(values) / len(values))
        columns[scenario] = means
        depth = max(depth, length)
    out: list[dict[str, Any]] = []
    for iteration in range(depth):
        row: dict[str, Any] = {"iteration": iteration + 1}
        for scenario in sorted(columns):
            label = _scenario_label(spec, overrides_by_scenario.get(scenario, {}))
            series = columns[scenario]
            row[label] = series[iteration] if iteration < len(series) else ""
        out.append(row)
    return out


def cross_store_rows(
    spec: ExperimentSpec,
    sources: Sequence[tuple[str, ResultStore]],
    metrics: Sequence[str] | None = None,
) -> list[dict[str, Any]]:
    """Join several result stores of one spec into a single comparison table.

    *sources* is a sequence of ``(label, store)`` pairs — e.g. the stores of
    a sequential and a concurrent sweep of the same scenario matrix.  Cells
    align automatically: each store is read through
    :func:`scenario_rows`, which keys rows by the cell's content hash, so
    two stores line up exactly when they ran the same spec (axis values
    included in every row make the alignment visible).  The output carries
    one row per (scenario, source) with a leading ``store`` column,
    scenario-major — the rows being diffed sit next to each other.
    """
    per_source: list[tuple[str, list[dict[str, Any]]]] = [
        (label, comparison_rows(spec, store, metrics=metrics, spread=False))
        for label, store in sources
    ]
    scenarios = sorted({
        int(row["scenario"]) for _, rows in per_source for row in rows
    })
    out: list[dict[str, Any]] = []
    for scenario in scenarios:
        for label, rows in per_source:
            match = next(
                (row for row in rows if int(row["scenario"]) == scenario), None
            )
            if match is not None:
                out.append({"store": label, **match})
    return out


def format_cross_report(
    spec: ExperimentSpec,
    sources: Sequence[tuple[str, ResultStore]],
    markdown: bool = False,
    metrics: Sequence[str] | None = None,
    precision: int = 4,
) -> str:
    """Render the multi-store comparison of one spec as text or markdown."""
    table = format_markdown_table if markdown else format_table
    rows = cross_store_rows(spec, sources, metrics=metrics)
    lines: list[str] = []
    if markdown:
        lines.append(f"# Experiment: {spec.name} (cross-store)")
    else:
        lines.append(f"experiment: {spec.name} (cross-store)")
    if spec.description:
        lines.append(spec.description)
    lines.append("stores: " + ", ".join(label for label, _ in sources))
    lines.append("")
    if not rows:
        lines.append("no completed cells in any of the result stores yet — run "
                     "the experiment first (repro experiment run --spec ...)")
        return "\n".join(lines)
    hidden = {"scenario"} if len(spec.axis_keys()) > 0 else set()
    columns = [column for column in rows[0] if column not in hidden]
    lines.append(table(rows, columns=columns, precision=precision,
                       title="cross-store scenario comparison"))
    return "\n".join(lines)


def format_report(
    spec: ExperimentSpec,
    store: ResultStore,
    markdown: bool = False,
    metrics: Sequence[str] | None = None,
    precision: int = 4,
) -> str:
    """Render the full comparison report of one experiment as text or markdown."""
    table = format_markdown_table if markdown else format_table
    cells = spec.expand()
    # One store read and one matrix expansion feed every table below.
    flat = scenario_rows(spec, store)
    n_completed = len(flat)
    lines: list[str] = []
    if markdown:
        lines.append(f"# Experiment: {spec.name}")
    else:
        lines.append(f"experiment: {spec.name}")
    if spec.description:
        lines.append(spec.description)
    lines.append(
        f"dataset={spec.dataset} participants={spec.participants} "
        f"scenarios={len(spec.scenario_overrides())} repeats={len(spec.cell_seeds())} "
        f"cells={len(cells)} completed={n_completed}"
    )
    lines.append("")
    rows = comparison_rows(spec, store, metrics=metrics, rows=flat)
    if not rows:
        lines.append("no completed cells in the result store yet — run the "
                     "experiment first (repro experiment run --spec ...)")
        return "\n".join(lines)
    hidden = {"scenario"} if len(spec.axis_keys()) > 0 else set()
    columns = [column for column in rows[0] if column not in hidden]
    lines.append(table(rows, columns=columns, precision=precision,
                       title="scenario comparison"))
    iteration_rows = iteration_cost_rows(spec, store, rows=flat)
    if iteration_rows:
        lines.append("")
        lines.append(table(
            iteration_rows, precision=precision,
            title="per-iteration network cost (bytes sent, mean over repeats)",
        ))
    incomplete = len(cells) - n_completed
    if incomplete:
        lines.append("")
        lines.append(f"note: {incomplete} of {len(cells)} cells have no completed "
                     "result yet (pending, errored or timed out)")
    return "\n".join(lines)
