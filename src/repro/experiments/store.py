"""Append-only JSONL result store for experiment runs.

Every executed scenario cell appends exactly one JSON line.  The store is
the sweep runner's cache: a cell whose ``key`` (the content hash of its
resolved dataset + configuration + seed, see
:meth:`~repro.experiments.spec.ScenarioCell.key`) already has an ``ok`` row
is skipped on ``--resume``.

Row layout::

    {
      "key":        "<cell content hash>",
      "experiment": "<spec name>",
      "spec_hash":  "<spec content hash>",
      "status":     "ok" | "error" | "timeout",
      "cell":       {index, scenario, repeat, dataset, participants, seed,
                     overrides},
      "result":     {profiles_digest, summary, quality, guarantee, costs,
                     iteration_costs, stop_reasons, packing, wire},
      "timing":     {wall_clock_seconds},
      "error":      "<message>"            # error/timeout rows only
    }

Everything under ``result`` and ``cell`` is a deterministic function of the
cell (same spec + seed ⇒ byte-identical content, whatever the worker count);
only ``timing`` varies between runs, which is what the cross-process
determinism tests rely on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import numpy as np

from ..exceptions import ExperimentError
from .spec import ScenarioCell, canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..core.result import ChiaroscuroResult
    from .spec import ExperimentSpec

#: Row statuses the store recognises; only ``ok`` rows count as cached.
ROW_STATUSES = ("ok", "error", "timeout")


def profiles_digest(profiles: np.ndarray) -> str:
    """Stable content hash of a profile matrix (shape + float64 bytes)."""
    matrix = np.ascontiguousarray(np.asarray(profiles, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(str(matrix.shape).encode("ascii"))
    digest.update(matrix.tobytes())
    return digest.hexdigest()


def cell_descriptor(cell: ScenarioCell) -> dict[str, Any]:
    """The cell facts every row carries (identity and report axes)."""
    return {
        "index": cell.index,
        "scenario": cell.scenario,
        "repeat": cell.repeat,
        "dataset": cell.dataset,
        "participants": cell.participants,
        "seed": cell.seed,
        "overrides": dict(cell.overrides),
    }


def result_row(
    spec: "ExperimentSpec",
    cell: ScenarioCell,
    result: "ChiaroscuroResult",
    quality: Mapping[str, float] | None,
    wall_clock_seconds: float,
) -> dict[str, Any]:
    """Build the ``ok`` store row of one executed cell.

    The per-iteration cost series is stored once, under
    ``result.iteration_costs`` (the execution log's full per-iteration
    dicts); the ``iteration_*`` views :meth:`CostSummary.as_dict` also
    exposes are redundant with it and stripped from ``result.costs`` so a
    long sweep's JSONL rows do not carry every series twice.
    """
    iteration_costs = [dict(record.costs) for record in result.log]
    costs = {
        key: value for key, value in result.costs.as_dict().items()
        if not key.startswith("iteration_")
    }
    row = {
        "key": cell.key,
        "experiment": spec.name,
        "spec_hash": spec.spec_hash,
        "status": "ok",
        "cell": cell_descriptor(cell),
        "result": {
            "profiles_digest": profiles_digest(result.profiles),
            "summary": result.summary(),
            "quality": dict(quality) if quality is not None else {},
            "guarantee": result.guarantee.as_dict(),
            "costs": costs,
            "iteration_costs": iteration_costs,
            "stop_reasons": dict(result.stop_reasons),
            "packing": result.metadata.get("packing", {}),
        },
        "timing": {"wall_clock_seconds": float(wall_clock_seconds)},
    }
    if "live" in result.metadata:
        row["result"]["live"] = {
            "processes": result.metadata["live"].get("processes"),
            "cycles_run": result.metadata["live"].get("cycles_run"),
        }
    return row


def failure_row(
    spec: "ExperimentSpec",
    cell: ScenarioCell,
    status: str,
    error: str,
    wall_clock_seconds: float,
) -> dict[str, Any]:
    """Build an ``error``/``timeout`` store row (not counted as cached)."""
    if status not in ("error", "timeout"):
        raise ExperimentError(f"invalid failure status {status!r}")
    return {
        "key": cell.key,
        "experiment": spec.name,
        "spec_hash": spec.spec_hash,
        "status": status,
        "cell": cell_descriptor(cell),
        "error": str(error),
        "timing": {"wall_clock_seconds": float(wall_clock_seconds)},
    }


class ResultStore:
    """Append-only JSONL store of experiment rows.

    The file is only ever opened for append; re-running an experiment adds
    rows, never rewrites them.  When the same cell key appears several
    times (e.g. an errored cell retried successfully) the *last* row wins.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._tail_repaired = False

    # ------------------------------------------------------------------ writing
    def _repair_truncated_tail(self) -> None:
        """Drop a partial trailing record left by an interrupted append.

        A run killed mid-write (SIGKILL, power loss) can leave the file
        ending in an incomplete JSON line.  Appending after it would merge
        the new row into the partial one, corrupting the store *interior* —
        so the first append of each store instance truncates the file back
        to its last complete (newline-terminated) record.  The dropped
        cell simply re-runs on the next ``--resume``.
        """
        if self._tail_repaired:
            return
        self._tail_repaired = True
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1
        with self.path.open("rb+") as handle:
            handle.truncate(keep)

    def append(self, row: Mapping[str, Any]) -> None:
        """Append one row as a single canonical-JSON line."""
        if "key" not in row or "status" not in row:
            raise ExperimentError("a store row needs at least 'key' and 'status'")
        if row["status"] not in ROW_STATUSES:
            raise ExperimentError(f"invalid row status {row['status']!r}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_truncated_tail()
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(canonical_json(dict(row)) + "\n")

    # ------------------------------------------------------------------ reading
    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Yield every stored row in file order (empty when no file yet).

        A malformed *final* line is tolerated silently: it is the partial
        record of an interrupted append, whose cell will simply re-run on
        resume.  Malformed interior lines are real corruption and raise.
        """
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
        last_content = 0
        for line_number, line in enumerate(lines, start=1):
            if line.strip():
                last_content = line_number
        for line_number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                if line_number == last_content:
                    return
                raise ExperimentError(
                    f"corrupt result store {self.path}:{line_number}: {exc}"
                ) from exc
            if not isinstance(row, dict) or "key" not in row:
                raise ExperimentError(
                    f"corrupt result store {self.path}:{line_number}: not a row object"
                )
            yield row

    def latest_by_key(self) -> dict[str, dict[str, Any]]:
        """The last row of every cell key (retries override earlier failures)."""
        latest: dict[str, dict[str, Any]] = {}
        for row in self.iter_rows():
            latest[str(row["key"])] = row
        return latest

    def completed_keys(self) -> set[str]:
        """Cell keys whose latest row is ``ok`` — the resume cache."""
        return {
            key for key, row in self.latest_by_key().items()
            if row.get("status") == "ok"
        }
