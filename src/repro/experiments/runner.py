"""The sweep executor: run a scenario matrix in parallel worker processes.

Every scenario cell executes in a freshly forked OS process (even with
``jobs=1``), which gives three properties at once:

* **isolation** — a crashing or diverging cell cannot take the sweep down,
  and live-mode cells are free to fork their own worker processes;
* **a hard per-cell timeout** — the parent terminates a cell that exceeds
  its wall-clock budget and records a ``timeout`` row instead of hanging;
* **determinism** — a cell's result depends only on its resolved
  (dataset, configuration, seed) identity, never on scheduling, so the
  same spec produces byte-identical result rows at any ``jobs`` level.

Rows are appended to the result store in cell-expansion order regardless of
completion order (out-of-order completions are buffered), so the store file
itself is reproducible apart from the recorded wall-clock timings.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from typing import Any, Callable, Mapping

import numpy as np

from ..analysis.quality import evaluate_result
from ..clustering.metrics import quality_report
from ..core.runner import normalize_collection, run_chiaroscuro
from ..exceptions import ExperimentError
from .spec import ExperimentSpec, ScenarioCell
from .store import ResultStore, failure_row, result_row

#: Coarse upper bound (seconds) on one scheduler wait.  The loop blocks in
#: :func:`multiprocessing.connection.wait` over the in-flight cell pipes, so
#: a finishing (or dying — its pipe end closes) worker wakes it immediately;
#: this cap only paces the hard-timeout checks, which need no finer clock.
_MAX_WAIT_SECONDS = 0.5


def _cell_runtime_ports(config, slot: int):
    """Give concurrently running live cells disjoint port blocks.

    A live cell with a nonzero ``runtime.base_port`` binds the coordinator
    at ``base_port`` and worker *i* at ``base_port + 1 + i``.  Two such
    cells in flight at once (``jobs > 1``) would collide, so each scheduler
    slot shifts the block by ``slot * (processes + 1)`` ports.  Slot 0 (and
    every ephemeral-port or cycle-mode cell) passes through untouched —
    ``jobs=1`` sweeps are byte-identical to before.  A shifted block that
    would overflow the port range falls back to ephemeral ports rather
    than failing the cell.

    The override happens inside the forked worker, after the cell's
    content-hash key is fixed, so store keys and ``--resume`` caching are
    unaffected by which slot a cell happened to run in.
    """
    runtime = config.runtime
    if runtime.mode != "live" or runtime.base_port == 0 or slot == 0:
        return config
    base = runtime.base_port + slot * (runtime.processes + 1)
    if base + runtime.processes >= 1 << 16:
        return config.with_overrides(runtime={"base_port": 0})
    return config.with_overrides(runtime={"base_port": base})


def execute_cell(spec: ExperimentSpec, cell: ScenarioCell,
                 port_slot: int = 0) -> dict[str, Any]:
    """Run one scenario cell to completion and return its ``ok`` store row.

    This is the whole cell recipe — exactly what an equivalent standalone
    ``repro run`` does: generate the dataset for the cell's population and
    seed, build the configuration, run the protocol, then score the result.
    ``metrics.reference`` and ``metrics.label_key`` are independent: with
    the (expensive) centralised reference disabled, a configured label key
    still yields the label-based metrics (adjusted Rand index) from the
    dataset's ground truth alone.  The recorded wall-clock covers the
    protocol run only, not dataset generation or evaluation.
    """
    collection = cell.load_collection()
    config = _cell_runtime_ports(cell.config(), port_slot)
    started = time.perf_counter()
    result = run_chiaroscuro(collection, config)
    wall_clock = time.perf_counter() - started
    quality: Mapping[str, float] | None = None
    if spec.evaluate_reference:
        quality = evaluate_result(
            collection, config, result, reference=None, label_key=spec.label_key,
        )
    elif spec.label_key is not None:
        raw_labels = collection.labels(spec.label_key)
        if all(label is not None for label in raw_labels):
            data, _ = normalize_collection(collection, config.privacy.value_bound)
            quality = quality_report(
                data, result.profiles, true_labels=np.asarray(raw_labels),
            )
    return result_row(spec, cell, result, quality, wall_clock)


def _cell_worker(connection, spec_payload: dict[str, Any], cell_index: int,
                 port_slot: int = 0) -> None:
    """Forked entry point: execute one cell, send the row (or the error) back."""
    try:
        spec = ExperimentSpec.from_dict(spec_payload)
        cell = spec.expand()[cell_index]
        row = execute_cell(spec, cell, port_slot=port_slot)
        connection.send(("ok", row))
    except Exception as exc:
        # Domain errors (ReproError) and unexpected ones alike become an
        # error row in the parent; the exception class name is the triage
        # signal either way.
        connection.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        connection.close()


@dataclass
class ExperimentProgress:
    """Outcome counts of one :func:`run_experiment` invocation."""

    total_cells: int
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Cells that finished successfully in this invocation."""
        return self.executed - self.failed

    def as_dict(self) -> dict[str, Any]:
        return {
            "total_cells": self.total_cells,
            "executed": self.executed,
            "skipped": self.skipped,
            "failed": self.failed,
            "completed": self.completed,
        }


@dataclass
class _ActiveCell:
    """Parent-side state of one in-flight worker process."""

    process: Any
    connection: Any
    cell: ScenarioCell
    started: float
    deadline: float | None
    port_slot: int = 0


def run_experiment(
    spec: ExperimentSpec,
    store: ResultStore,
    jobs: int = 1,
    resume: bool = False,
    timeout: float | None = None,
    progress: Callable[[str], None] | None = None,
) -> ExperimentProgress:
    """Execute *spec*'s scenario matrix, appending rows to *store*.

    Parameters
    ----------
    spec:
        The experiment to run.
    store:
        Result store rows are appended to (created on first write).
    jobs:
        Maximum number of concurrently running cells (worker processes).
    resume:
        Skip cells whose key already has an ``ok`` row in the store; an
        unchanged spec therefore executes zero cells on a second run.
    timeout:
        Hard per-cell wall-clock limit in seconds; an exceeded cell is
        terminated and recorded as a ``timeout`` row.  ``None`` disables it.
    progress:
        Optional callback receiving one human-readable line per event.

    Returns
    -------
    ExperimentProgress
        Executed/skipped/failed counts; failures are also recorded as
        ``error``/``timeout`` rows in the store, so a later ``resume``
        retries exactly the cells that did not complete.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if timeout is not None and timeout <= 0:
        raise ExperimentError(f"timeout must be positive, got {timeout}")
    cells = spec.expand()
    tally = ExperimentProgress(total_cells=len(cells))

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    cached = store.completed_keys() if resume else set()
    to_run: list[ScenarioCell] = []
    for cell in cells:
        if cell.key in cached:
            tally.skipped += 1
            say(f"cached  {cell.label()}")
        else:
            to_run.append(cell)
    if not to_run:
        return tally

    try:
        context = multiprocessing.get_context("fork")
    except ValueError as exc:
        # Same platform requirement (and error style) as the live runner:
        # forked workers inherit the loaded modules and any programmatic
        # dataset registrations, which spawn would silently lose.
        raise ExperimentError(
            "the sweep runner needs fork-based process spawning; "
            "this platform does not provide it"
        ) from exc
    spec_payload = spec.to_dict()
    pending = deque(enumerate(to_run))
    active: dict[int, _ActiveCell] = {}
    finished_rows: dict[int, dict[str, Any]] = {}
    next_to_write = 0
    # One port slot per concurrently running cell: live cells with a fixed
    # base_port get disjoint port blocks derived from their slot (see
    # _cell_runtime_ports), so --jobs > 1 cannot collide on ports.  Slots
    # are recycled as cells settle, keeping the block range bounded by
    # *jobs* rather than by the matrix size.
    free_slots = list(range(jobs))

    def flush() -> None:
        nonlocal next_to_write
        while next_to_write in finished_rows:
            store.append(finished_rows.pop(next_to_write))
            next_to_write += 1

    def settle(position: int, row: dict[str, Any]) -> None:
        entry = active.pop(position)
        free_slots.append(entry.port_slot)
        entry.connection.close()
        entry.process.join(timeout=5.0)
        if entry.process.is_alive():  # pragma: no cover - stuck after result
            entry.process.kill()
            entry.process.join(timeout=5.0)
        finished_rows[position] = row
        tally.executed += 1
        if row["status"] != "ok":
            tally.failed += 1
            tally.failures.append(row)
        flush()

    try:
        while pending or active:
            while pending and len(active) < jobs:
                position, cell = pending.popleft()
                slot = min(free_slots)
                free_slots.remove(slot)
                parent_end, child_end = context.Pipe(duplex=False)
                process = context.Process(
                    target=_cell_worker,
                    args=(child_end, spec_payload, cell.index, slot),
                )
                process.start()
                child_end.close()
                now = time.monotonic()
                active[position] = _ActiveCell(
                    process=process, connection=parent_end, cell=cell,
                    started=now, deadline=(now + timeout) if timeout else None,
                    port_slot=slot,
                )
                say(f"running {cell.label()}")
            made_progress = False
            for position in list(active):
                entry = active[position]
                elapsed = time.monotonic() - entry.started
                if entry.connection.poll(0):
                    try:
                        status, payload = entry.connection.recv()
                    except (EOFError, OSError):
                        status, payload = "error", "worker closed the result pipe"
                    if status == "ok":
                        row = payload
                        say(f"done    {entry.cell.label()} "
                            f"({row['timing']['wall_clock_seconds']:.2f}s)")
                    else:
                        row = failure_row(spec, entry.cell, "error", payload, elapsed)
                        say(f"failed  {entry.cell.label()}: {payload}")
                    settle(position, row)
                    made_progress = True
                elif entry.deadline is not None and time.monotonic() > entry.deadline:
                    entry.process.terminate()
                    entry.process.join(timeout=2.0)
                    if entry.process.is_alive():  # pragma: no cover - hard kill path
                        entry.process.kill()
                    row = failure_row(
                        spec, entry.cell, "timeout",
                        f"exceeded the per-cell timeout of {timeout}s", elapsed,
                    )
                    say(f"timeout {entry.cell.label()} after {elapsed:.1f}s")
                    settle(position, row)
                    made_progress = True
                elif not entry.process.is_alive():
                    if entry.connection.poll(0):
                        # The worker finished (and exited) between the first
                        # poll and the liveness check: its result row is
                        # sitting in the pipe.  Leave it for the next loop
                        # pass instead of misreporting a dead worker.
                        made_progress = True
                        continue
                    code = entry.process.exitcode
                    row = failure_row(
                        spec, entry.cell, "error",
                        f"worker process died with exit code {code}", elapsed,
                    )
                    say(f"failed  {entry.cell.label()}: worker died ({code})")
                    settle(position, row)
                    made_progress = True
            if not made_progress and active:
                # Sleep until some worker reports instead of burning CPU on a
                # fixed-interval poll, waking early for the nearest deadline.
                wait_for = _MAX_WAIT_SECONDS
                now = time.monotonic()
                for entry in active.values():
                    if entry.deadline is not None:
                        wait_for = min(wait_for, max(0.0, entry.deadline - now))
                _mp_connection.wait(
                    [entry.connection for entry in active.values()],
                    timeout=wait_for,
                )
    finally:
        for entry in active.values():  # pragma: no cover - interrupt cleanup
            entry.process.terminate()
        for entry in active.values():  # pragma: no cover - interrupt cleanup
            entry.process.join(timeout=2.0)
            entry.connection.close()
        # An interrupt can leave completed rows buffered behind a slower
        # earlier cell; write them (out of order — the store's latest-row-
        # wins reading tolerates any order) so finished work survives and
        # --resume skips it.
        for position in sorted(finished_rows):
            store.append(finished_rows.pop(position))
    return tally
