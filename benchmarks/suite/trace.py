"""Span recorder for the traced run, wrapped around the program from outside.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces each
boundary callable of :data:`BOUNDARIES` with a wrapper that appends one span
(name id, parent index, start, end, amount, failed) to in-memory columns;
the columns are turned into a per-layer table once, after the run.  Only
per-message, per-vector and per-phase boundaries are wrapped — never the
``WireReader`` primitives, which run millions of times.

The parent of a span is carried in a ``contextvars.ContextVar`` so that spans
opened by interleaved asyncio tasks (the live workers) keep the right parent.

Live workers are ``multiprocessing`` fork children of the traced process and
inherit the wrappers.  An after-fork hook empties the inherited recorder in
each worker; the worker writes its spans to ``<spill_dir>/spans-<pid>.pkl``
when it answers the coordinator's ``collect`` request (the last thing it does
before the coordinator terminates it — an exit-time finalizer would race that
``terminate()`` and lose), and :meth:`Recorder.processes` merges the files.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import os
import pickle
import sys
import time
from array import array
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from workloads import CRYPTO_OPS

ROOT = "run"

#: Every FRAME_STRIDE-th frame seen at a transport boundary is kept for the
#: wire and socket probes, up to MAX_FRAMES.
FRAME_STRIDE = 37
MAX_FRAMES = 256

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "suite_trace_current_span", default=-1)


class Spans:
    """Spans of one process as columns, in the order they were opened.

    Arrays instead of one object per span: a traced run opens ~10^5 spans,
    and that many tracked objects would make the program's own garbage
    collections slower, which is overhead the trace would then blame on it.
    """

    def __init__(self) -> None:
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self.failed = bytearray()

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int, parent: int, start: float) -> int:
        """Append a span; :func:`_wrap` inlines this on the hot path."""
        self.name.append(name_id)
        self.parent.append(parent)
        self.end.append(start)
        self.amount.append(0)
        self.failed.append(0)
        self.start.append(start)
        return len(self.start) - 1

    def clear(self) -> None:
        for column in (self.name, self.parent, self.start, self.end,
                       self.amount, self.failed):
            del column[:]


class Recorder:
    """Spans and sampled frames of one process."""

    def __init__(self, spill_dir: str | os.PathLike[str]) -> None:
        self.spill_dir = Path(spill_dir)
        self.names: list[str] = [ROOT]
        self.spans = Spans()
        self.frames: list[bytes] = []
        self.in_worker = False
        self._frames_seen = 0
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        # The wrappers hold references to these very columns: empty them in
        # place.  The inherited parent index points into the dropped spans.
        self.spans.clear()
        self.frames.clear()
        self._frames_seen = 0
        self.in_worker = True
        _CURRENT.set(-1)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def root(self) -> Iterator[None]:
        """The span around the whole ``run_chiaroscuro`` call."""
        index = self.spans.open(0, -1, time.perf_counter())
        token = _CURRENT.set(index)
        try:
            yield
        finally:
            _CURRENT.reset(token)
            self.spans.end[index] = time.perf_counter()

    def keep_frame(self, frame: bytes) -> None:
        self._frames_seen += 1
        if self._frames_seen % FRAME_STRIDE == 1 and len(self.frames) < MAX_FRAMES:
            self.frames.append(bytes(frame))

    def spill(self) -> None:
        """Write this worker's spans and frames where the traced process
        will look for them (write-then-rename: a reader sees all or nothing)."""
        target = self.spill_dir / f"spans-{os.getpid()}.pkl"
        partial = target.with_suffix(".tmp")
        with open(partial, "wb") as handle:
            pickle.dump({"spans": self.spans, "frames": self.frames}, handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(partial, target)

    def processes(self) -> list[Spans]:
        """Spans of this process (first) and of every worker that spilled;
        the workers' sampled frames are appended to ``frames``."""
        merged = [self.spans]
        for path in sorted(self.spill_dir.glob("spans-*.pkl")):
            with open(path, "rb") as handle:  # written by our own workers
                payload = pickle.load(handle)
            merged.append(payload["spans"])
            self.frames.extend(payload["frames"][: MAX_FRAMES - len(self.frames)])
        return merged


# --------------------------------------------------------------------- hooks
# Enter hooks see (recorder, span index, args, kwargs) before the call, leave
# hooks (recorder, span index, result) after it returned.
def _argument(args: tuple, kwargs: dict, position: int, keyword: str) -> Any:
    return kwargs[keyword] if keyword in kwargs else args[position]


def _result_bytes(recorder: Recorder, index: int, result: Any) -> None:
    recorder.spans.amount[index] = len(result)


def _decode_bytes(recorder: Recorder, index: int, args: tuple, kwargs: dict) -> None:
    recorder.spans.amount[index] = len(_argument(args, kwargs, 0, "frame"))


def _frame_out(recorder: Recorder, index: int, args: tuple, kwargs: dict) -> None:
    # transmit(self, sender, recipient, kind, frame, ...) and the live
    # transport's frame_request / batched_frame_requests share this shape.
    frame = _argument(args, kwargs, 4, "frame")
    recorder.spans.amount[index] = len(frame)
    recorder.keep_frame(frame)


def _lost_if_none(recorder: Recorder, index: int, result: Any) -> None:
    recorder.spans.failed[index] = result is None


def _pair_count(recorder: Recorder, index: int, args: tuple, kwargs: dict) -> None:
    recorder.spans.amount[index] = int(_argument(args, kwargs, 1, "pairs").shape[0])


def _spill_in_worker(recorder: Recorder, index: int, result: Any) -> None:
    if recorder.in_worker:
        recorder.spill()


#: (span name, module, qualified name, enter hook, leave hook).  A layer is a
#: module of ``repro``; several callables may feed one span name.
BOUNDARIES: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("core.runner.setup", "repro.core.runner", "build_run_setup", None, None),
    ("core.runner.assemble", "repro.core.runner", "assemble_result", None, None),
    ("core.slab_runner.run", "repro.core.slab_runner", "run_slab_chiaroscuro", None, None),
    ("simulation.engine.run", "repro.simulation.engine", "CycleEngine.run", None, None),
    ("simulation.engine.cycle", "repro.simulation.engine", "CycleEngine.run_cycle", None, None),
    ("core.participant.step", "repro.core.participant",
     "ChiaroscuroParticipant.next_cycle", None, None),
    ("core.collaborative.decrypt", "repro.core.collaborative",
     "collaborative_decrypt", None, None),
    ("core.collaborative.decrypt", "repro.core.collaborative",
     "collaborative_decrypt_many", None, None),
    ("gossip.messages.encode", "repro.gossip.messages", "WireMessage.serialize",
     None, _result_bytes),
    ("gossip.messages.decode", "repro.gossip.messages", "deserialize",
     _decode_bytes, None),
    ("crypto.backends.encrypt", "repro.crypto.backends",
     "CipherBackend.encrypt_vector", None, None),
    ("crypto.backends.encrypt", "repro.crypto.backends",
     "CipherBackend.encrypt_integer_vector", None, None),
    ("crypto.backends.encrypt", "repro.crypto.backends",
     "CipherBackend.encrypt_zero_vector", None, None),
    ("crypto.backends.rerandomize", "repro.crypto.backends",
     "CipherBackend.rerandomize", None, None),
    ("crypto.backends.linear_combination", "repro.crypto.backends",
     "CipherBackend.linear_combination", None, None),
    ("crypto.backends.linear_combination", "repro.crypto.backends",
     "CipherBackend.add", None, None),
    ("crypto.backends.partial_decrypt", "repro.crypto.backends",
     "CipherBackend.partial_decrypt_vector", None, None),
    ("crypto.backends.combine", "repro.crypto.backends",
     "CipherBackend.combine_vector", None, None),
    ("crypto.fastmath.pool_take", "repro.crypto.fastmath", "BlinderPool.take", None, None),
    ("net.transport.transmit", "repro.net.transport", "LoopbackTransport.transmit",
     _frame_out, _lost_if_none),
    ("net.live.coordinator", "repro.net.live", "LiveRunner.run", None, None),
    ("net.live.step", "repro.net.live", "LiveParticipantDriver.step", None, None),
    ("net.live.request", "repro.net.live", "WorkerTransport.frame_request",
     _frame_out, None),
    ("net.live.request", "repro.net.live", "WorkerTransport.batched_frame_requests",
     _frame_out, None),
    ("net.live.collect", "repro.net.live", "SocketStats.as_dict", None, _spill_in_worker),
    ("net.envelope.encode", "repro.net.envelope", "encode_envelope", None, None),
    ("net.envelope.decode", "repro.net.envelope", "decode_envelope", None, None),
    ("simulation.slab.assign", "repro.simulation.slab", "ShardCoordinator.assign", None, None),
    ("simulation.slab.scatter", "repro.simulation.slab", "ShardCoordinator.scatter", None, None),
    ("simulation.slab.average", "repro.simulation.slab",
     "ShardCoordinator.average_pairs", _pair_count, None),
    ("simulation.slab.half_average", "repro.simulation.slab",
     "ShardCoordinator.half_average_pairs", _pair_count, None),
    ("simulation.slab.online_mean", "repro.simulation.slab",
     "ShardCoordinator.online_mean", None, None),
    ("simulation.slab.pairing", "repro.simulation.slab", "pair_online", None, None),
    ("simulation.slab.churn", "repro.simulation.slab", "slab_churn_step", None, None),
)


def _wrap(recorder: Recorder, name: str, original: Callable,
          enter: Callable | None, leave: Callable | None) -> Callable:
    name_id = recorder.name_id(name)
    spans = recorder.spans
    names, parents, starts, ends = spans.name, spans.parent, spans.start, spans.end
    amounts, failed = spans.amount, spans.failed
    clock = time.perf_counter
    current = _CURRENT

    def open_span(args: tuple, kwargs: dict) -> tuple[int, contextvars.Token]:
        index = len(starts)
        names.append(name_id)
        parents.append(current.get())
        ends.append(0.0)
        amounts.append(0)
        failed.append(0)
        if enter is not None:
            enter(recorder, index, args, kwargs)
        token = current.set(index)
        starts.append(clock())
        return index, token

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            index, token = open_span(args, kwargs)
            try:
                result = await original(*args, **kwargs)
            except BaseException:
                failed[index] = 1
                raise
            finally:
                ends[index] = clock()
                current.reset(token)
            if leave is not None:
                leave(recorder, index, result)
            return result
    else:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index, token = open_span(args, kwargs)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                failed[index] = 1
                raise
            finally:
                ends[index] = clock()
                current.reset(token)
            if leave is not None:
                leave(recorder, index, result)
            return result
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every boundary callable, in this process, for good.

    Called in the forked child that runs the traced repetition, so the suite
    process and the untraced repetitions never see a wrapper.  A method is
    replaced on its class; a module-level function in its own module and in
    every loaded ``repro`` module that imported it by name.
    """
    for name, module_name, qualified, enter, leave in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner: Any = module
        *path, attribute = qualified.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if path else getattr(owner, attribute)
        wrapper = _wrap(recorder, name, original, enter, leave)
        if path:
            setattr(owner, attribute, wrapper)
            continue
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is not None and loaded_name.startswith("repro") \
                    and getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, wrapper)


# ------------------------------------------------------------------- analysis
def self_times(parents: Sequence[int], starts: Sequence[float],
               ends: Sequence[float]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans are in start order (the order they were opened in), so one pass
    that pushes each parent's covered frontier forward takes the union of
    overlapping children — which concurrent asyncio tasks produce.
    """
    covered = [0.0] * len(starts)
    frontier = list(starts)
    for index, parent in enumerate(parents):
        if parent < 0:
            continue
        begin = max(starts[index], frontier[parent])
        end = min(ends[index], ends[parent])
        if end > begin:
            covered[parent] += end - begin
            frontier[parent] = end
    return [ends[index] - starts[index] - covered[index]
            for index in range(len(starts))]


def layer_table(spans: Spans, names: Sequence[str]) -> dict[str, dict[str, float]]:
    """Aggregate one process's spans by name.

    ``leaves`` counts the spans without a child of their own name: a
    ``collaborative_decrypt_many`` that fans out into per-estimate
    ``collaborative_decrypt`` calls is one layer entered once per round.
    """
    own = self_times(spans.parent, spans.start, spans.end)
    has_same_child = [False] * len(spans)
    for index, parent in enumerate(spans.parent):
        if parent >= 0 and spans.name[parent] == spans.name[index]:
            has_same_child[parent] = True
    table: dict[str, dict[str, float]] = {}
    for index, name_id in enumerate(spans.name):
        row = table.setdefault(names[name_id], {
            "calls": 0, "leaves": 0, "total_s": 0.0, "self_s": 0.0,
            "amount": 0, "failed": 0})
        row["calls"] += 1
        row["leaves"] += not has_same_child[index]
        row["total_s"] += spans.end[index] - spans.start[index]
        row["self_s"] += own[index]
        row["amount"] += spans.amount[index]
        row["failed"] += spans.failed[index]
    return table


def merge_tables(tables: Sequence[dict[str, dict[str, float]]],
                 ) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    return merged


def layer_metrics(table: dict[str, dict[str, float]], facts: dict[str, Any],
                  wall_s: float, cpu_s: float, slab_row_bytes: int,
                  ) -> dict[str, float]:
    """The per-layer metrics a traced run yields (probes and the tracing
    overhead are added by the caller).  *table* merges every process."""
    def field(span: str, key: str) -> float:
        return table.get(span, {}).get(key, 0)

    metrics: dict[str, float] = {
        "core.runner.setup_s": field("core.runner.setup", "self_s"),
        "core.runner.assemble_s": field("core.runner.assemble", "self_s"),
        "simulation.engine.self_s": field("simulation.engine.run", "self_s")
        + field("simulation.engine.cycle", "self_s"),
        "simulation.engine.cycles": field("simulation.engine.cycle", "calls"),
        "core.participant.self_s": field("core.participant.step", "self_s"),
        "core.participant.steps": field("core.participant.step", "calls"),
        "core.collaborative.self_s": field("core.collaborative.decrypt", "self_s"),
        "core.collaborative.rounds": field("core.collaborative.decrypt", "leaves"),
        "core.collaborative.retries": field("core.collaborative.decrypt", "failed"),
        "gossip.messages.encode_s": field("gossip.messages.encode", "self_s"),
        "gossip.messages.encode_calls": field("gossip.messages.encode", "calls"),
        "gossip.messages.encode_bytes": field("gossip.messages.encode", "amount"),
        "gossip.messages.decode_s": field("gossip.messages.decode", "self_s"),
        "gossip.messages.decode_calls": field("gossip.messages.decode", "calls"),
        "gossip.messages.decode_bytes": field("gossip.messages.decode", "amount"),
        "gossip.messages.decode_errors": field("gossip.messages.decode", "failed"),
        "net.transport.transmit_s": field("net.transport.transmit", "self_s"),
        "net.transport.transmit_calls": field("net.transport.transmit", "calls"),
        "net.transport.transmit_bytes": field("net.transport.transmit", "amount"),
        "net.transport.lost": field("net.transport.transmit", "failed"),
        "net.live.coordinator_s": field("net.live.coordinator", "self_s"),
        "net.live.step_s": field("net.live.step", "self_s"),
        "net.live.steps": field("net.live.step", "calls"),
        "net.live.request_wait_s": field("net.live.request", "self_s"),
        "net.live.request_calls": field("net.live.request", "calls"),
        "net.envelope.encode_s": field("net.envelope.encode", "self_s"),
        "net.envelope.decode_s": field("net.envelope.decode", "self_s"),
        "net.envelope.calls": field("net.envelope.encode", "calls")
        + field("net.envelope.decode", "calls"),
        "core.slab_runner.self_s": field("core.slab_runner.run", "self_s"),
        "core.slab_runner.sample_nodes": facts["sample_nodes"],
    }
    for op in CRYPTO_OPS:
        metrics[f"crypto.backends.{op}_s"] = field(f"crypto.backends.{op}", "self_s")
        metrics[f"crypto.backends.{op}_calls"] = field(f"crypto.backends.{op}", "calls")
    metrics["crypto.fastmath.pool_take_s"] = field("crypto.fastmath.pool_take", "self_s")
    metrics["crypto.fastmath.pool_take_calls"] = field("crypto.fastmath.pool_take", "calls")
    for phase in ("assign", "scatter", "average", "half_average", "online_mean",
                  "pairing", "churn"):
        metrics[f"simulation.slab.{phase}_s"] = field(f"simulation.slab.{phase}", "self_s")
    # The sampled object sub-run is the only CycleEngine.run of a slab run.
    in_slab = "core.slab_runner.run" in table
    metrics["core.slab_runner.sample_s"] = (
        field("simulation.engine.run", "total_s") if in_slab else 0.0)
    pairs = field("simulation.slab.average", "amount")
    computed = pairs * 2 * slab_row_bytes * 2  # two rows read, two written
    average_s = metrics["simulation.slab.average_s"]
    metrics["simulation.slab.pairs"] = pairs
    metrics["simulation.slab.average_bytes_computed"] = computed
    metrics["simulation.slab.average_gb_s"] = (
        computed / average_s / 1e9 if average_s > 0 else 0.0)
    socket = facts["socket"]
    metrics["net.live.socket_bytes"] = socket.get("bytes_sent", 0)
    metrics["net.live.socket_records"] = socket.get("records_sent", 0)
    metrics["net.live.drain_waits"] = socket.get("drain_waits", 0)
    processes = facts["processes"]
    metrics["net.live.idle_s"] = (
        max(0.0, wall_s * (processes + 1) - cpu_s) if processes else 0.0)
    return metrics
