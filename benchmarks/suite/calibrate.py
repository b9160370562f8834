"""Calibration: how fast the box is while a repetition runs.

The suite runs on a few virtual cores of a shared host.  Neighbours on that
host slow a virtual core by 30-80% for anything from a second to a minute
(README, "Why seconds are calibrated"): the same commit measured 2.2 s and
3.8 s half a minute apart, CPU time moving with wall, each virtual core on
its own schedule.  No statistic over one invocation's repetitions removes
that, because a whole invocation can sit inside one slow period.

So the suite pins itself and everything it starts to one virtual core, and
while a repetition runs a thread of the suite wakes every ``PERIOD_S`` on that
same core and does a fixed burst of work of the workload's kind
(interpreter-bound, memory-bound or big-integer-bound, named per workload in
``workloads.py``), timing the burst in thread CPU seconds, which being
descheduled does not inflate.  The repetition's *slowdown* is the mean burst
divided by ``NOMINAL_CPU_S``, and its seconds are divided by it: a timing
metric reads "seconds on this class of box while it is quiet".  A change to
the program moves a calibrated time as it moves the raw one, because the
bursts are part of the suite and never change with the program; the raw
seconds and the slowdown of every repetition stay in the result file.

The memory kernel's arrays live in mappings marked ``MADV_DONTFORK``, so the
forked repetition children do not inherit them and ``peak_rss_mib`` is the
program's own.  The sampling thread exists only between a child's fork and
its end, so the suite never forks while it has a second thread.
"""

from __future__ import annotations

import functools
import mmap
import os
import statistics
import struct
import threading
import time
from typing import Callable

#: Thread CPU seconds of one burst on the box the sizes were pinned on (one
#: vCPU of an Intel Xeon @ 2.10 GHz, Python 3.11, NumPy 2.4) while it is
#: quiet: the lower decile of some 1000 bursts next to 100 repetitions of a
#: workload that uses the kernel.  Only a scale: any constant gives metrics
#: that compare between commits.
NOMINAL_CPU_S = {"interpreter": 0.0090, "memory": 0.0078, "bigint": 0.0102}
KERNELS = tuple(NOMINAL_CPU_S)
#: One ~10 ms burst every 0.2 s: ten samples over a two-second repetition for
#: 5% of the core, which the calibrated wall gives back.
PERIOD_S = 0.2

_PAIR = struct.Struct(">IH")
_MODULUS = (1 << 767) - (1 << 300) + 12345
_EXPONENT = (1 << 511) + 0x1234567
_SLAB_ROWS, _SLAB_COLUMNS, _PAIRS = 1 << 16, 100, 1 << 13


def _interpreter() -> None:
    """Integer arithmetic, struct packing, bytes joins, dict and list
    traffic: what the wire codec and the protocol step spend their time on."""
    pack = _PAIR.pack
    total, parts, seen = 0, [], {}
    for index in range(42000):
        total += index * index % 7
        parts.append(pack(index, index & 0xFFFF))
        seen[index & 255] = total
        if len(parts) == 64:
            total += len(b"".join(parts))
            parts.clear()


def _bigint() -> None:
    """Modular exponentiations at the width of a 256-bit Damgard-Jurik key."""
    value = (1 << 700) + 987654321
    for _ in range(10):
        value = pow(value, _EXPONENT, _MODULUS)


class _Memory:
    """Pair averaging of 8192 random row pairs of a 52 MB slab (L2 is 4 MiB):
    gather, add, scatter, the slab engine's inner loop."""

    def __init__(self) -> None:
        import numpy as np

        self._take = np.take
        self._maps: list[mmap.mmap] = []
        rng = np.random.default_rng(0)
        self.slab = self._array(_SLAB_ROWS)
        rng.random(out=self.slab)  # in place: no temporary left in the heap
        self.rows, self.other = self._array(_PAIRS), self._array(_PAIRS)
        self.order = rng.permutation(_SLAB_ROWS)
        self.offset = 0

    def _array(self, rows: int):
        """A float64 array the forked children do not inherit."""
        import numpy as np

        mapping = mmap.mmap(-1, rows * _SLAB_COLUMNS * 8,
                            flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        mapping.madvise(mmap.MADV_DONTFORK)
        self._maps.append(mapping)
        return np.frombuffer(mapping, dtype=np.float64).reshape(rows, _SLAB_COLUMNS)

    def __call__(self) -> None:
        half = _SLAB_ROWS // 2
        left = self.order[self.offset:self.offset + _PAIRS]
        right = self.order[half + self.offset:half + self.offset + _PAIRS]
        self.offset = (self.offset + _PAIRS) % half
        # mode="clip": the default checks indices through a temporary copy of
        # ``out``, which would grow this process's heap under its children.
        self._take(self.slab, left, axis=0, out=self.rows, mode="clip")
        self._take(self.slab, right, axis=0, out=self.other, mode="clip")
        self.rows += self.other
        self.rows *= 0.5
        self.slab[left] = self.rows
        self.slab[right] = self.rows


@functools.cache
def _memory() -> _Memory:
    """The one memory kernel of this process: its arrays take a moment to
    fill, and a repetition's sampler must not start with that."""
    kernel = _Memory()
    kernel()  # first touch of the row buffers
    return kernel


def _kernel(name: str) -> Callable[[], None]:
    return {"interpreter": _interpreter, "bigint": _bigint}.get(name) or _memory()


class Sampler:
    """Bursts of one kernel on a thread of this process, one at once and then
    one every ``PERIOD_S``, between ``start()`` and ``stop()``."""

    def __init__(self, kernel: str) -> None:
        self._burst = _kernel(kernel)
        self._nominal = NOMINAL_CPU_S[kernel]
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.cpu_s: list[float] = []

    def _run(self) -> None:
        while True:
            started = time.thread_time()
            self._burst()
            self.cpu_s.append(time.thread_time() - started)
            if self._done.wait(PERIOD_S):
                return

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._done.set()
        self._thread.join()

    @property
    def core_s(self) -> float:
        """Seconds of the core the bursts took from whatever shared it."""
        return sum(self.cpu_s)

    @property
    def slowdown(self) -> float:
        """How many times slower than nominal the core ran the bursts."""
        return statistics.fmean(self.cpu_s) / self._nominal


def pin() -> set[int]:
    """Confine this process, and so every process it starts, to one of the
    cores it may use (the last one: interrupts tend to land on the first).
    Returns the cores it could use before, for :func:`unpin`."""
    if not hasattr(os, "sched_setaffinity"):  # not Linux: nothing to pin with
        return set()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def unpin(allowed: set[int] | None = None) -> None:
    """Let this process, and those it starts from now on, use *allowed*
    again; by default every core there is, of which the kernel keeps the
    ones the process may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, allowed or range(os.cpu_count() or 1))
