"""Struct-of-arrays population slabs for the million-node engine.

Cycle mode's object engine instantiates one Python participant per node,
which tops out around thousands of nodes.  This module holds the population
state in struct-of-arrays NumPy slabs instead — estimates, online flags,
assignments, all owned by a :class:`ShardCoordinator` — and executes gossip
rounds as vectorised slab operations, optionally sharded across worker
processes over shared mappings.  The protocol-level loop that drives these slabs lives in
:mod:`repro.core.slab_runner`.

Out-of-core layout
------------------
The estimate slab is the engine's one population-sized mutable array
(``(n, k * (series_length + 1))``).  Three independent knobs bound its cost:

* ``dtype`` — ``float64`` (bit-identical to the object engine's arithmetic)
  or ``float32`` (half the footprint, reduced precision).
* ``backing`` — ``memory`` (a private array or, under sharding, a
  :mod:`multiprocessing.shared_memory` segment) or ``mmap:<dir>`` (an
  anonymous-by-unlink :class:`numpy.memmap` file; processed row ranges are
  released from resident memory with ``madvise(MADV_DONTNEED)``, so resident
  size stays bounded by the chunk size rather than the population).
* ``chunk_rows`` — pairs averaged between two page releases of a
  memmap-backed slab (capped at :data:`ADVISE_PAIR_CHUNK`; ``0`` means the
  cap).  It bounds nothing else: the elementwise phases (contribution
  scatter, pair averaging) walk the slab in :data:`CACHE_BLOCK_BYTES` blocks
  through two reused buffers whatever the knobs (a smaller ``chunk_rows``
  shrinks the block), reductions and assignment hold at most one canonical
  block of temporaries and sum a fully online block in place — no phase
  allocates anything proportional to the population.

Determinism contract
--------------------
* :func:`slab_churn_step` consumes its random stream with exactly the same
  shapes as :meth:`~repro.simulation.engine.CycleEngine._apply_churn` (one
  vectorised draw over all nodes when rejoining is possible, over online
  nodes only otherwise), so the two implementations flip the same nodes
  given the same stream state.
* :func:`pair_online` derives the round's random matching from a single
  permutation draw; :class:`ShardCoordinator` never draws randomness — the
  coordinator makes every draw, workers only execute deterministic block
  operations over disjoint row ranges.  Results are therefore invariant
  under the shard count by construction.
* Every *reduction* (the online-mean of the estimate slab, per-cluster data
  sums, inertia) and the assignment pass run over the fixed canonical
  partition of :data:`REDUCE_BLOCK_ROWS`-row blocks regardless of the chunk
  or shard configuration, so their floating-point result depends only on
  the population, never on how the work was split.  Populations that fit a
  single canonical block (``n <= REDUCE_BLOCK_ROWS``) degenerate to the
  exact dense whole-array expressions.
* The elementwise phases (scatter, pair averaging) are per-row/per-pair
  exact, hence trivially chunk- and shard-invariant.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import tempfile
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Iterator

import numpy as np

from .._validation import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
)
from ..clustering.kmeans import assign_to_centroids
from ..exceptions import SimulationError

#: Fixed row-block size of the canonical reduction partition.  Reductions
#: and assignment always run block by block over this partition, so their
#: results are invariant under ``chunk_rows`` and the shard count; runs with
#: ``n <= REDUCE_BLOCK_ROWS`` see exactly the dense whole-array arithmetic.
REDUCE_BLOCK_ROWS = 65536

#: Pair-averaging advise cadence for memmap-backed slabs.  Scattered gossip
#: gathers on a fully page-cached file are amplified by the kernel's
#: fault-around (each touched row maps a window of neighbouring cached
#: pages, MADV_RANDOM notwithstanding), so resident growth between two
#: MADV_DONTNEED releases is proportional to the pair chunk — measured ~6
#: pages per touched row on a warm 4 GiB slab, i.e. ~3.5 GiB per 65536-pair
#: chunk versus ~1.1 GiB at 8192.  The chunk partition never changes the
#: arithmetic (pairs are disjoint), so capping the advised step is free.
ADVISE_PAIR_CHUNK = 8192

#: Scratch-buffer bytes of the blockwise kernels (pair averaging, scatter):
#: two such buffers stay in L2 whatever the population.  On 800-byte rows,
#: 64 / 128 / 256 / 512 / 2048 rows per block ran an 80 000-node round in
#: 19 / 17 / 18 / 26 / 47 ms (36 ms with whole-array temporaries).
CACHE_BLOCK_BYTES = 128 * 1024

#: Element dtypes the estimate slab supports (mirrors config.SLAB_DTYPES).
_SLAB_NUMPY_DTYPES = {"float64": np.float64, "float32": np.float32}


def slab_numpy_dtype(name: str) -> np.dtype:
    """Map a ``runtime.slab_dtype`` string onto the numpy dtype."""
    try:
        return np.dtype(_SLAB_NUMPY_DTYPES[name])
    except KeyError:
        raise SimulationError(
            f"unsupported slab dtype {name!r}; expected one of "
            f"{sorted(_SLAB_NUMPY_DTYPES)}"
        ) from None


def parse_slab_backing(backing: str) -> tuple[str, str | None]:
    """Split a ``runtime.slab_backing`` string into ``(kind, directory)``.

    ``"memory"`` -> ``("memory", None)``; ``"mmap:<dir>"`` ->
    ``("mmap", "<dir>")``.
    """
    if backing == "memory":
        return "memory", None
    prefix, _, directory = backing.partition(":")
    if prefix == "mmap" and directory:
        return "mmap", directory
    raise SimulationError(
        f"slab backing must be 'memory' or 'mmap:<dir>', got {backing!r}"
    )


def canonical_blocks(n_rows: int) -> Iterator[tuple[int, int]]:
    """Yield the ``(start, end)`` row ranges of the canonical partition."""
    for start in range(0, n_rows, REDUCE_BLOCK_ROWS):
        yield start, min(n_rows, start + REDUCE_BLOCK_ROWS)


def n_canonical_blocks(n_rows: int) -> int:
    """Number of canonical blocks covering *n_rows* rows."""
    return max(1, -(-n_rows // REDUCE_BLOCK_ROWS))


def _block_rows(block: int, n_rows: int) -> tuple[int, int]:
    start = block * REDUCE_BLOCK_ROWS
    return start, min(n_rows, start + REDUCE_BLOCK_ROWS)


def advise_dontneed(
    array: np.ndarray, start_row: int | None = None, end_row: int | None = None
) -> None:
    """Release a memmap-backed array's resident pages (whole map or rows).

    A no-op for regular in-memory arrays and on platforms without
    ``MADV_DONTNEED``.  For ``MAP_SHARED`` file mappings the advice drops
    the pages from this process's resident set without discarding dirty
    data (it is written back through the page cache), which is what keeps
    out-of-core slab runs inside a bounded RSS.
    """
    mapping = getattr(array, "_mmap", None)
    if mapping is None or not hasattr(mmap, "MADV_DONTNEED"):
        return
    if start_row is None or end_row is None:
        mapping.madvise(mmap.MADV_DONTNEED)
        return
    row_bytes = array.strides[0]
    page = mmap.PAGESIZE
    begin = -(-(start_row * row_bytes) // page) * page
    finish = min(end_row * row_bytes // page * page, len(mapping))
    if finish > begin:
        mapping.madvise(mmap.MADV_DONTNEED, begin, finish - begin)


def advise_random(array: np.ndarray) -> None:
    """Mark a memmap-backed array as randomly accessed (no readahead).

    Without this, every ``MADV_DONTNEED`` release is undone by the kernel's
    fault-around/readahead on the next scattered gossip gather: touching
    ~1% of a multi-GB slab's rows faults essentially the whole file back
    into the resident set (measured: a 131k-row gather re-faulted 3.9 GiB
    of a 4 GiB slab, versus 0.7 GiB with ``MADV_RANDOM``).  A per-VMA flag,
    so forked shard workers inherit it.  No-op for in-memory arrays and on
    platforms without ``MADV_RANDOM``.
    """
    mapping = getattr(array, "_mmap", None)
    if mapping is None or not hasattr(mmap, "MADV_RANDOM"):
        return
    mapping.madvise(mmap.MADV_RANDOM)


def slab_churn_step(
    online: np.ndarray,
    churn_rate: float,
    rejoin_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply one churn cycle to the *online* slab in place.

    :meth:`CycleEngine._apply_churn` flips the nodes this returns, so both
    engines consume the churn stream alike: no draw at all when ``churn_rate == 0``; one uniform per node (in node-id
    order) when ``rejoin_rate > 0``; one uniform per *online* node otherwise.
    Returns the node ids whose flag flipped this cycle.
    """
    check_probability(churn_rate, "churn_rate")
    check_probability(rejoin_rate, "rejoin_rate")
    if churn_rate == 0.0:
        return np.empty(0, dtype=np.int64)
    if rejoin_rate > 0.0:
        subjects = np.arange(online.shape[0], dtype=np.int64)
        draws = rng.random(subjects.shape[0])
        thresholds = np.where(online, churn_rate, rejoin_rate)
    else:
        subjects = np.nonzero(online)[0]
        draws = rng.random(subjects.shape[0])
        thresholds = np.full(subjects.shape[0], churn_rate)
    flipped = subjects[draws < thresholds]
    online[flipped] = ~online[flipped]
    return flipped


def pair_online(
    online: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one random gossip matching of the online nodes.

    A uniformly random perfect matching (one permutation draw, consecutive
    entries paired; a leftover odd node sits the round out) — the vectorised
    equivalent of every online node initiating one push-pull exchange with a
    uniformly sampled online peer.  Returns a ``(pairs, 2)`` index matrix.
    """
    candidates = np.nonzero(online)[0]
    if candidates.shape[0] < 2:
        return np.empty((0, 2), dtype=np.int64)
    order = rng.permutation(candidates)
    n_pairs = order.shape[0] // 2
    return order[: 2 * n_pairs].reshape(n_pairs, 2).astype(np.int64, copy=False)


def _cache_block_rows(estimates: np.ndarray) -> int:
    """Rows of *estimates* that fill one :data:`CACHE_BLOCK_BYTES` buffer."""
    row_bytes = estimates.shape[1] * estimates.itemsize
    return max(1, CACHE_BLOCK_BYTES // max(1, row_bytes))


def _average_pair_blocks(
    estimates: np.ndarray,
    pairs: np.ndarray,
    chunk_rows: int,
    advise: bool,
    both: bool,
) -> None:
    """``0.5 * (a + b)`` per pair, one cache block of pairs at a time through
    two reused buffers, into the right column's rows and, if *both*, the
    left's; nothing sized by ``len(pairs)`` is allocated."""
    count = int(pairs.shape[0])
    if count == 0:
        return
    step = chunk_rows if chunk_rows > 0 else count
    if advise:
        step = min(step, ADVISE_PAIR_CHUNK)
    block = min(_cache_block_rows(estimates), step)
    mean = np.empty((block, estimates.shape[1]), dtype=estimates.dtype)
    other = np.empty_like(mean)
    for start in range(0, count, step):
        stop = min(count, start + step)
        for s in range(start, stop, block):
            chunk = pairs[s:min(stop, s + block)]
            left, right = chunk[:, 0], chunk[:, 1]
            a, b = mean[:len(chunk)], other[:len(chunk)]
            np.take(estimates, left, axis=0, out=a)
            np.take(estimates, right, axis=0, out=b)
            np.add(a, b, out=a)
            np.multiply(a, 0.5, out=a)
            estimates[right] = a
            if both:
                estimates[left] = a
        if advise:
            advise_dontneed(estimates)


def average_pairs_inplace(
    estimates: np.ndarray,
    pairs: np.ndarray,
    chunk_rows: int = 0,
    advise: bool = False,
) -> None:
    """Average the estimate rows of each pair, in place.

    This is one gossip exchange for every pair at once: both members adopt
    the elementwise mean of their estimates, which preserves the global sum
    exactly (the mass-conservation invariant of gossip averaging).

    Precondition: the pairs are disjoint, as a :func:`pair_online` matching
    is — they are processed in cache-sized blocks, so a node in two pairs
    would not read the round's initial state twice.  ``chunk_rows`` (pairs
    between two page releases when ``advise`` is set on a memmap-backed
    slab) never changes the per-pair arithmetic, hence never the result.
    """
    _average_pair_blocks(estimates, pairs, chunk_rows, advise, both=True)


def half_average_pairs_inplace(
    estimates: np.ndarray,
    pairs: np.ndarray,
    chunk_rows: int = 0,
    advise: bool = False,
) -> None:
    """Apply the responder half of an interrupted push-pull exchange.

    The responder (right column) received the initiator's estimate and
    adopted the pair mean before its reply was lost or corrupted; the
    initiator (left column) keeps its old estimate.  Mass conservation is
    deliberately broken here — that is the fault being modelled.  Same
    disjoint-pairs precondition as :func:`average_pairs_inplace`.
    """
    _average_pair_blocks(estimates, pairs, chunk_rows, advise, both=False)


@dataclass(frozen=True)
class PairFaultPlan:
    """Outcome of the bulk fault model for one gossip exchange.

    ``full_pairs`` completed the push-pull exchange (both adopt the mean);
    ``half_pairs`` lost or corrupted the reply frame (responder adopted the
    mean, initiator keeps its old estimate); every other pair lost its
    request frame and is skipped entirely.
    """

    full_pairs: np.ndarray
    half_pairs: np.ndarray
    requests_sent: int
    replies_sent: int
    dropped_frames: int
    corrupted_frames: int

    @property
    def messages_sent(self) -> int:
        return self.requests_sent + self.replies_sent


def plan_pair_faults(
    pairs: np.ndarray,
    frame_bits: int,
    drop_probability: float,
    corruption_rate: float,
    loss_rng: np.random.Generator,
    corruption_rng: np.random.Generator,
) -> PairFaultPlan:
    """Draw per-frame loss/corruption outcomes for one gossip exchange.

    Mirrors the object engine's fault policy draw shape for draw shape, on
    the slab's own streams: one loss uniform per *sent* message (requests in
    pair order, then replies for the intact requests), one corruption gate
    uniform per *delivered* frame, plus one bit-position draw per corrupted
    frame (the slab path does not materialise frames, so a corrupted frame
    is simply discarded by the receiver — the checksum rejection path).
    With both rates zero, no randomness is consumed and every pair completes
    (bit-identical to the fault-free engine).
    """
    check_probability(drop_probability, "drop_probability")
    check_probability(corruption_rate, "corruption_rate")
    n_pairs = int(pairs.shape[0])
    empty = np.empty((0, 2), dtype=np.int64)
    if n_pairs == 0:
        return PairFaultPlan(pairs, empty, 0, 0, 0, 0)
    if drop_probability == 0.0 and corruption_rate == 0.0:
        return PairFaultPlan(pairs, empty, n_pairs, n_pairs, 0, 0)

    def _deliver(count: int) -> np.ndarray:
        if drop_probability > 0.0:
            return loss_rng.random(count) >= drop_probability
        return np.ones(count, dtype=bool)

    def _survive(delivered: np.ndarray) -> np.ndarray:
        intact = delivered.copy()
        if corruption_rate > 0.0:
            index = np.nonzero(delivered)[0]
            corrupted = corruption_rng.random(index.shape[0]) < corruption_rate
            hits = int(np.count_nonzero(corrupted))
            if hits:
                # One bit position per corrupted frame, as the wire-level
                # model draws; the flipped bit always invalidates the frame
                # checksum here, so only the draw shape matters.
                corruption_rng.integers(0, frame_bits, size=hits)
            intact[index[corrupted]] = False
        return intact

    request_delivered = _deliver(n_pairs)
    request_intact = _survive(request_delivered)
    responders = np.nonzero(request_intact)[0]
    replies_sent = int(responders.shape[0])
    reply_delivered = _deliver(replies_sent)
    reply_intact = _survive(reply_delivered)
    answered = pairs[responders]
    dropped = int(np.count_nonzero(~request_delivered)) + int(
        np.count_nonzero(~reply_delivered)
    )
    corrupted = int(np.count_nonzero(request_delivered & ~request_intact)) + int(
        np.count_nonzero(reply_delivered & ~reply_intact)
    )
    return PairFaultPlan(
        full_pairs=np.ascontiguousarray(answered[reply_intact]),
        half_pairs=np.ascontiguousarray(answered[~reply_intact]),
        requests_sent=n_pairs,
        replies_sent=replies_sent,
        dropped_frames=dropped,
        corrupted_frames=corrupted,
    )


def scatter_rows(
    estimates: np.ndarray,
    data: np.ndarray,
    assigned: np.ndarray,
    start: int,
    end: int,
    chunk_rows: int = 0,
) -> None:
    """Write rows ``[start, end)`` of the plain contribution layout.

    Layout per node: for the assigned cluster ``c``, columns
    ``[c*(T+1), c*(T+1)+T)`` hold the series values and column
    ``c*(T+1)+T`` holds the membership count 1; every other column is 0 —
    exactly the per-cluster sum/count estimate vector of the protocol.
    Pure per-row placement (no arithmetic) one cache block of rows at a
    time, so any blocking is exact.  A label that is not a cluster index
    raises :class:`SimulationError` before anything is written.
    """
    cell = data.shape[1] + 1
    n_clusters = estimates.shape[1] // cell
    labels = assigned[start:end]
    if labels.size and not 0 <= labels.min() <= labels.max() < n_clusters:
        raise SimulationError(
            f"rows [{start}, {end}) hold an assignment outside "
            f"[0, {n_clusters}): min {labels.min()}, max {labels.max()}"
        )
    step = _cache_block_rows(estimates)
    if chunk_rows > 0:
        step = min(step, chunk_rows)
    lane = np.arange(step)
    # Splitting the column axis is always a view: cells[i, c] is row i's
    # sum/count cell of cluster c.
    cells = estimates[start:end].reshape(end - start, n_clusters, cell)
    series = data[start:end]
    for s in range(0, end - start, step):
        block = cells[s:s + step]
        owner = labels[s:s + step]
        rows = lane[:len(owner)]
        block[:] = 0.0
        block[rows, owner, :-1] = series[s:s + step]
        block[rows, owner, -1] = 1.0


def _assign_block_range(
    data: np.ndarray,
    centroids: np.ndarray,
    assigned: np.ndarray,
    block_start: int,
    block_end: int,
) -> None:
    """Nearest-centroid assignment over canonical blocks (written in place)."""
    n = data.shape[0]
    for block in range(block_start, block_end):
        s, e = _block_rows(block, n)
        assigned[s:e] = assign_to_centroids(data[s:e], centroids)


def _scatter_block_range(
    estimates: np.ndarray,
    data: np.ndarray,
    assigned: np.ndarray,
    block_start: int,
    block_end: int,
    chunk_rows: int,
    advise: bool,
) -> None:
    """Contribution scatter over canonical blocks (rows released if mmap)."""
    n = data.shape[0]
    for block in range(block_start, block_end):
        s, e = _block_rows(block, n)
        scatter_rows(estimates, data, assigned, s, e, chunk_rows)
        if advise:
            advise_dontneed(estimates, s, e)


def _reduce_block_range(
    estimates: np.ndarray,
    online: np.ndarray,
    block_start: int,
    block_end: int,
    advise: bool,
) -> list[tuple[np.ndarray | None, int]]:
    """Per-canonical-block online sums of the estimate slab.

    Returns ``(sum_vector, online_count)`` per block; sums accumulate in
    float64 regardless of the slab dtype.
    """
    n = estimates.shape[0]
    partials: list[tuple[np.ndarray | None, int]] = []
    for block in range(block_start, block_end):
        s, e = _block_rows(block, n)
        mask = online[s:e]
        count = int(np.count_nonzero(mask))
        # A fully online block is summed where it lies: same contiguous
        # rows in the same order as the masked copy, without the copy.
        rows = estimates[s:e] if count == e - s else estimates[s:e][mask]
        vector = rows.sum(axis=0, dtype=np.float64) if count else None
        partials.append((vector, count))
        if advise:
            advise_dontneed(estimates, s, e)
    return partials


def blockwise_assign(
    data: np.ndarray, centroids: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Nearest-centroid assignment over the canonical block partition.

    Identical to ``assign_to_centroids(data, centroids)`` for populations
    that fit one canonical block; larger populations are processed block by
    block so the distance temporaries stay bounded.
    """
    n = data.shape[0]
    if out is None:
        out = np.empty(n, dtype=np.int64)
    _assign_block_range(data, centroids, out, 0, n_canonical_blocks(n))
    return out


def blockwise_inertia(
    data: np.ndarray, centroids: np.ndarray, assignments: np.ndarray
) -> float:
    """Intra-cluster inertia accumulated over the canonical block partition."""
    total: float | None = None
    for s, e in canonical_blocks(data.shape[0]):
        diffs = data[s:e] - centroids[assignments[s:e]]
        partial = float(np.sum(diffs * diffs))
        total = partial if total is None else total + partial
    return float(total if total is not None else 0.0)


def blockwise_cluster_sums(
    data: np.ndarray, assignments: np.ndarray, n_clusters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster data sums and member counts over the canonical partition.

    Sums accumulate in float64; dividing ``sums[c] / counts[c]`` reproduces
    ``data[assignments == c].mean(axis=0)`` bitwise for single-block
    float64 populations.
    """
    sums: np.ndarray | None = None
    counts = np.zeros(n_clusters, dtype=np.int64)
    for s, e in canonical_blocks(data.shape[0]):
        block = data[s:e]
        labels = assignments[s:e]
        block_sums = np.zeros((n_clusters, data.shape[1]), dtype=np.float64)
        for cluster in range(n_clusters):
            members = labels == cluster
            if members.any():
                block_sums[cluster] = block[members].sum(axis=0, dtype=np.float64)
        counts += np.bincount(labels.astype(np.int64, copy=False),
                              minlength=n_clusters)
        sums = block_sums if sums is None else sums + block_sums
    assert sums is not None
    return sums, counts


def _slab_worker(
    connection: Any,
    data: np.ndarray | None,
    estimates: np.ndarray,
    pairs: np.ndarray,
    online: np.ndarray,
    assigned: np.ndarray,
    chunk_rows: int,
) -> None:  # pragma: no cover - exercised via ShardCoordinator in subprocesses
    """Worker loop: execute slab phases over disjoint pair/block ranges.

    All arrays arrive through the fork (shared-memory segments and memmaps
    stay shared mappings; the read-only data matrix is inherited
    copy-on-write), so no bytes are pickled per command beyond the tiny
    command tuples themselves.
    """
    advise = getattr(estimates, "_mmap", None) is not None
    try:
        while True:
            command = connection.recv()
            if command is None:
                break
            tag = command[0]
            if tag == "pairs":
                _, start, end = command
                average_pairs_inplace(
                    estimates, pairs[start:end], chunk_rows, advise=advise
                )
                connection.send(("ok", None))
            elif tag == "assign":
                _, block_start, block_end, centroids = command
                _assign_block_range(data, centroids, assigned, block_start, block_end)
                connection.send(("ok", None))
            elif tag == "scatter":
                _, block_start, block_end = command
                _scatter_block_range(
                    estimates, data, assigned, block_start, block_end,
                    chunk_rows, advise,
                )
                connection.send(("ok", None))
            elif tag == "reduce":
                _, block_start, block_end = command
                partials = _reduce_block_range(
                    estimates, online, block_start, block_end, advise
                )
                connection.send(("ok", partials))
            else:
                connection.send(("error", f"unknown command {tag!r}"))
    finally:
        connection.close()


class ShardCoordinator:
    """Owns the population slabs and fans bulk phases out to worker shards.

    With ``shards == 1`` (the default, and the fallback when the platform
    cannot fork) everything runs in-process.  With more shards the mutable
    slabs (estimates, pairs, online, assigned) live in shared mappings;
    long-lived forked workers execute disjoint pair ranges (averaging) or
    contiguous canonical-block ranges (assignment, contribution scatter,
    online-sum reduction), and the coordinator combines reduction partials
    in global block order — so every result is bit-identical to the
    single-shard path regardless of the shard count.

    ``dtype``/``backing``/``chunk_rows`` select the out-of-core layout of
    the estimate slab (see the module docstring).  ``data`` (the normalised
    population matrix) is only required for the assignment/scatter phases.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        shards: int = 1,
        *,
        dtype: str = "float64",
        backing: str = "memory",
        chunk_rows: int = 0,
        data: np.ndarray | None = None,
    ) -> None:
        check_positive_int(n_rows, "n_rows")
        check_positive_int(n_cols, "n_cols")
        check_positive_int(shards, "shards")
        check_non_negative_int(chunk_rows, "chunk_rows")
        if data is not None and data.shape[0] != n_rows:
            raise SimulationError(
                f"data has {data.shape[0]} rows, coordinator expects {n_rows}"
            )
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.dtype = slab_numpy_dtype(dtype)
        self.backing, self._backing_dir = parse_slab_backing(backing)
        self.chunk_rows = int(chunk_rows)
        self.shards = min(shards, max(1, n_rows // 2))
        self._data = data
        self._n_blocks = n_canonical_blocks(n_rows)
        self._workers: list[Any] = []
        self._pipes: list[Any] = []
        self._estimates_shm: shared_memory.SharedMemory | None = None
        self._shared_shm: shared_memory.SharedMemory | None = None
        self._pairs: np.ndarray | None = None
        context = None
        if self.shards > 1:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                self.shards = 1
        self.estimates = self._allocate_estimates()
        self._advise = getattr(self.estimates, "_mmap", None) is not None
        if self.shards == 1:
            self.online = np.ones(n_rows, dtype=bool)
            self.assigned = np.zeros(n_rows, dtype=np.int32)
            return
        # One segment for the small shared slabs: the pair buffer, the
        # online flags and the assignment vector.
        pairs_capacity = max(1, n_rows // 2)
        pairs_bytes = pairs_capacity * 2 * 8
        online_bytes = -(-n_rows // 8) * 8  # pad to keep the int32 view aligned
        assigned_bytes = n_rows * 4
        self._shared_shm = shared_memory.SharedMemory(
            create=True, size=pairs_bytes + online_bytes + assigned_bytes
        )
        buffer = self._shared_shm.buf
        self._pairs = np.ndarray(
            (pairs_capacity, 2), dtype=np.int64, buffer=buffer, offset=0
        )
        self.online = np.ndarray(
            (n_rows,), dtype=bool, buffer=buffer, offset=pairs_bytes
        )
        self.assigned = np.ndarray(
            (n_rows,), dtype=np.int32, buffer=buffer,
            offset=pairs_bytes + online_bytes,
        )
        self.online[:] = True
        self.assigned[:] = 0
        for _ in range(self.shards):
            parent, child = context.Pipe()
            worker = context.Process(
                target=_slab_worker,
                args=(
                    child,
                    self._data,
                    self.estimates,
                    self._pairs,
                    self.online,
                    self.assigned,
                    self.chunk_rows,
                ),
                daemon=True,
            )
            worker.start()
            child.close()
            self._workers.append(worker)
            self._pipes.append(parent)

    # ------------------------------------------------------------- allocation
    def _allocate_estimates(self) -> np.ndarray:
        if self.backing == "mmap":
            directory = self._backing_dir
            assert directory is not None
            os.makedirs(directory, exist_ok=True)
            descriptor, path = tempfile.mkstemp(
                prefix="slab-estimates-", suffix=".bin", dir=directory
            )
            try:
                size = self.n_rows * self.n_cols * self.dtype.itemsize
                os.ftruncate(descriptor, size)
                estimates = np.memmap(
                    path, dtype=self.dtype, mode="r+",
                    shape=(self.n_rows, self.n_cols),
                )
            finally:
                os.close(descriptor)
                # Unlink immediately: the mapping keeps the inode alive for
                # this process and its forked workers, and a crash leaves no
                # stray multi-GB file behind.  A fresh sparse file reads as
                # zeros, so no page-dirtying initialisation pass is needed.
                os.unlink(path)
            advise_random(estimates)
            return estimates
        if self.shards > 1:
            self._estimates_shm = shared_memory.SharedMemory(
                create=True, size=self.n_rows * self.n_cols * self.dtype.itemsize
            )
            estimates = np.ndarray(
                (self.n_rows, self.n_cols), dtype=self.dtype,
                buffer=self._estimates_shm.buf,
            )
            estimates[:] = 0.0
            return estimates
        return np.zeros((self.n_rows, self.n_cols), dtype=self.dtype)

    # ---------------------------------------------------------------- phases
    def _fan_out(self, count: int, make_command: Any) -> list[Any]:
        """Send contiguous ranges of *count* items (pairs or canonical
        blocks) to every worker, collect replies in shard (= global) order.

        A worker that died surfaces as ``SimulationError`` naming its shard
        and exit code, not as the pipe's ``BrokenPipeError``/``EOFError``.
        """
        bounds = np.linspace(0, count, self.shards + 1).astype(int)
        active: list[int] = []
        replies = []
        try:
            for shard in range(self.shards):
                start, end = int(bounds[shard]), int(bounds[shard + 1])
                if start < end:
                    self._pipes[shard].send(make_command(start, end))
                    active.append(shard)
            for shard in active:
                status, payload = self._pipes[shard].recv()
                if status != "ok":  # pragma: no cover - defensive
                    raise SimulationError(f"slab worker failed: {payload}")
                replies.append(payload)
        except (EOFError, OSError) as exc:
            worker = self._workers[shard]
            worker.join(timeout=1.0)
            raise SimulationError(
                f"slab shard {shard} died (exit code {worker.exitcode})"
            ) from exc
        return replies

    def average_pairs(self, pairs: np.ndarray) -> None:
        """Run one vectorised gossip round over the given disjoint pairs."""
        count = int(pairs.shape[0])
        if count == 0:
            return
        if self.shards == 1 or count < 2 * self.shards:
            average_pairs_inplace(
                self.estimates, pairs, self.chunk_rows, advise=self._advise
            )
            return
        assert self._pairs is not None
        self._pairs[:count] = pairs
        self._fan_out(count, lambda start, end: ("pairs", start, end))

    def half_average_pairs(self, pairs: np.ndarray) -> None:
        """Apply interrupted (reply-lost) exchanges; see
        :func:`half_average_pairs_inplace`.  Runs in-process — fault
        survivors are a small fraction of a round and the rows are disjoint
        from every other pair, so this is shard-safe by construction."""
        half_average_pairs_inplace(
            self.estimates, pairs, self.chunk_rows, advise=self._advise
        )

    def assign(self, centroids: np.ndarray) -> np.ndarray:
        """Nearest-centroid assignment of every row into ``self.assigned``."""
        if self._data is None:
            raise SimulationError(
                "this coordinator was created without the data matrix; "
                "pass data=... to use the assignment phase"
            )
        if self.shards == 1:
            _assign_block_range(
                self._data, centroids, self.assigned, 0, self._n_blocks
            )
        else:
            self._fan_out(self._n_blocks,
                          lambda start, end: ("assign", start, end, centroids))
        return self.assigned

    def scatter(self) -> None:
        """Write every node's plain contribution into the estimate slab."""
        if self._data is None:
            raise SimulationError(
                "this coordinator was created without the data matrix; "
                "pass data=... to use the scatter phase"
            )
        if self.shards == 1:
            _scatter_block_range(
                self.estimates, self._data, self.assigned, 0, self._n_blocks,
                self.chunk_rows, self._advise,
            )
        else:
            self._fan_out(self._n_blocks, lambda start, end: ("scatter", start, end))

    def online_mean(self) -> tuple[np.ndarray, int]:
        """Mean estimate vector over the online nodes (float64), plus count.

        Per-canonical-block partial sums are combined in global block order,
        so the result is shard-count-invariant; single-block populations
        reproduce ``estimates[online].mean(axis=0)`` bitwise for float64
        slabs.
        """
        if self.shards == 1:
            partials = _reduce_block_range(
                self.estimates, self.online, 0, self._n_blocks, self._advise
            )
        else:
            partials = [
                partial
                for payload in self._fan_out(
                    self._n_blocks, lambda start, end: ("reduce", start, end))
                for partial in payload
            ]
        total: np.ndarray | None = None
        count = 0
        for vector, block_count in partials:
            if block_count == 0:
                continue
            assert vector is not None
            total = vector.copy() if total is None else total + vector
            count += block_count
        if count == 0 or total is None:
            return np.full(self.n_cols, np.nan), 0
        return total / count, count

    # --------------------------------------------------------------- teardown
    def close(self) -> None:
        """Shut down workers and release shared mappings."""
        for pipe in self._pipes:
            try:
                pipe.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
        for pipe in self._pipes:
            pipe.close()
        self._workers = []
        self._pipes = []
        if self._estimates_shm is not None or self._shared_shm is not None \
                or self._advise:
            # Drop views into the segments before unlinking them.
            self.estimates = np.empty((0, 0), dtype=self.dtype)
            self.online = np.empty(0, dtype=bool)
            self.assigned = np.empty(0, dtype=np.int32)
            self._pairs = None
            self._advise = False
        for segment in (self._estimates_shm, self._shared_shm):
            if segment is not None:
                segment.close()
                segment.unlink()
        self._estimates_shm = None
        self._shared_shm = None

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
