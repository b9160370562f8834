"""Differential and allocation tests of the blockwise slab kernels.

``average_pairs_inplace`` / ``half_average_pairs_inplace``, ``scatter_rows``
and ``_reduce_block_range`` walk the slab in cache-sized blocks.  The
whole-array expressions they replaced live on here as oracles: every kernel
must reproduce its oracle bit for bit at every block boundary, chunk size,
dtype, backing and shard count, and must not allocate anything proportional
to the population while doing so.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.simulation import slab
from repro.simulation.slab import (
    REDUCE_BLOCK_ROWS,
    ShardCoordinator,
    average_pairs_inplace,
    half_average_pairs_inplace,
    scatter_rows,
)

DTYPES = [np.float64, np.float32]
#: 64 columns: a cache block is 256 float64 rows / 512 float32 rows.
WIDTH = 64


# ------------------------------------------------------------------ oracles
def oracle_average_pairs(estimates: np.ndarray, pairs: np.ndarray) -> None:
    left, right = pairs[:, 0], pairs[:, 1]
    mean = 0.5 * (estimates[left] + estimates[right])
    estimates[left] = mean
    estimates[right] = mean


def oracle_half_average(estimates: np.ndarray, pairs: np.ndarray) -> None:
    left, right = pairs[:, 0], pairs[:, 1]
    estimates[right] = 0.5 * (estimates[left] + estimates[right])


def oracle_scatter_rows(estimates: np.ndarray, data: np.ndarray,
                        assigned: np.ndarray, start: int, end: int) -> None:
    series_length = data.shape[1]
    offsets = np.arange(series_length + 1, dtype=np.int64)[None, :]
    block = estimates[start:end]
    block[:] = 0.0
    base = assigned[start:end].astype(np.int64) * (series_length + 1)
    payload = np.concatenate(
        [data[start:end], np.ones((end - start, 1), dtype=data.dtype)], axis=1
    )
    np.put_along_axis(block, base[:, None] + offsets, payload, axis=1)


def oracle_reduce_block(estimates: np.ndarray, online: np.ndarray,
                        start: int, end: int) -> tuple[np.ndarray | None, int]:
    rows = estimates[start:end][online[start:end]]
    count = int(rows.shape[0])
    return (rows.sum(axis=0, dtype=np.float64) if count else None), count


KERNELS = [
    pytest.param(average_pairs_inplace, oracle_average_pairs, id="full"),
    pytest.param(half_average_pairs_inplace, oracle_half_average, id="half"),
]


# ------------------------------------------------------------------ helpers
def make_slab(rows: int, width: int, dtype, tmp_path=None, seed: int = 5):
    """A random slab, in memory or (given a directory) on a memmap."""
    values = np.random.default_rng(seed).normal(size=(rows, width)).astype(dtype)
    if tmp_path is None:
        return values
    mapped = np.memmap(tmp_path / "slab.bin", dtype=dtype, mode="w+",
                       shape=(rows, width))
    mapped[:] = values
    return mapped


def make_pairs(rows: int, count: int, seed: int = 9) -> np.ndarray:
    nodes = np.random.default_rng(seed).permutation(rows)[: 2 * count]
    return nodes.reshape(count, 2).astype(np.int64)


def block_rows(dtype, width: int = WIDTH) -> int:
    return slab._cache_block_rows(np.empty((1, width), dtype=dtype))


def pair_counts(dtype) -> list[int]:
    block = block_rows(dtype)
    return [0, 1, block - 1, block, block + 1, 3 * block + 5]


# ---------------------------------------------------------- pair averaging
class TestPairAveraging:
    def test_block_is_sized_from_the_row_bytes(self):
        assert block_rows(np.float64) == slab.CACHE_BLOCK_BYTES // (WIDTH * 8)
        assert block_rows(np.float32) == 2 * block_rows(np.float64)
        assert block_rows(np.float64, width=10 ** 6) == 1

    @pytest.mark.parametrize("kernel, oracle", KERNELS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_block_boundary(self, kernel, oracle, dtype):
        for count in pair_counts(dtype):
            expected = make_slab(2 * count + 3, WIDTH, dtype)
            actual = expected.copy()
            pairs = make_pairs(expected.shape[0], count)
            oracle(expected, pairs)
            kernel(actual, pairs)
            assert np.array_equal(actual, expected), count

    @pytest.mark.parametrize("kernel, oracle", KERNELS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mapped", [False, True], ids=["memory", "memmap"])
    @pytest.mark.parametrize("advise", [False, True], ids=["plain", "advise"])
    def test_every_chunk_size(self, kernel, oracle, dtype, mapped, advise,
                              tmp_path):
        block = block_rows(dtype)
        count = 3 * block + 5
        rows = 2 * count + 3
        pairs = make_pairs(rows, count)
        expected = make_slab(rows, WIDTH, dtype)
        oracle(expected, pairs)
        for chunk_rows in (0, 1, 7, block - 1, block + 1, count + 10):
            actual = make_slab(rows, WIDTH, dtype, tmp_path if mapped else None)
            kernel(actual, pairs, chunk_rows=chunk_rows, advise=advise)
            assert np.array_equal(actual, expected), chunk_rows

    def test_advise_step_is_capped(self, tmp_path):
        """On a memmap the page-release cadence stays ADVISE_PAIR_CHUNK pairs
        even with chunk_rows=0; the cache block is the inner loop."""
        count = 2 * 8 + 3
        actual = make_slab(2 * count, 4, np.float64, tmp_path)
        expected = np.array(actual)
        pairs = make_pairs(2 * count, count)
        oracle_average_pairs(expected, pairs)
        with mock.patch.object(slab, "ADVISE_PAIR_CHUNK", 8), \
                mock.patch.object(slab, "advise_dontneed") as released:
            average_pairs_inplace(actual, pairs, advise=True)
        assert released.call_count == 3
        assert np.array_equal(actual, expected)

    @given(
        rows=st.integers(min_value=2, max_value=90),
        width=st.integers(min_value=1, max_value=9),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        chunk_rows=st.integers(min_value=0, max_value=50),
        block_bytes=st.integers(min_value=1, max_value=2048),
        dtype=st.sampled_from(DTYPES),
        half=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_shape_matches_the_oracle(self, rows, width, fraction,
                                          chunk_rows, block_bytes, dtype, half):
        kernel, oracle = (
            (half_average_pairs_inplace, oracle_half_average) if half
            else (average_pairs_inplace, oracle_average_pairs)
        )
        expected = make_slab(rows, width, dtype, seed=rows * 31 + width)
        actual = expected.copy()
        pairs = make_pairs(rows, int(fraction * (rows // 2)), seed=chunk_rows)
        oracle(expected, pairs)
        with mock.patch.object(slab, "CACHE_BLOCK_BYTES", block_bytes):
            kernel(actual, pairs, chunk_rows=chunk_rows)
        assert np.array_equal(actual, expected)


# ------------------------------------------------------------------ scatter
def make_population(rows: int, series_length: int, n_clusters: int, dtype,
                    empty_cluster: bool = False, seed: int = 13):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, series_length)).astype(dtype)
    used = n_clusters - 1 if empty_cluster else n_clusters
    assigned = (np.arange(rows) % used).astype(np.int32)
    rng.shuffle(assigned)
    return data, assigned


class TestScatter:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("empty_cluster", [False, True],
                             ids=["every-cluster", "empty-cluster"])
    @pytest.mark.parametrize("mapped", [False, True], ids=["memory", "memmap"])
    def test_every_chunk_size(self, dtype, empty_cluster, mapped, tmp_path):
        n_clusters, series_length = 4, 15
        width = n_clusters * (series_length + 1)
        block = block_rows(dtype, width)
        rows = 3 * block + 5
        data, assigned = make_population(rows, series_length, n_clusters, dtype,
                                         empty_cluster)
        assert len(np.unique(assigned)) == n_clusters - empty_cluster
        expected = make_slab(rows, width, dtype)
        oracle_scatter_rows(expected, data, assigned, 0, rows)
        for chunk_rows in (0, 1, 7, block - 1, block + 1, rows + 10):
            actual = make_slab(rows, width, dtype, tmp_path if mapped else None)
            scatter_rows(actual, data, assigned, 0, rows, chunk_rows)
            assert np.array_equal(actual, expected), chunk_rows

    @pytest.mark.parametrize("extent", ["block-1", "block", "block+1"])
    def test_sub_range_leaves_other_rows_alone(self, extent):
        n_clusters, series_length = 3, 20
        width = n_clusters * (series_length + 1)
        block = block_rows(np.float64, width)
        start = 11
        end = start + {"block-1": block - 1, "block": block,
                       "block+1": block + 1}[extent]
        rows = end + 9
        data, assigned = make_population(rows, series_length, n_clusters,
                                         np.float64)
        expected = make_slab(rows, width, np.float64)
        actual = expected.copy()
        oracle_scatter_rows(expected, data, assigned, start, end)
        scatter_rows(actual, data, assigned, start, end)
        assert np.array_equal(actual, expected)

    def test_strided_slab_is_written_in_place(self):
        """Splitting the column axis never copies, whatever the row stride."""
        data, assigned = make_population(50, 4, 3, np.float64)
        wide = np.full((50, 15 + 6), 7.0)
        expected = np.empty((50, 15))
        oracle_scatter_rows(expected, data, assigned, 0, 50)
        scatter_rows(wide[:, 3:18], data, assigned, 0, 50)
        assert np.array_equal(wide[:, 3:18], expected)
        assert np.all(wide[:, :3] == 7.0) and np.all(wide[:, 18:] == 7.0)

    @pytest.mark.parametrize("label", [-1, 3, 250])
    def test_label_outside_the_clusters_is_refused(self, label):
        data, assigned = make_population(40, 4, 3, np.float64)
        assigned[17] = label
        estimates = np.full((40, 15), 7.0)
        with pytest.raises(SimulationError, match=r"rows \[10, 30\)"):
            scatter_rows(estimates, data, assigned, 10, 30)
        assert np.all(estimates == 7.0), "nothing is written before the check"
        scatter_rows(estimates, data, assigned, 20, 40)  # row 17 not in range

    def test_coordinator_scatter_refuses_bad_labels(self):
        data, _ = make_population(12, 2, 2, np.float64)
        with ShardCoordinator(12, 6, data=data) as coordinator:
            coordinator.assigned[5] = 2
            with pytest.raises(SimulationError, match="assignment outside"):
                coordinator.scatter()


# ------------------------------------------------------------------- reduce
def online_pattern(rows: int, first: str, second: str) -> np.ndarray:
    """Online flags over two canonical blocks: all / part / none per block."""
    rng = np.random.default_rng(21)
    online = np.empty(rows, dtype=bool)
    for (start, end), kind in zip(slab.canonical_blocks(rows), (first, second)):
        online[start:end] = {"all": True, "none": False}.get(
            kind, rng.random(end - start) < 0.6
        )
    return online


class TestReduce:
    ROWS = REDUCE_BLOCK_ROWS + 4464  # two canonical blocks

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mapped", [False, True], ids=["memory", "memmap"])
    @pytest.mark.parametrize("first, second", [
        ("all", "all"), ("all", "part"), ("part", "none"), ("none", "all"),
        ("none", "none"),
    ])
    def test_block_sums_match_the_masked_copy(self, dtype, mapped, first,
                                              second, tmp_path):
        estimates = make_slab(self.ROWS, 6, dtype, tmp_path if mapped else None)
        online = online_pattern(self.ROWS, first, second)
        partials = slab._reduce_block_range(estimates, online, 0, 2,
                                            advise=mapped)
        assert len(partials) == 2
        for (vector, count), (start, end) in zip(
                partials, slab.canonical_blocks(self.ROWS)):
            expected, expected_count = oracle_reduce_block(
                estimates, online, start, end)
            assert count == expected_count
            if expected is None:
                assert vector is None
            else:
                assert vector.dtype == np.float64
                assert np.array_equal(vector, expected)

    def test_single_row_and_single_block(self):
        estimates = make_slab(1, 5, np.float64)
        [(vector, count)] = slab._reduce_block_range(
            estimates, np.ones(1, dtype=bool), 0, 1, advise=False)
        assert count == 1 and np.array_equal(vector, estimates[0])


# ---------------------------------------------------------------- sharding
class TestTwoBlocksOneAndTwoShards:
    """The phases over a population of two canonical blocks, in process and
    fanned out to two forked workers, against the oracles."""

    ROWS = REDUCE_BLOCK_ROWS + 4464
    CLUSTERS, SERIES = 2, 2

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_phases_match_the_oracles(self, shards, dtype):
        width = self.CLUSTERS * (self.SERIES + 1)
        data, _ = make_population(self.ROWS, self.SERIES, self.CLUSTERS,
                                  np.dtype(dtype))
        centroids = np.array([[-0.5, -0.5], [0.5, 0.5]])
        with ShardCoordinator(self.ROWS, width, shards=shards, dtype=dtype,
                              chunk_rows=1000, data=data) as coordinator:
            assert coordinator.shards == shards
            coordinator.assign(centroids)
            assert set(np.unique(coordinator.assigned)) == {0, 1}
            coordinator.scatter()
            expected = np.empty((self.ROWS, width), dtype=dtype)
            oracle_scatter_rows(expected, data, coordinator.assigned, 0,
                                self.ROWS)
            assert np.array_equal(coordinator.estimates, expected)

            coordinator.online[:] = online_pattern(self.ROWS, "all", "part")
            pairs = slab.pair_online(coordinator.online,
                                     np.random.default_rng(2))
            coordinator.average_pairs(pairs[:-300])
            coordinator.half_average_pairs(pairs[-300:])
            oracle_average_pairs(expected, pairs[:-300])
            oracle_half_average(expected, pairs[-300:])
            assert np.array_equal(coordinator.estimates, expected)

            mean, count = coordinator.online_mean()
            total = None
            for start, end in slab.canonical_blocks(self.ROWS):
                vector, _ = oracle_reduce_block(expected, coordinator.online,
                                                start, end)
                total = vector if total is None else total + vector
            assert count == int(np.count_nonzero(coordinator.online))
            assert np.array_equal(mean, total / count)


# --------------------------------------------------------------- allocation
class TestDeadShardWorker:
    """A shard worker that died fails the next fanned-out phase with an
    error naming it, and ``close`` still releases the shared segments."""

    @pytest.mark.parametrize("phase", ["average_pairs", "online_mean"])
    def test_killed_worker_is_named(self, phase):
        import os
        import signal
        from multiprocessing import shared_memory

        rows, width = 64, 4
        coordinator = ShardCoordinator(rows, width, shards=2)
        segments = [coordinator._estimates_shm.name, coordinator._shared_shm.name]
        victim = coordinator._workers[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        pairs = np.arange(rows, dtype=np.int64).reshape(-1, 2)
        with pytest.raises(SimulationError,
                           match=rf"slab shard 1 died \(exit code {-signal.SIGKILL}\)"):
            if phase == "average_pairs":
                coordinator.average_pairs(pairs)
            else:
                coordinator.online_mean()
        coordinator.close()
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestNoPopulationSizedTemporaries:
    """The mechanism behind the speed-up, pinned: one kernel call over a
    32 MB slab allocates well under 2 MiB (the whole-array expressions
    peaked at 30.5 / 15.9 / 30.8 MiB)."""

    ROWS, CLUSTERS, SERIES = 40_000, 4, 24
    LIMIT = 2 * 1024 * 1024

    @pytest.fixture(scope="class")
    def population(self):
        width = self.CLUSTERS * (self.SERIES + 1)
        estimates = make_slab(self.ROWS, width, np.float64)
        data, assigned = make_population(self.ROWS, self.SERIES, self.CLUSTERS,
                                         np.float64)
        return estimates, data, assigned

    def peak_of(self, call) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - before

    def test_tracemalloc_sees_numpy_buffers(self, population):
        estimates = population[0]
        assert self.peak_of(lambda: estimates + 1.0) > estimates.nbytes // 2

    def test_pair_averaging(self, population):
        estimates = population[0]
        pairs = make_pairs(self.ROWS, self.ROWS // 2)
        for kernel in (average_pairs_inplace, half_average_pairs_inplace):
            assert self.peak_of(lambda: kernel(estimates, pairs)) < self.LIMIT

    def test_scatter(self, population):
        estimates, data, assigned = population
        peak = self.peak_of(
            lambda: scatter_rows(estimates, data, assigned, 0, self.ROWS))
        assert peak < self.LIMIT

    def test_all_online_reduce(self, population):
        estimates = population[0]
        online = np.ones(self.ROWS, dtype=bool)
        peak = self.peak_of(
            lambda: slab._reduce_block_range(estimates, online, 0, 1, False))
        assert peak < self.LIMIT
