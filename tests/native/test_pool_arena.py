"""The pool owns its shared memory: from the second sort on a reused
:class:`WorkerPool`, nothing is created, attached or left behind.

The reserved (serve-side) geometry is covered by
``tests/serve/test_arena.py``; this file covers the growing arena a
plain pool gets and the worker-side attach cache behind it.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, use_fault_plan
from repro.native import (
    WorkerPool,
    parallel_radix_sort,
    parallel_sample_sort,
    parallel_sort,
    shm,
)
from repro.native import pool as pool_mod
from repro.native.arena import N_DATA, N_META

SORTS = {"radix": parallel_radix_sort, "sample": parallel_sample_sort}
N_SLABS = N_DATA + N_META
#: Slabs one sort leases: src/dst, plus radix's histogram and offsets.
LEASED = {"radix": N_DATA + 2, "sample": N_DATA}


def _segments() -> set[str]:
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    return {
        p.name for pat in ("repro_slab_*", "psm_*") for p in shm_dir.glob(pat)
    }


def _keys(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << 31, n, dtype=np.int64)


def _traffic(pool: WorkerPool, sort, keys: np.ndarray) -> tuple[int, int]:
    """(segments created, fresh worker attaches) of one checked sort."""
    pool.timings.clear()
    before = shm.create_count()
    out = sort(keys, pool=pool)
    assert np.array_equal(out, np.sort(keys))
    return (
        shm.create_count() - before,
        sum(sum(t.attaches) for t in pool.timings),
    )


def _cache_size(_task) -> int:
    return len(shm._attach_cache)


def _fresh_attaches(handles) -> int:
    """What a sort task does with its buffers; returns its attaches."""
    before = shm.attach_count()
    for handle in handles:
        shm.resolve(handle)
    return shm.attach_count() - before


_REAL_MAP_TASK = pool_mod._map_slabs_task


def _die_once_then_map(handles):
    """The pool's mapping task, except that the first worker to run it
    (per ``$REPRO_TEST_DIE_ONCE`` marker file) SIGKILLs itself."""
    try:
        os.close(os.open(os.environ["REPRO_TEST_DIE_ONCE"], os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _REAL_MAP_TASK(handles)
    os.kill(os.getpid(), signal.SIGKILL)


class TestSteadyState:
    @pytest.mark.parametrize("algorithm", sorted(SORTS))
    def test_second_and_later_sorts_touch_no_segment(self, algorithm):
        sort = SORTS[algorithm]
        with WorkerPool(2, collect_timings=True) as pool:
            creates, attaches = _traffic(pool, sort, _keys(40_000))
            assert creates == LEASED[algorithm] and 0 < attaches <= 2 * creates
            for seed in (1, 2):
                assert _traffic(pool, sort, _keys(40_000, seed)) == (0, 0)
            # A smaller sort fits the slabs it finds ...
            assert _traffic(pool, sort, _keys(9_000)) == (0, 0)
            # ... a larger one regrows the two data slabs, once.
            creates, attaches = _traffic(pool, sort, _keys(90_000))
            assert creates == N_DATA and 0 < attaches <= 2 * N_DATA
            assert _traffic(pool, sort, _keys(90_000, 3)) == (0, 0)
            assert _traffic(pool, sort, _keys(40_000, 4)) == (0, 0)

    def test_algorithms_share_the_slabs(self):
        with WorkerPool(2, collect_timings=True) as pool:
            _traffic(pool, parallel_radix_sort, _keys(30_000))
            # Sample sort leases only src/dst, which radix already grew.
            assert _traffic(pool, parallel_sample_sort, _keys(30_000))[0] == 0
            for sort in (parallel_radix_sort, parallel_sample_sort) * 2:
                assert _traffic(pool, sort, _keys(30_000, 5)) == (0, 0)

    def test_regrow_leaves_no_old_generation_anywhere(self):
        with WorkerPool(2, collect_timings=True) as pool:
            _traffic(pool, parallel_radix_sort, _keys(20_000))
            old = set(pool.arena.slab_names)
            assert old <= _segments()
            _traffic(pool, parallel_radix_sort, _keys(80_000))
            grown = set(pool.arena.slab_names)
            assert len(old - grown) == N_DATA
            assert not (old - grown) & _segments()
            # Every worker swapped its stale mappings for the new
            # generation: the cache is bounded by the slab count.
            sizes = pool.run_phase(_cache_size, range(8))
            assert max(sizes) <= N_SLABS


class TestLifecycle:
    def test_construction_creates_no_segment(self):
        before_files, before = _segments(), shm.create_count()
        with WorkerPool(2) as pool:
            pool.run_phase(abs, [1, 2])
            assert pool.arena.slab_names == ()
            assert shm.create_count() == before and _segments() == before_files

    @pytest.mark.parametrize("force", [False, True], ids=["close", "force"])
    def test_close_unlinks_the_arena(self, force):
        before = _segments()
        pool = WorkerPool(2)
        parallel_sample_sort(_keys(20_000), pool=pool)
        assert len(_segments() - before) == LEASED["sample"]
        pool.close(force=force)
        assert _segments() == before
        with pytest.raises(RuntimeError):
            pool.arena.lease(16)

    def test_own_pool_sort_leaves_nothing(self):
        before = _segments()
        keys = _keys(20_000)
        assert np.array_equal(parallel_radix_sort(keys, n_workers=2), np.sort(keys))
        assert _segments() == before

    def test_sequential_plans_and_merge_phases_never_create(self, tmp_path):
        from repro.stream import external_sort

        before_files, before = _segments(), shm.create_count()
        keys = _keys(30_000)
        with WorkerPool(2, supervise=True, phase_timeout_s=30.0) as pool:
            # No plan table in the test cache dir: unpinned means sequential.
            assert np.array_equal(parallel_sort(keys, pool=pool), np.sort(keys))
            result = external_sort(
                keys, chunk_keys=4_000, fan_in=2, pool=pool, workdir=tmp_path,
                out=tmp_path / "sorted.bin",
            )
            assert result.merge_passes > 1  # intermediate passes ran on the pool
            assert pool.arena.slab_names == ()
            assert shm.create_count() == before and _segments() == before_files
        assert np.array_equal(
            np.fromfile(tmp_path / "sorted.bin", dtype=np.int64), np.sort(keys)
        )


@pytest.mark.chaos
class TestFaults:
    def test_rebuilt_workers_attach_exactly_once(self):
        """A killed worker takes its attach cache with it: the sort that
        absorbs the rebuild re-attaches, the next one does not."""
        plan = FaultPlan.scripted({"pool.worker.crash": [0]})
        with WorkerPool(
            2, collect_timings=True, supervise=True, phase_timeout_s=10.0
        ) as pool:
            _traffic(pool, parallel_radix_sort, _keys(20_000))
            assert _traffic(pool, parallel_radix_sort, _keys(20_000, 1)) == (0, 0)
            with use_fault_plan(plan):
                creates, attaches = _traffic(
                    pool, parallel_radix_sort, _keys(20_000, 2)
                )
            assert pool.phase_failures == 1 and plan.stats().all_recovered
            assert creates == 0 and 0 < attaches <= 2 * 4
            assert _traffic(pool, parallel_radix_sort, _keys(20_000, 3)) == (0, 0)

    def test_attach_fault_fires_on_a_warm_cache(self):
        """The injected failure is consumed before the cache lookup, so a
        steady-state pool still exercises (and absorbs) ``shm.attach``."""
        plan = FaultPlan.scripted({"shm.attach": [1]})
        with WorkerPool(
            2, collect_timings=True, supervise=True, phase_timeout_s=10.0
        ) as pool:
            _traffic(pool, parallel_sample_sort, _keys(20_000))
            with use_fault_plan(plan):
                _traffic(pool, parallel_sample_sort, _keys(20_000, 1))
            assert plan.injected["shm.attach"] == plan.recovered["shm.attach"] == 1
            assert pool.phase_failures == 1

    def test_create_fault_on_regrow_is_retried(self):
        plan = FaultPlan.scripted({"shm.create": [0]})
        with WorkerPool(2, collect_timings=True) as pool:
            _traffic(pool, parallel_radix_sort, _keys(10_000))
            with use_fault_plan(plan):
                creates, _ = _traffic(pool, parallel_radix_sort, _keys(50_000))
            assert creates == N_DATA
            assert plan.injected["shm.create"] == plan.recovered["shm.create"] == 1

    def test_failed_regrow_leaves_a_usable_arena(self):
        """Every retry of a regrow failing: the old generation is already
        gone, the slab is empty, and the next sort grows it again."""
        before = _segments()
        plan = FaultPlan.scripted({"shm.create": [0, 1, 2]})
        with WorkerPool(2, collect_timings=True) as pool:
            _traffic(pool, parallel_radix_sort, _keys(10_000))
            with use_fault_plan(plan), pytest.raises(OSError, match="shm.create"):
                parallel_radix_sort(_keys(50_000), pool=pool)
            assert pool.arena.in_use() == 0
            assert _traffic(pool, parallel_radix_sort, _keys(50_000, 1))[0] >= N_DATA
            assert _traffic(pool, parallel_radix_sort, _keys(50_000, 2)) == (0, 0)
        assert _segments() == before


class TestMapRound:
    """``WorkerPool.map_arena`` is one ``_map_slabs_task`` message to
    each worker: a worker whose mapping failed is asked once more, and
    one that fails again is left to attach lazily -- the pool staying
    usable either way.  Workers are addressable (task ``i`` of a phase
    of ``n_workers`` tasks runs on worker ``i``), so the failing worker
    is arranged, not scripted."""

    @staticmethod
    def _one_new_slab(pool, worker0_failures: int):
        """Arm that many attach failures in worker 0, then lease one slab
        no worker holds yet; returns the slab's handles."""
        pool.run_phase(shm.fail_next_attach, [worker0_failures, 0])
        with pool.arena.buffers() as bufs:
            bufs.empty(64)
        return pool.arena.handles()

    @staticmethod
    def _messages(pool, monkeypatch) -> list[list]:
        """Log the payloads of every mapping round the pool sends."""
        sent, attempt = [], pool._attempt

        def logged(call, payloads):
            if call is pool_mod._map_slabs_task:
                sent.append(payloads)
            return attempt(call, payloads)

        monkeypatch.setattr(pool, "_attempt", logged)
        return sent

    def test_a_round_that_missed_a_worker_is_repeated(self, monkeypatch):
        with WorkerPool(2, collect_timings=True) as pool:
            handles = self._one_new_slab(pool, worker0_failures=1)
            sent = self._messages(pool, monkeypatch)
            assert pool.map_arena() == 1
            # Everyone was asked, then only the worker that failed.
            assert sent == [[handles, handles], [handles, ()]]
            pool.timings.clear()
            # Both rounds' attaches ride on the next timed phase, whose
            # own tasks find the slab mapped.
            assert pool.run_phase(_cache_size, range(2)) == [1, 1]
            pool.run_phase(_fresh_attaches, [handles] * 2)
            assert [t.attaches for t in pool.timings] == [(2, 0), (0, 0)]

    def test_a_covered_round_ends_it(self, monkeypatch):
        with WorkerPool(2) as pool:
            handles = self._one_new_slab(pool, worker0_failures=0)
            sent = self._messages(pool, monkeypatch)
            assert pool.map_arena() == 1
            assert pool.map_arena() == 0  # same slabs: nothing to map
            pool.run_phase(abs, [1, 2])
            assert sent == [[handles, handles]]

    def test_it_gives_up_and_leaves_the_pool_usable(self, monkeypatch):
        with WorkerPool(2, collect_timings=True) as pool:
            handles = self._one_new_slab(pool, worker0_failures=2)
            sent = self._messages(pool, monkeypatch)
            assert pool.map_arena() == 1 and len(sent) == 2
            assert pool.map_arena() == 0  # not asked a third time
            assert pool.run_phase(_cache_size, range(2)) == [0, 1]
            # Worker 0 was mapped nothing: its own task attaches, once.
            assert pool.run_phase(_fresh_attaches, [handles] * 2) == [1, 0]
            assert pool.run_phase(_fresh_attaches, [handles] * 2) == [0, 0]
            assert _traffic(pool, parallel_radix_sort, _keys(20_000))[0] > 0
            assert _traffic(pool, parallel_radix_sort, _keys(20_000, 1)) == (0, 0)

    @pytest.mark.chaos
    @pytest.mark.parametrize("supervise", [False, True])
    def test_a_worker_lost_in_the_round_is_lost_in_the_phase(
        self, supervise, monkeypatch, tmp_path
    ):
        """The round runs inside the phase attempt that needs it: a
        worker dying there is retried under supervision and raised
        without."""
        monkeypatch.setenv("REPRO_TEST_DIE_ONCE", str(tmp_path / "died"))
        monkeypatch.setattr("repro.native.pool._map_slabs_task", _die_once_then_map)
        keys = _keys(20_000)
        with WorkerPool(
            2, supervise=supervise, phase_timeout_s=10.0 if supervise else None
        ) as pool:
            if supervise:
                assert np.array_equal(
                    parallel_radix_sort(keys, pool=pool), np.sort(keys)
                )
                assert pool.phase_failures == 1
                assert pool.fault_log[0]["phase"] == "pass0.histogram"
            else:
                with pytest.raises(RuntimeError, match="exited mid-phase"):
                    parallel_radix_sort(keys, pool=pool)
                assert pool.arena.in_use() == 0

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_a_real_round_covers_every_worker(self, n_workers):
        with WorkerPool(n_workers, collect_timings=True) as pool:
            with pool.arena.buffers() as bufs:
                for _ in range(N_SLABS):
                    bufs.empty(64)
            assert pool.map_arena() == 1
            assert pool.run_phase(_cache_size, range(8)) == [N_SLABS] * 8
            assert pool.drain_attaches() == N_SLABS * n_workers
            assert pool.timings == [] and pool.drain_attaches() == 0


@pytest.fixture(scope="module")
def shared_pool():
    with WorkerPool(2) as pool:
        yield pool


class TestStaleContents:
    """Slabs are never cleared: whatever the previous sort left in them
    must not leak into a later, shorter, differently-typed result."""

    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from(["<i4", "<i8", "<u8", "<f8"]),
                st.sampled_from(["radix", "sample"]),
                st.integers(8, 3_000),
                st.integers(0, 2**32 - 1),
            ),
            min_size=2, max_size=6,
        )
    )
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_interleaved_sorts_on_one_pool(self, shared_pool, jobs):
        for dtype, algorithm, n, seed in jobs:
            rng = np.random.default_rng(seed)
            if dtype == "<f8":
                keys, algorithm = rng.standard_normal(n), "sample"
            elif dtype == "<u8":
                keys = rng.integers(0, 1 << 63, n, dtype=np.uint64)
            else:
                hi = np.iinfo(dtype).max
                keys = rng.integers(0, hi, n, dtype=np.int64).astype(dtype)
            out = SORTS[algorithm](keys, pool=shared_pool)
            assert out.dtype == keys.dtype
            assert np.array_equal(out, np.sort(keys))
