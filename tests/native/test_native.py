"""Native multiprocessing sort tests (real parallelism on the host)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.native import (
    PhaseTiming,
    SharedArray,
    WorkerPool,
    parallel_radix_sort,
    parallel_sample_sort,
    parallel_sort,
    shm,
)
from repro.native.pool import default_start_method, default_workers
from repro.trace import MemoryRecorder, use_recorder


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(4) as p:
        yield p


def _assert_reaped(pids):
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):  # not even a zombie
            os.kill(pid, 0)


def _one_over(x):
    return 1 // x


class TestSharedArray:
    def test_roundtrip(self):
        """A worker's view of a block (``shm.resolve`` of its handle)
        shares memory with the owner's array."""
        src = np.arange(100, dtype=np.int32)
        with SharedArray(100, np.int32) as sa:
            sa.array[:] = src
            view = shm.resolve((sa.name, (100,), "<i4"))
            assert np.array_equal(view, src)
            view[0] = 42
            del view
            shm.forget(sa.name)
            assert sa.array[0] == 42

    def test_double_close_safe(self):
        sa = SharedArray(10)
        sa.close()
        sa.close()


class TestAttachTracking:
    def test_concurrent_attaches_restore_register(self):
        """Regression (bpo-38119 workaround): attach used to monkey-patch
        ``resource_tracker.register`` without a lock, so two threads
        attaching concurrently could save each other's no-op as "the
        original" and leave registration permanently disabled.  After any
        number of concurrent attaches the real function must be back."""
        import threading
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        errors = []
        with SharedArray(256) as sa:
            sa.array[:] = np.arange(256)

            def attach_loop():
                try:
                    for _ in range(40):
                        mapping = shm._attach_untracked(sa.name)
                        assert mapping.buf[0] == 0
                        mapping.close()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=attach_loop) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert resource_tracker.register is original

    def test_attach_does_not_register_with_tracker(self):
        """A worker-side attach must not register the segment: under
        fork the tracker is shared with the owner, and a second
        registration makes unlink bookkeeping fight the owner's."""
        from multiprocessing import resource_tracker

        registered = []
        original = resource_tracker.register

        def spy(name, rtype):
            registered.append((name, rtype))
            return original(name, rtype)

        with SharedArray(16) as sa:
            resource_tracker.register = spy
            try:
                shm.resolve((sa.name, (16,), "<i8"))
                shm.forget(sa.name)
            finally:
                resource_tracker.register = original
        assert registered == []


class TestWorkerPool:
    def test_map_semantics(self, pool):
        assert pool.run_phase(abs, [-1, -2, 3]) == [1, 2, 3]

    def test_single_worker_inline(self):
        with WorkerPool(1) as p:
            assert p.run_phase(abs, [-5]) == [5]

    def test_closed_pool_rejected(self):
        p = WorkerPool(1)
        p.close()
        with pytest.raises(RuntimeError):
            p.run_phase(abs, [1])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_context_manager_not_reusable(self):
        p = WorkerPool(1)
        with p:
            pass
        with pytest.raises(RuntimeError):
            p.run_phase(abs, [1])
        with pytest.raises(RuntimeError):
            with p:
                pass

    def test_serial_path_collects_timings(self):
        with WorkerPool(1, collect_timings=True) as p:
            assert p.run_phase(abs, [-1, -2], name="x") == [1, 2]
            assert p.run_phase(abs, [-3]) == [3]
        assert [t.name for t in p.timings] == ["x", "phase2"]
        t = p.timings[0]
        assert isinstance(t, PhaseTiming)
        assert len(t.tasks) == 2
        assert t.elapsed_s >= 0
        for begin, end in t.tasks:
            assert t.begin <= begin <= end <= t.end

    def test_parallel_path_collects_timings(self):
        with WorkerPool(2, collect_timings=True) as p:
            p.run_phase(abs, [-1, -2, -3, -4], name="y")
        (t,) = p.timings
        assert t.name == "y" and len(t.tasks) == 4

    def test_untimed_pool_keeps_no_timings(self, pool):
        pool.run_phase(abs, [-1])
        assert pool.timings == []

    def test_task_slots_bounded_by_n_workers(self):
        """Regression: task trace spans used to be attributed by *task*
        index, so a phase of 8 tasks on 2 workers emitted tids 1..8."""
        rec = MemoryRecorder()
        with use_recorder(rec), WorkerPool(2, collect_timings=True) as p:
            p.run_phase(abs, list(range(-8, 0)), name="bounded")
        spans = [e for e in rec.events if e.cat == "native.task"]
        assert len(spans) == 8
        assert {e.tid for e in spans} <= {1, 2}
        (t,) = p.timings
        assert len(t.slots) == 8
        assert set(t.slots) <= {1, 2}

    def test_slots_stable_across_phases(self):
        with WorkerPool(2, collect_timings=True) as p:
            p.run_phase(abs, [-1, -2, -3, -4], name="a")
            p.run_phase(abs, [-5, -6, -7, -8], name="b")
        seen = set(p.timings[0].slots) | set(p.timings[1].slots)
        assert seen <= {1, 2}

    def test_serial_pool_slot_is_one(self):
        with WorkerPool(1, collect_timings=True) as p:
            p.run_phase(abs, [-1, -2], name="serial")
        assert p.timings[0].slots == (1, 1)

    def test_exception_terminates_workers(self):
        """Regression: a phase raising inside ``with`` used to leave the
        forked workers alive (``__exit__`` only close()d the queue)."""
        p = WorkerPool(2)
        pids = p.worker_pids
        with pytest.raises(ZeroDivisionError):
            with p:
                p.run_phase(_one_over, [0])
        assert p._closed
        _assert_reaped(pids)

    def test_terminate_reaps_workers(self):
        p = WorkerPool(2)
        pids = p.worker_pids
        p.close(force=True)
        assert p._closed and p.worker_pids == ()
        _assert_reaped(pids)

    def test_start_method_fallback(self, monkeypatch):
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods",
            lambda: ["spawn", "forkserver"],
        )
        assert default_start_method() == "spawn"

    def test_start_method_prefers_fork(self, monkeypatch):
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods",
            lambda: ["fork", "spawn", "forkserver"],
        )
        assert default_start_method() == "fork"

    def test_pool_records_start_method(self, pool):
        assert pool.start_method in ("fork", "spawn")

    def test_spawn_pool_sorts(self):
        """The spawn code path must work end to end (it is the fallback
        on fork-less platforms)."""
        ctx_methods = ["spawn"]
        import repro.native.pool as pool_mod

        real = pool_mod.mp.get_all_start_methods
        pool_mod.mp.get_all_start_methods = lambda: ctx_methods
        try:
            with WorkerPool(2) as p:
                assert p.start_method == "spawn"
                assert p.run_phase(abs, [-1, -2, -3]) == [1, 2, 3]
        finally:
            pool_mod.mp.get_all_start_methods = real


class TestDefaultWorkers:
    def test_respects_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 48)
        assert default_workers() == 48  # no artificial cap

    def test_cpu_count_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert default_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_env_override_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_pool_uses_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        with WorkerPool() as p:
            assert p.n_workers == 2


class TestParallelRadix:
    def test_sorts_random(self, pool):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 1 << 31, size=50_000, dtype=np.int64)
        out = parallel_radix_sort(arr, pool=pool)
        assert np.array_equal(out, np.sort(arr))
        assert np.array_equal(arr, arr)  # input untouched

    def test_sorts_duplicates(self, pool):
        arr = np.tile(np.array([3, 1, 2], dtype=np.int64), 1000)
        out = parallel_radix_sort(arr, pool=pool)
        assert np.array_equal(out, np.sort(arr))

    def test_small_and_empty(self, pool):
        assert parallel_radix_sort(np.empty(0, dtype=np.int64), pool=pool).size == 0
        assert list(parallel_radix_sort(np.array([2, 1]), pool=pool)) == [1, 2]

    def test_uint32(self, pool):
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 1 << 32, size=10_000, dtype=np.uint32)
        out = parallel_radix_sort(arr, pool=pool)
        assert np.array_equal(out, np.sort(arr))

    def test_rejects_negative(self, pool):
        with pytest.raises(ValueError):
            parallel_radix_sort(np.array([-1, 2]), pool=pool)

    def test_rejects_floats(self, pool):
        with pytest.raises(TypeError):
            parallel_radix_sort(np.array([1.5]), pool=pool)

    def test_rejects_bad_radix(self, pool):
        with pytest.raises(ValueError):
            parallel_radix_sort(np.array([1, 2]), radix=0, pool=pool)

    @given(st.lists(st.integers(0, 2**31 - 1), max_size=300))
    @settings(max_examples=15, deadline=None)
    def test_matches_numpy(self, values):
        arr = np.array(values, dtype=np.int64)
        out = parallel_radix_sort(arr, n_workers=2)
        assert np.array_equal(out, np.sort(arr))


class TestParallelSample:
    def test_sorts_random(self, pool):
        rng = np.random.default_rng(2)
        arr = rng.integers(-(1 << 30), 1 << 30, size=50_000, dtype=np.int64)
        out = parallel_sample_sort(arr, pool=pool)
        assert np.array_equal(out, np.sort(arr))

    def test_sorts_floats(self, pool):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=20_000)
        out = parallel_sample_sort(arr, pool=pool)
        assert np.array_equal(out, np.sort(arr))

    def test_all_equal(self, pool):
        arr = np.zeros(10_000, dtype=np.int64)
        out = parallel_sample_sort(arr, pool=pool)
        assert np.array_equal(out, arr)

    def test_presorted_and_reversed(self, pool):
        arr = np.arange(10_000, dtype=np.int64)
        assert np.array_equal(parallel_sample_sort(arr, pool=pool), arr)
        assert np.array_equal(parallel_sample_sort(arr[::-1].copy(), pool=pool), arr)

    def test_small_falls_back(self, pool):
        arr = np.array([3, 1, 2], dtype=np.int64)
        assert list(parallel_sample_sort(arr, pool=pool)) == [1, 2, 3]

    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=15, deadline=None)
    def test_matches_numpy(self, values):
        arr = np.array(values, dtype=np.int64)
        out = parallel_sample_sort(arr, n_workers=2)
        assert np.array_equal(out, np.sort(arr))


class TestFrontDoor:
    def test_dispatch(self, pool):
        arr = np.array([5, 3, 4], dtype=np.int64)
        assert list(parallel_sort(arr, "radix", pool=pool)) == [3, 4, 5]
        assert list(parallel_sort(arr, "sample", pool=pool)) == [3, 4, 5]
        with pytest.raises(ValueError):
            parallel_sort(arr, "quick", pool=pool)
