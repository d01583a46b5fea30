"""Negative tests for the supervised pool: every pool fault path must
recover (or fail cleanly) with output identical to ``np.sort``."""

import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultPlan, use_fault_plan
from repro.native import parallel_radix_sort, parallel_sample_sort
from repro.native.pool import PhaseError, WorkerPool

pytestmark = pytest.mark.chaos


def _keys(seed, n=20_000):
    return np.random.default_rng(seed).integers(
        0, 1 << 24, size=n, dtype=np.int64
    )


def _boom(_task):
    raise ZeroDivisionError("always fails")


def _die(_task):
    os.kill(os.getpid(), signal.SIGKILL)


class TestCrashRecovery:
    def test_sigkill_mid_phase_retried(self):
        """A worker SIGKILLed at task start is replaced and the phase
        re-run; the sorted output still equals np.sort."""
        keys = _keys(0)
        plan = FaultPlan.scripted({"pool.worker.crash": [0]})
        with use_fault_plan(plan):
            with WorkerPool(4, supervise=True, phase_timeout_s=10.0) as pool:
                out = parallel_radix_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))
        assert plan.injected["pool.worker.crash"] == 1
        assert plan.recovered["pool.worker.crash"] == 1
        assert pool.phase_failures == 1
        assert pool.fault_log[0]["action"] == "retry"

    def test_crash_during_sample_sort(self):
        """Sample sort's phases are double-buffered, so re-running one
        after a mid-phase kill is idempotent."""
        keys = _keys(1)
        plan = FaultPlan.scripted({"pool.worker.crash": [2]})
        with use_fault_plan(plan):
            with WorkerPool(4, supervise=True, phase_timeout_s=10.0) as pool:
                out = parallel_sample_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))
        assert plan.stats().all_recovered


class TestTimeoutAndShrink:
    def test_hang_hits_timeout_and_completes(self):
        keys = _keys(2)
        plan = FaultPlan.scripted({"pool.worker.hang": [0]}, hang_s=30.0)
        with use_fault_plan(plan):
            with WorkerPool(4, supervise=True, phase_timeout_s=0.5) as pool:
                out = parallel_radix_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))
        assert plan.recovered["pool.worker.hang"] == 1
        assert any("Timeout" in r["reason"] for r in pool.fault_log)

    def test_repeated_failures_shrink_pool(self, monkeypatch):
        """Graceful degradation: after SHRINK_AFTER failures the pool is
        rebuilt with half the workers and still finishes the sort."""
        monkeypatch.setattr("repro.native.pool.SHRINK_AFTER", 1)
        keys = _keys(3)
        plan = FaultPlan.scripted({"pool.worker.hang": [0]}, hang_s=30.0)
        with use_fault_plan(plan):
            with WorkerPool(4, supervise=True, phase_timeout_s=0.5) as pool:
                out = parallel_radix_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))
        assert pool.n_workers == 2  # halved from 4
        assert any(r["action"] == "shrink" for r in pool.fault_log)

    def test_shrink_respects_min_workers(self, monkeypatch):
        monkeypatch.setattr("repro.native.pool.SHRINK_AFTER", 1)
        monkeypatch.setattr("repro.native.pool.MIN_WORKERS", 2)
        plan = FaultPlan.scripted(
            {"pool.worker.crash": [0, 4]}  # one crash on each of 2 attempts
        )
        keys = _keys(4)
        with use_fault_plan(plan):
            with WorkerPool(4, supervise=True, phase_timeout_s=10.0) as pool:
                out = parallel_radix_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))
        assert pool.n_workers >= 2


class TestAttachFailure:
    def test_unsupervised_attach_failure_is_clean(self):
        """Without supervision an injected attach failure propagates as
        a plain OSError -- and leaks no shared-memory segment."""
        shm_dir = Path("/dev/shm")
        before = {p.name for p in shm_dir.glob("psm_*")}
        keys = _keys(5)
        plan = FaultPlan.scripted({"shm.attach": [0]})
        with use_fault_plan(plan):
            with WorkerPool(2) as pool:
                with pytest.raises(OSError, match="injected shm.attach"):
                    parallel_radix_sort(keys, pool=pool)
        after = {p.name for p in shm_dir.glob("psm_*")}
        assert after - before == set()

    def test_supervised_attach_failure_recovers(self):
        keys = _keys(6)
        plan = FaultPlan.scripted({"shm.attach": [1]})
        with use_fault_plan(plan):
            with WorkerPool(4, supervise=True, phase_timeout_s=10.0) as pool:
                out = parallel_sample_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))
        assert plan.recovered["shm.attach"] == 1


class TestStraggler:
    def test_slow_worker_absorbed_without_retry(self):
        """A slowdown is not a failure: the phase barrier simply waits."""
        keys = _keys(7)
        plan = FaultPlan.scripted({"pool.worker.slow": [0]}, slow_s=0.05)
        with use_fault_plan(plan):
            with WorkerPool(4, supervise=True, phase_timeout_s=10.0) as pool:
                out = parallel_radix_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))
        assert pool.phase_failures == 0
        assert plan.recovered["pool.worker.slow"] == 1


class TestSupervisionSemantics:
    def test_supervised_pool_without_plan_is_transparent(self):
        with WorkerPool(2, supervise=True, phase_timeout_s=5.0) as pool:
            assert pool.run_phase(abs, [-1, -2, -3]) == [1, 2, 3]
        assert pool.phase_failures == 0

    def test_persistent_failure_raises_phase_error(self, monkeypatch):
        """A genuinely broken task exhausts the retries and surfaces as
        PhaseError carrying the original cause."""
        monkeypatch.setattr("repro.native.pool.MAX_PHASE_RETRIES", 1)
        with WorkerPool(2, supervise=True) as pool:
            with pytest.raises(PhaseError) as info:
                pool.run_phase(_boom, [1, 2], name="doomed")
        assert info.value.phase == "doomed"
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, ZeroDivisionError)

    def test_unsupervised_exception_propagates_unchanged(self):
        """Regression guard: the pre-existing error contract (the raw
        exception, not PhaseError) must survive the supervision rework."""
        with WorkerPool(2) as pool:
            with pytest.raises(ZeroDivisionError):
                pool.run_phase(_boom, [1])

    def test_unsupervised_worker_death_raises_promptly(self):
        """One runner watches the workers on every pool: a worker that
        exits mid-phase fails an unsupervised phase at once -- no retry,
        no rebuild -- where ``Pool.map`` used to block forever, and the
        pool can still be closed (the lost task would otherwise hang a
        graceful ``close``)."""
        seen = []

        def phase():
            with WorkerPool(2) as pool:
                try:
                    pool.run_phase(_die, [1, 2], name="doomed")
                except RuntimeError as exc:
                    seen.append((exc, pool.phase_failures, list(pool.fault_log)))
            seen.append("closed")

        thread = threading.Thread(target=phase, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "blocked on a dead worker"
        (exc, failures, log), closed = seen
        assert "worker process exited mid-phase" in str(exc)
        assert not isinstance(exc, PhaseError)
        assert (failures, log, closed) == (0, [], "closed")

    def test_final_attempt_never_draws_faults(self):
        """Convergence guarantee: with retries exhausted, the last
        attempt suppresses new fault directives, so even a rate-1.0
        crash plan cannot starve a supervised phase forever."""
        keys = _keys(8)
        plan = FaultPlan(0, {"pool.worker.crash": 1.0})  # no cap!
        with use_fault_plan(plan):
            with WorkerPool(2, supervise=True, phase_timeout_s=10.0) as pool:
                out = parallel_radix_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))

    def test_inline_pool_never_crashes_parent(self):
        """A serial (inline) pool must never execute crash directives --
        they would SIGKILL the test process itself."""
        keys = _keys(9, n=64)
        plan = FaultPlan(0, {"pool.worker.crash": 1.0})
        with use_fault_plan(plan):
            with WorkerPool(1, supervise=True) as pool:
                out = parallel_radix_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))
        assert plan.injected.get("pool.worker.crash", 0) == 0
