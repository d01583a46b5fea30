"""The pool's dispatch: one message per task to a worker the pool owns,
one wait on pipes and sentinels -- and workers that outlive neither the
pool nor the parent.

Anything that could block forever runs on a thread joined with a
timeout (there is no ``pytest-timeout`` here).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.faults import FaultPlan, use_fault_plan
from repro.native import WorkerPool, parallel_radix_sort, shm
from repro.native.pool import PhaseError, ReplyError

def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (a zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _gone(pids, within_s: float) -> bool:
    deadline = time.monotonic() + within_s
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.02)
    return not any(map(_alive, pids))


def _bounded(fn, timeout_s: float = 30.0):
    """``fn()`` on a thread; fails the test if it is still running after
    ``timeout_s``, else returns what it returned or raises what it raised."""
    box = []

    def run():
        try:
            box.append((True, fn()))
        except BaseException as exc:
            box.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"still blocked after {timeout_s}s"
    ok, value = box[0]
    if not ok:
        raise value
    return value


def _square(x):
    return x * x


def _echo(payload):
    return payload


def _raise_x(_task):
    raise ValueError("x")


def _unpicklable(_task):
    return lambda: 0


class _TwoArgError(Exception):
    """Pickles (by ``args``), but cannot be rebuilt from them."""

    def __init__(self, a, b):
        super().__init__(f"{a}{b}")


def _raise_two_arg(_task):
    raise _TwoArgError("a", "b")


def _die_once_or_nap(task):
    """A float naps that long.  A marker path stamps the clock into the
    file and SIGKILLs the worker -- the first time; later calls return."""
    if isinstance(task, float):
        time.sleep(task)
        return "napped"
    try:
        fd = os.open(task, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return "survived"
    os.write(fd, repr(time.perf_counter()).encode())
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _cache_size(_task):
    return len(shm._attach_cache)


def _note_times(pool, monkeypatch) -> list[float]:
    """Clock readings of the pool's supervised failure records."""
    noted, note = [], pool._note_failure

    def stamped(*args):
        noted.append(time.perf_counter())
        note(*args)

    monkeypatch.setattr(pool, "_note_failure", stamped)
    return noted


class TestAssignment:
    @pytest.mark.parametrize("n", [2, 4])
    def test_results_in_task_order_on_addressed_workers(self, n):
        with WorkerPool(n, collect_timings=True) as pool:
            for count in (1, n, n + 1, 100):
                tasks = list(range(count))
                assert pool.run_phase(_square, tasks) == [t * t for t in tasks]
                slots = pool.timings[-1].slots
                assert len(slots) == count
                # The first n tasks go to workers 0..n-1 in order, later
                # ones to whoever answers first.
                assert slots[:n] == tuple(range(1, min(n, count) + 1))
                assert set(slots) <= set(range(1, n + 1))

    def test_a_phase_driven_from_a_thread_while_main_spins(self):
        """The server's shape: the engine thread runs the phases while
        the main thread holds the GIL for something else."""
        keys = np.random.default_rng(0).integers(0, 1 << 24, 10_000)
        results = []

        def drive():
            for _ in range(20):
                results.append(pool.run_phase(_square, range(5)))
            results.append(parallel_radix_sort(keys, pool=pool))

        with WorkerPool(2) as pool:
            thread = threading.Thread(target=drive, daemon=True)
            thread.start()
            deadline = time.monotonic() + 60
            while thread.is_alive() and time.monotonic() < deadline:
                sum(i * i for i in range(2_000))  # pure-Python spin
            assert not thread.is_alive()
        assert results[:-1] == [[0, 1, 4, 9, 16]] * 20
        assert np.array_equal(results[-1], np.sort(keys))

    @pytest.mark.parametrize("n", [2, 4])
    def test_messages_larger_than_a_pipe_buffer(self, n):
        """1 MiB each way on every worker at once, twice over: the
        parent only writes to a worker that is reading."""
        payloads = [bytes([i]) * (1 << 20) for i in range(2 * n)]
        with WorkerPool(n) as pool:
            assert _bounded(lambda: pool.run_phase(_echo, payloads)) == payloads


class TestTaskFailures:
    def test_exception_reraised_unchanged_and_pool_goes_on(self):
        with WorkerPool(2) as pool:
            pids = pool.worker_pids
            with pytest.raises(ValueError) as info:
                pool.run_phase(_raise_x, [1, 2, 3])
            assert info.value.args == ("x",)
            # Where it was raised in the worker travels along.
            assert "_raise_x" in info.value.__notes__[0]
            assert pool.run_phase(_square, [3, 4, 5]) == [9, 16, 25]
            assert pool.worker_pids == pids

    def test_supervised_exception_is_the_phase_errors_cause(self, monkeypatch):
        monkeypatch.setattr("repro.native.pool.MAX_PHASE_RETRIES", 1)
        monkeypatch.setattr("repro.native.pool.RETRY_BACKOFF_S", 0.0)
        with WorkerPool(2, supervise=True, phase_timeout_s=10.0) as pool:
            with pytest.raises(PhaseError) as info:
                pool.run_phase(_raise_x, [1, 2], name="doomed")
            assert isinstance(info.value.cause, ValueError)
            assert info.value.cause.args == ("x",) and info.value.attempts == 2
            assert pool.run_phase(_square, [3, 4, 5]) == [9, 16, 25]

    def test_an_unpicklable_result_fails_its_phase_only(self):
        """The worker's loop survives a result it cannot send."""
        with WorkerPool(2) as pool:
            pids = pool.worker_pids
            with pytest.raises(ReplyError, match="result cannot be pickled"):
                _bounded(lambda: pool.run_phase(_unpicklable, [1, 2]))
            assert pool.run_phase(_square, [3, 4, 5]) == [9, 16, 25]
            assert pool.worker_pids == pids

    def test_a_reply_the_parent_cannot_rebuild_leaves_a_usable_pool(self):
        """An exception that pickles but does not unpickle surfaces as
        the unpickling error; no stale reply meets the next phase."""
        with WorkerPool(2) as pool:
            with pytest.raises(TypeError, match="_TwoArgError"):
                _bounded(lambda: pool.run_phase(_raise_two_arg, [1, 2]))
            assert pool.run_phase(_square, [3, 4, 5]) == [9, 16, 25]


@pytest.mark.chaos
class TestWorkerLoss:
    #: The loss must reach the caller in well under the 20 ms the old
    #: exit-code poll took; the bound is generous for a loaded host and
    #: still far below the sibling's 2 s nap it must not wait out.
    PROMPT_S = 0.5

    def test_unsupervised_loss_fails_the_phase_at_once(self, tmp_path):
        marker = str(tmp_path / "died")
        with WorkerPool(2) as pool:
            lost = r"exited mid-phase \(task lost\)"
            with pytest.raises(RuntimeError, match=lost) as info:
                _bounded(lambda: pool.run_phase(_die_once_or_nap, [marker, 2.0]))
            raised = time.perf_counter()
            assert not isinstance(info.value, PhaseError)
            assert raised - float(Path(marker).read_text()) < self.PROMPT_S
            assert (pool.phase_failures, pool.fault_log) == (0, [])
            # The sibling that still held a task went with the attempt.
            assert pool.worker_pids == ()
            assert pool.run_phase(_die_once_or_nap, [marker, 0.0]) == [
                "survived", "napped",
            ]

    def test_supervised_loss_is_retried_at_once(self, tmp_path, monkeypatch):
        marker = str(tmp_path / "died")
        with WorkerPool(2, supervise=True, phase_timeout_s=30.0) as pool:
            noted = _note_times(pool, monkeypatch)
            out = _bounded(lambda: pool.run_phase(_die_once_or_nap, [marker, 0.3]))
            assert out == ["survived", "napped"]
            assert noted[0] - float(Path(marker).read_text()) < self.PROMPT_S
            assert pool.phase_failures == 1
            assert "exited mid-phase (task lost)" in pool.fault_log[0]["reason"]

    def test_a_hang_ends_at_the_phase_timeout(self, monkeypatch):
        plan = FaultPlan.scripted({"pool.worker.hang": [0]}, hang_s=30.0)
        with WorkerPool(2, supervise=True, phase_timeout_s=0.4) as pool:
            noted = _note_times(pool, monkeypatch)
            begin = time.perf_counter()
            with use_fault_plan(plan):
                assert _bounded(lambda: pool.run_phase(abs, [-1, -2])) == [1, 2]
            assert 0.4 <= noted[0] - begin < 0.4 + self.PROMPT_S
            assert "Timeout" in pool.fault_log[0]["reason"]

    def test_replaced_workers_attach_each_slab_exactly_once(self):
        def traffic(seed):
            pool.timings.clear()
            keys = np.random.default_rng(seed).integers(0, 1 << 31, 20_000)
            assert np.array_equal(parallel_radix_sort(keys, pool=pool), np.sort(keys))
            return sum(sum(t.attaches) for t in pool.timings)

        plan = FaultPlan.scripted({"pool.worker.crash": [0]})
        with WorkerPool(
            2, collect_timings=True, supervise=True, phase_timeout_s=10.0
        ) as pool:
            before = pool.worker_pids
            first = traffic(0)
            slabs = len(pool.arena.slab_names)
            assert first == 2 * slabs and traffic(1) == 0
            with use_fault_plan(plan):
                assert traffic(2) == 2 * slabs
            assert pool.phase_failures == 1
            assert not set(pool.worker_pids) & set(before)
            assert pool.run_phase(_cache_size, range(2)) == [slabs] * 2
            assert traffic(3) == 0


_ORPHAN_SCRIPT = """
import sys, time
import repro.native.pool as pool_mod

if __name__ == "__main__":
    pool_mod.default_start_method = lambda: sys.argv[1]
    pool = pool_mod.WorkerPool(2)
    assert pool.start_method == sys.argv[1] and pool.run_phase(abs, [-1, -2]) == [1, 2]
    print(*pool.worker_pids, flush=True)
    time.sleep(60)
"""


class TestLifetime:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_no_worker_outlives_a_killed_parent(self, start_method, tmp_path):
        """Every holder of the parent's end of a worker's pipe dies with
        the parent, so the worker reads end of file and exits."""
        script = tmp_path / "orphan.py"
        script.write_text(_ORPHAN_SCRIPT)
        src = str(Path(repro.__file__).resolve().parents[1])
        parent = subprocess.Popen(
            [sys.executable, str(script), start_method],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            pids = [int(p) for p in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(map(_alive, pids))
        finally:
            parent.kill()
            parent.wait(30)
            parent.stdout.close()
        assert _gone(pids, within_s=2.0)

    @pytest.mark.parametrize("force", [False, True], ids=["close", "force"])
    def test_close_reaps_a_dead_and_a_stopped_worker(self, force):
        pool = WorkerPool(2)
        dead, stopped = pids = pool.worker_pids
        os.kill(dead, signal.SIGKILL)
        os.kill(stopped, signal.SIGSTOP)
        begin = time.monotonic()
        _bounded(lambda: pool.close(force=force))
        assert time.monotonic() - begin < 5.0
        assert pool.worker_pids == () and not any(map(_alive, pids))
        with pytest.raises(ProcessLookupError):  # reaped, not a zombie
            os.kill(stopped, 0)
