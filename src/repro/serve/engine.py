"""The sort engine: a persistent supervised pool behind a queue.

One engine owns the process-heavy state the server amortizes across
jobs: a supervised :class:`~repro.native.pool.WorkerPool` (whose worker
init also warms the active sort kernel, so a numba JIT compile never
lands inside a job) and that pool's shared-memory arena
(:mod:`repro.native.arena`), which the engine *reserves* at start: every
slab is created once at the configured size and the geometry is pinned,
so a job is refused by admission rather than regrowing a slab, and the
slab names the workers' attach caches memoize never change.  Jobs
execute one at a time on a dedicated thread (the server's single-lane
executor): within-job parallelism comes from the pool, between-job
concurrency from the queue, and the serial lane is what makes the
arena's two-data-slab budget and the fault plan's per-job attribution
exact.

``warmup`` runs attach-touch phases until every worker slot has executed
at least one touch task *and* a full round completes with zero fresh
attaches -- i.e. until every worker demonstrably holds every slab in its
cache -- so "steady state" is established by measurement, not hope.  After that,
each job's trace span (``serve.job`` on the ``PID_SERVE`` track) carries
the job's shared-memory create/attach counts, which are zero on the
steady-state path and nonzero exactly when a supervised rebuild replaced
workers (whose fresh caches must re-attach).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..faults.context import use_fault_plan
from ..faults.plan import FaultPlan
from ..native import Plan, plan_keys, run_plan, shm
from ..native.pool import WorkerPool, default_workers
from ..trace import PID_SERVE, TraceRecorder, current_recorder, use_recorder

#: Warmup gives up after this many touch rounds (a worker that never
#: gets scheduled a task in any of them is pathological).
MAX_WARMUP_ROUNDS = 20

#: Pause between warmup rounds while some worker has yet to run a touch
#: task: a freshly forked worker needs a moment to reach the task queue,
#: and without the pause a fast sibling can drain every round before the
#: slow one boots.
_WARMUP_ROUND_PAUSE_S = 0.1


def _touch_task(handles: tuple[tuple[str, tuple[int], str], ...]) -> int:
    """Resolve every slab handle (populating this worker's cache)."""
    for handle in handles:
        shm.resolve(handle)
    # Hold the slot briefly so one fast worker cannot drain the whole
    # round before its siblings pull their first task.
    time.sleep(0.01)
    return len(handles)


@dataclass(frozen=True)
class EngineOutcome:
    """One executed job, as the engine saw it."""

    sorted_keys: np.ndarray
    #: The plan that ran (the job's pinned algorithm, or the planner's).
    plan: Plan
    wall_s: float
    shm_creates: int
    shm_attaches: int
    phase_failures: int
    faults: dict[str, Any] | None


class SortEngine:
    """Runs sort jobs on the persistent pool, in its reserved arena."""

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        data_slab_bytes: int = 8 << 20,
        meta_slab_bytes: int = 4 << 20,
        fault_plan: FaultPlan | None = None,
        recorder: TraceRecorder | None = None,
        phase_timeout_s: float | None = 10.0,
    ):
        self.n_workers = n_workers if n_workers is not None else default_workers()
        self._plan = fault_plan
        self._recorder = recorder
        self.pool = WorkerPool(
            self.n_workers,
            collect_timings=True,
            supervise=True,
            phase_timeout_s=phase_timeout_s,
        )
        try:
            self.arena = self.pool.arena.reserve(data_slab_bytes, meta_slab_bytes)
        except BaseException:
            self.pool.close(force=True)
            raise
        self.warmup_rounds = 0
        self.jobs_run = 0
        self.steady_shm_creates = 0
        self.steady_shm_attaches = 0
        self._closed = False

    # ------------------------------------------------------------------
    def _drain_timing_attaches(self) -> int:
        """Sum and clear the pool's accumulated per-phase attach counts
        (the pool is long-lived; unbounded timing growth would leak)."""
        total = sum(sum(t.attaches) for t in self.pool.timings)
        self.pool.timings.clear()
        return total

    def warmup(self) -> int:
        """Prime every worker's attach cache; returns rounds needed.

        A round of touch tasks proves nothing about workers that did not
        run one -- a slow-booting worker can sit out a round its fast
        sibling drains -- so warmth requires *both* a zero-fresh-attach
        round and that every worker slot has executed at least one touch
        task across the rounds so far.
        """
        touch = self.arena.handles()
        self.pool.timings.clear()
        slots_seen: set[int] = set()
        for round_i in range(MAX_WARMUP_ROUNDS):
            self.pool.run_phase(
                _touch_task,
                [touch] * max(2, self.pool.n_workers * 2),
                name="serve.warmup",
            )
            self.warmup_rounds = round_i + 1
            for timing in self.pool.timings:
                slots_seen.update(timing.slots)
            attaches = self._drain_timing_attaches()
            covered = len(slots_seen) >= self.pool.n_workers
            if covered and attaches == 0:
                break
            if not covered:
                time.sleep(_WARMUP_ROUND_PAUSE_S)
        return self.warmup_rounds

    # ------------------------------------------------------------------
    @contextmanager
    def ambient(self) -> Iterator[None]:
        """Install the engine's recorder and fault plan around a body
        running on the engine thread (a job, or a stream session's run
        formation and merge)."""
        plan_ctx = (
            use_fault_plan(self._plan) if self._plan is not None else nullcontext()
        )
        with use_recorder(self._recorder), plan_ctx:
            yield

    def sort(
        self,
        keys: np.ndarray,
        algorithm: str | None = None,
        radix: int | None = None,
    ) -> tuple[np.ndarray, Plan]:
        """One sort as planned (``algorithm=None``) or pinned, returned
        with the plan that ran.  A parallel plan runs on the pool in its
        arena's slabs; ``sequential`` is one ``np.sort`` on the engine
        thread."""
        p = self.pool.n_workers
        # The widest digit whose p x 2**r int64 histogram a meta slab
        # holds caps a *planned* radix (admission refuses a pinned one
        # past it as ``bad-radix``).
        max_radix = (self.arena.meta_bytes // (8 * p)).bit_length() - 1
        chosen = plan_keys(keys, p, algorithm, radix, max_radix=max_radix)
        return run_plan(keys, chosen, pool=self.pool), chosen

    def run(
        self,
        job_id: str,
        keys: np.ndarray,
        algorithm: str | None = None,
        radix: int | None = None,
        queue_wait_s: float | None = None,
    ) -> EngineOutcome:
        """Execute one job; never creates segments on the steady-state
        path (asserted by the emitted trace span)."""
        if self._closed:
            raise RuntimeError("engine is closed")
        creates_before = shm.create_count()
        stats_before = self._plan.stats() if self._plan is not None else None
        failures_before = self.pool.phase_failures
        t0 = time.perf_counter()
        with self.ambient():
            out, chosen = self.sort(keys, algorithm, radix)
            t1 = time.perf_counter()
            attaches = self._drain_timing_attaches()
            creates = shm.create_count() - creates_before
            rec = current_recorder()
            if rec.enabled:
                rec.complete(
                    "serve.job",
                    cat="serve.job",
                    ts_us=t0 * 1e6,
                    dur_us=(t1 - t0) * 1e6,
                    pid=PID_SERVE,
                    tid=0,
                    args={
                        "job_id": job_id,
                        "algorithm": algorithm,
                        "plan": chosen.public(),
                        "n_keys": int(len(keys)),
                        "shm_creates": creates,
                        "shm_attaches": attaches,
                        "queue_wait_ms": (
                            None if queue_wait_s is None else queue_wait_s * 1e3
                        ),
                    },
                )
        self.jobs_run += 1
        self.steady_shm_creates += creates
        self.steady_shm_attaches += attaches
        faults = None
        if self._plan is not None and stats_before is not None:
            delta = self._plan.stats().since(stats_before)
            faults = {
                "injected": dict(delta.injected),
                "recovered": dict(delta.recovered),
            }
        return EngineOutcome(
            sorted_keys=out,
            plan=chosen,
            wall_s=t1 - t0,
            shm_creates=creates,
            shm_attaches=attaches,
            phase_failures=self.pool.phase_failures - failures_before,
            faults=faults,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        from ..native.kernels import resolve as resolve_kernel

        return {
            "n_workers": self.pool.n_workers,
            "kernel": resolve_kernel().name,
            "jobs_run": self.jobs_run,
            "warmup_rounds": self.warmup_rounds,
            "steady_shm_creates": self.steady_shm_creates,
            "steady_shm_attaches": self.steady_shm_attaches,
            "phase_failures": self.pool.phase_failures,
            "arena": self.arena.stats(),
        }

    def close(self, force: bool = False) -> None:
        """Reap workers and unlink every slab; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        self.pool.close(force=force)

    def __enter__(self) -> "SortEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(force=exc_type is not None)
