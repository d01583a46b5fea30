"""The sort engine: a persistent supervised pool behind a queue.

One engine owns the process-heavy state the server amortizes across
jobs: a supervised :class:`~repro.native.pool.WorkerPool` and that pool's
shared-memory arena (:mod:`repro.native.arena`), which the engine
*reserves* at start: every slab is created once at the configured size
and the geometry is pinned, so a job is refused by admission rather than
regrowing a slab, and the slab names the workers' attach caches memoize
never change.  Jobs
execute one at a time on a dedicated thread (the server's single-lane
executor): within-job parallelism comes from the pool, between-job
concurrency from the queue, and the serial lane is what makes the
arena's two-data-slab budget and the fault plan's per-job attribution
exact.

``warmup`` is the pool's own mapping round
(:meth:`~repro.native.pool.WorkerPool.map_arena`): one message to each
worker, answered when it has mapped all four reserved slabs, so "steady
state" is established by proof, not hope.  After
that, each job's trace span (``serve.job`` on the ``PID_SERVE`` track)
carries the job's shared-memory create/attach counts, which are zero on
the steady-state path and nonzero exactly when a supervised rebuild
replaced workers (whose fresh caches must re-attach).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Any, Iterator

import numpy as np

from ..faults.context import fault_window, use_fault_plan
from ..faults.plan import FaultPlan
from ..native import Plan, plan_keys, run_plan, shm
from ..native.plan import widest_radix
from ..native.pool import WorkerPool, default_workers
from ..trace import PID_SERVE, TraceRecorder, current_recorder, use_recorder, wall_span


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
    def warmup(self) -> int:
        """Map every reserved slab into every worker; returns the rounds
        it took (1; 0 when they were mapped already; a worker lost
        meanwhile raises -- start-up fails loudly).  What the workers
        attach here is set-up, not any job's traffic."""
        self.warmup_rounds = self.pool.map_arena()
        self.pool.drain_attaches()
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
        # A *planned* radix is capped at what a meta slab holds
        # (admission refuses a pinned one past it as ``bad-radix``).
        chosen = plan_keys(
            keys, p, algorithm, radix,
            max_radix=widest_radix(self.arena.meta_bytes, p),
        )
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
        failures_before = self.pool.phase_failures
        t0 = time.perf_counter()
        with self.ambient():
            job_faults = fault_window()
            out, chosen = self.sort(keys, algorithm, radix)
            t1 = time.perf_counter()
            attaches = self.pool.drain_attaches()
            creates = shm.create_count() - creates_before
            if current_recorder().enabled:
                wall_span(
                    "serve.job", "serve.job", t0, t1, pid=PID_SERVE,
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
            delta = job_faults()
        self.jobs_run += 1
        self.steady_shm_creates += creates
        self.steady_shm_attaches += attaches
        return EngineOutcome(
            sorted_keys=out,
            plan=chosen,
            wall_s=t1 - t0,
            shm_creates=creates,
            shm_attaches=attaches,
            phase_failures=self.pool.phase_failures - failures_before,
            # Only the engine's own plan is reported, never an outer one.
            faults=None if self._plan is None else asdict(delta),
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "n_workers": self.pool.n_workers,
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
