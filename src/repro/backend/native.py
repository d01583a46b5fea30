"""The native (actually-parallel) backend.

Wraps :mod:`repro.native` behind the :class:`~repro.backend.base.Backend`
seam and gives it real performance accounting: every pool phase is timed
per worker (in-task wall clock = BUSY) and in the parent (phase span), so
the barrier wait each worker spends idle behind stragglers -- plus the
parent's between-phase coordination (offset/splitter computation) --
becomes SYNC.  The result is a :class:`~repro.smp.perf.PerfReport` with
the same shape the simulated backend emits; LMEM/RMEM stay zero because a
host process cannot observe its own cache misses, mirroring the paper's
note that its CC-SAS tools could not separate memory categories either.
"""

from __future__ import annotations

import time

import numpy as np

from ..faults.context import current_fault_plan, fault_window
from ..native import parallel_sort
from ..native.pool import PhaseTiming, WorkerPool, POOL_TID
from ..smp.perf import PerfCounters, PerfReport, PhaseRecord
from ..trace import PID_NATIVE, TraceRecorder, current_recorder, use_recorder, wall_span
from ..verify.context import current_sanitizer
from .base import (
    Backend,
    SortJob,
    SortResult,
    check_keys,
    finish_workload,
    prepare_workload,
    warn_ignored_fields,
)

_S_TO_NS = 1e9


def report_from_timings(
    timings: list[PhaseTiming], wall_s: float, label: str
) -> PerfReport:
    """Map per-phase wall-clock timings onto the paper's report shape."""
    if not timings:
        # Degenerate runs (serial fallback with no phases): all wall time
        # is the one processor's BUSY.
        return PerfReport(
            n_procs=1,
            counters=[PerfCounters(busy_ns=wall_s * _S_TO_NS)],
            phases=[PhaseRecord("sort", np.array([wall_s * _S_TO_NS]))],
            label=label,
        )
    p = max(len(t.tasks) for t in timings)
    counters = [PerfCounters() for _ in range(p)]
    records: list[PhaseRecord] = []
    prev_end: float | None = None
    for t in timings:
        if prev_end is not None:
            # Workers idle while the parent computes offsets/splitters
            # between phases: pure synchronization from their view.
            gap = max(0.0, t.begin - prev_end)
            if gap > 0.0:
                for c in counters:
                    c.sync_ns += gap * _S_TO_NS
                records.append(
                    PhaseRecord("coordinate", np.full(p, gap * _S_TO_NS))
                )
        prev_end = t.end
        wall = t.elapsed_s
        for w in range(p):
            busy = t.tasks[w][1] - t.tasks[w][0] if w < len(t.tasks) else 0.0
            busy = min(max(0.0, busy), wall)
            counters[w].busy_ns += busy * _S_TO_NS
            counters[w].sync_ns += (wall - busy) * _S_TO_NS
        records.append(PhaseRecord(t.name, np.full(p, wall * _S_TO_NS)))
    return PerfReport(n_procs=p, counters=counters, phases=records, label=label)


class NativeBackend(Backend):
    """Sorts with real processes on the host and reports wall-clock time."""

    name = "native"

    def __init__(self, pool: WorkerPool | None = None):
        """An externally supplied ``pool`` amortizes fork startup across
        jobs; it must have been built with ``collect_timings=True`` for
        per-phase accounting and is not closed by this backend."""
        self._shared_pool = pool

    def run(
        self, job: SortJob, recorder: TraceRecorder | None = None
    ) -> SortResult:
        # Warn about the fields the *caller* set before the workload seam
        # rewrites the job (the transform sets key_bits itself).
        warn_ignored_fields(
            job, self.name,
            ("model", "machine", "costs", "n_labeled", "key_bits", "distribution"),
        )
        job, workload_plan = prepare_workload(job)
        keys = check_keys(job.keys, job.algorithm)
        with use_recorder(recorder):
            plan = current_fault_plan()
            pool = self._shared_pool or WorkerPool(
                job.n_procs,
                collect_timings=True,
                # An ambient fault plan arms supervision so injected
                # worker faults are absorbed instead of fatal.
                supervise=plan is not None,
                phase_timeout_s=10.0 if plan is not None else None,
            )
            job_faults = fault_window()
            first_timing = len(pool.timings)
            t0 = time.perf_counter()
            try:
                out = parallel_sort(
                    keys, job.algorithm, pool=pool, radix=job.radix
                )
                t1 = time.perf_counter()
            finally:
                if self._shared_pool is None:
                    pool.close()
            # Take this job's records off a shared pool's list, which
            # would otherwise grow for the whole sweep.
            timings = pool.timings[first_timing:]
            del pool.timings[first_timing:]
            if current_recorder().enabled:
                wall_span(
                    f"native.{job.algorithm}", "native.sort", t0, t1,
                    pid=PID_NATIVE, tid=POOL_TID,
                    args={"n_keys": len(keys), "n_workers": pool.n_workers},
                )
        report = report_from_timings(
            timings, t1 - t0, label=f"native/{job.algorithm}"
        )
        san = current_sanitizer()
        if san is not None:
            # Same accounting identity as the simulated backend: per
            # worker, BUSY + SYNC must tile the recorded phase spans.
            san.on_report(report, label=f"native/{job.algorithm}")
        result = SortResult(
            sorted_keys=out,
            report=report,
            backend=self.name,
            algorithm=job.algorithm,
            model_name=None,
            n_procs=report.n_procs,
            radix=job.radix,
            trace=self._collect_trace(recorder),
            wall_time_s=t1 - t0,
            faults=job_faults(),
        )
        return finish_workload(result, workload_plan)
