"""The simulated-machine backend.

Wraps the existing stack -- :mod:`repro.sorts` algorithm drivers over the
:mod:`repro.smp` phase runtime over the :mod:`repro.sim` discrete-event
kernel -- behind the :class:`~repro.backend.base.Backend` seam.  The
per-processor BUSY/LMEM/RMEM/SYNC report comes straight from the
simulation; trace events are emitted by the instrumented layers (phase
spans from :class:`~repro.smp.team.Team`, message instants from the DES
exchange phases) while the job runs under the given recorder.
"""

from __future__ import annotations

from ..faults.context import fault_window
from ..sorts.program import ParallelRadixSort, ParallelSampleSort
from ..sorts.radix import default_machine
from ..trace import TraceRecorder, use_recorder
from ..verify.context import current_sanitizer
from .base import (
    Backend,
    SortJob,
    SortResult,
    check_integer_keys,
    finish_workload,
    infer_key_bits,
    prepare_workload,
    warn_ignored_fields,
)

#: The paper's best radix-digit width per algorithm (8 for radix sort,
#: 11 for sample sort's local sorts).
DEFAULT_RADIX = {"radix": 8, "sample": 11}


class SimulatedBackend(Backend):
    """Sorts on the modeled Origin2000 and reports simulated time."""

    name = "sim"

    def run(
        self, job: SortJob, recorder: TraceRecorder | None = None
    ) -> SortResult:
        job, workload_plan = prepare_workload(job)
        keys = check_integer_keys(job.keys, job.algorithm)
        warn_ignored_fields(job, self.name, ("distribution",))

        radix = job.radix if job.radix is not None else DEFAULT_RADIX[job.algorithm]
        sorter_cls = (
            ParallelRadixSort if job.algorithm == "radix" else ParallelSampleSort
        )
        sorter = sorter_cls(job.model, radix=radix)
        n_procs = job.n_procs if job.n_procs is not None else 64
        machine = job.machine or default_machine(n_procs)

        key_bits = job.key_bits if job.key_bits is not None else infer_key_bits(keys)
        job_faults = fault_window()
        with use_recorder(recorder):
            outcome = sorter.run(
                keys,
                n_procs=n_procs,
                machine=machine,
                costs=job.costs,
                n_labeled=job.n_labeled,
                key_bits=key_bits,
            )
        san = current_sanitizer()
        if san is not None:
            # The paper's accounting identity must hold for every report
            # that crosses the backend seam.
            san.on_report(outcome.report, label=f"sim/{job.algorithm}")
        result = SortResult(
            sorted_keys=outcome.sorted_keys,
            report=outcome.report,
            backend=self.name,
            algorithm=outcome.algorithm,
            model_name=outcome.model_name,
            n_procs=outcome.n_procs,
            radix=outcome.radix,
            trace=self._collect_trace(recorder),
            outcome=outcome,
            faults=job_faults(),
        )
        return finish_workload(result, workload_plan)
