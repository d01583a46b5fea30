"""The simulated-machine backend: the one modeled path.

:func:`repro.sorts.measure` walks the job's keys once, recording the
workload statistics every phase consumes, and :func:`repro.sorts.program.run_on`
drives the algorithm's phase program onto a :class:`~repro.smp.team.Team`
-- the :mod:`repro.smp` phase runtime over the :mod:`repro.sim`
discrete-event kernel.  The per-processor BUSY/LMEM/RMEM/SYNC report
comes straight from the simulation; trace events are emitted by the
instrumented layers (phase spans from the team, message instants from the
DES exchange phases).  The predicted backend
(:class:`repro.predict.PredictedBackend`) is this class with another
statistics source and a closed-form team.
"""

from __future__ import annotations

import numpy as np

from ..machine.config import MachineConfig
from ..models import ProgrammingModel, get_model
from ..smp.team import Team
from ..sorts.common import WorkloadStats
from ..sorts.program import measure, run_on
from ..sorts.radix import default_machine
from .base import Backend, SortJob, SortResult, check_keys, infer_key_bits

#: The paper's best radix-digit width per algorithm (8 for radix sort,
#: 11 for sample sort's local sorts).
DEFAULT_RADIX = {"radix": 8, "sample": 11}


class SimulatedBackend(Backend):
    """Sorts on the modeled Origin2000 and reports simulated time."""

    name = "sim"
    ignores = ("distribution",)

    def _sort(self, job: SortJob) -> SortResult:
        radix = job.radix if job.radix is not None else DEFAULT_RADIX[job.algorithm]
        if job.n_procs is not None:
            p = job.n_procs
        else:
            p = job.machine.n_processors if job.machine is not None else 64
        machine = job.machine or default_machine(p)
        model = get_model(job.model) if isinstance(job.model, str) else job.model
        team = self._team(job, machine, p, model)
        stats, sorted_keys = self._measure(job, p, radix)
        outcome = run_on(team, model, stats, sorted_keys)
        return SortResult(
            sorted_keys=outcome.sorted_keys,
            report=outcome.report,
            backend=self.name,
            algorithm=outcome.algorithm,
            model_name=outcome.model_name,
            n_procs=outcome.n_procs,
            radix=outcome.radix,
            outcome=outcome,
        )

    def _measure(
        self, job: SortJob, p: int, radix: int
    ) -> tuple[WorkloadStats, np.ndarray]:
        """The workload statistics the phases price, and the sorted keys."""
        keys = check_keys(job.keys, integer=True)
        key_bits = job.key_bits if job.key_bits is not None else infer_key_bits(keys)
        return measure(
            keys, job.algorithm, p, radix, n_labeled=job.n_labeled, key_bits=key_bits
        )

    def _team(
        self, job: SortJob, machine: MachineConfig, p: int, model: ProgrammingModel
    ) -> Team:
        """The team the phase program runs on: the discrete-event one."""
        return Team(machine, p, job.costs, label=f"{job.algorithm}/{model.name}")
