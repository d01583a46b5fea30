"""The predictor's team: turns :class:`WorkloadStats` into a `PerfReport`.

A prediction runs the simulated sorters' own phase program
(:func:`repro.sorts.drive`) on a :class:`PredictTeam`, whose executor
replaces only the discrete-event exchange with the closed form of
:mod:`repro.predict.exchange`.  Every other phase (compute, collectives,
prefix trees, CC-SAS exchanges, barriers) is the simulation's, so the
prediction differs from a simulated run only where the workload
statistics are approximate and inside MPI/SHMEM exchanges.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..data.distributions import KEY_BITS
from ..machine.config import MachineConfig
from ..machine.costs import CostModel, DEFAULT_COSTS
from ..machine.memory import MemorySystem
from ..models import ProgrammingModel, get_model
from ..smp.phases import ExchangePhase
from ..smp.team import Team
from ..sorts.common import WorkloadStats, n_passes
from ..sorts.program import run_on
from ..sorts.radix import SortOutcome, default_machine
from ..sorts.sequential import default_sequential_machine, sequential_pass_ns
from .exchange import PredictExecutor

CATEGORIES = ("BUSY", "LMEM", "RMEM", "SYNC")


class PredictTeam(Team):
    """A team whose exchanges run on the closed-form executor, optionally
    rescaled by fitted per-category calibration factors.

    Only MPI/SHMEM exchanges are scaled: every other phase is computed by
    the very same code the simulator runs, so a factor there could only
    *introduce* error.  Scaling the outcome before it is applied keeps
    the sanitizer's accounting identity intact -- the phase record and
    the counters both derive from the scaled arrays.
    """

    def __init__(
        self,
        machine: MachineConfig,
        n_procs: int | None = None,
        costs: CostModel = DEFAULT_COSTS,
        label: str = "",
        factors: dict[str, float] | None = None,
    ):
        super().__init__(machine, n_procs, costs, label=label)
        self.executor = PredictExecutor(machine, costs)
        self.factors = factors
        #: Uncalibrated per-category exchange totals (ns summed over
        #: processors) -- what the calibration fit solves against.
        self.exchange_raw = {cat: 0.0 for cat in CATEGORIES}

    def exchange(self, phase: ExchangePhase) -> None:
        if phase.transport.is_ccsas:
            super().exchange(phase)
            return
        offsets = self.clock - self.clock.min()
        outcome = self.executor.exchange(
            phase, offsets, trace_t0_ns=float(self.clock.min())
        )
        self.exchange_raw["BUSY"] += float(outcome.busy.sum())
        self.exchange_raw["LMEM"] += float(outcome.lmem.sum())
        self.exchange_raw["RMEM"] += float(outcome.rmem.sum())
        self.exchange_raw["SYNC"] += float(outcome.sync.sum())
        if self.factors:
            outcome.busy *= self.factors.get("BUSY", 1.0)
            outcome.lmem *= self.factors.get("LMEM", 1.0)
            outcome.rmem *= self.factors.get("RMEM", 1.0)
            outcome.sync *= self.factors.get("SYNC", 1.0)
        self._apply(phase.name, outcome)


def predict_outcome(
    stats: WorkloadStats,
    model: ProgrammingModel | str,
    machine: MachineConfig | None = None,
    costs: CostModel = DEFAULT_COSTS,
    factors: dict[str, float] | None = None,
    sorted_keys: np.ndarray | None = None,
) -> SortOutcome:
    """Predict a sort run from its workload statistics."""
    mdl = get_model(model) if isinstance(model, str) else model
    machine = machine or default_machine(stats.p)
    team = PredictTeam(
        machine, stats.p, costs,
        label=f"{stats.algorithm}/{mdl.name}", factors=factors,
    )
    if sorted_keys is None:
        sorted_keys = np.empty(0, dtype=np.int64)
    return run_on(team, mdl, stats, sorted_keys)


# ----------------------------------------------------------------------
# Sequential baseline (closed form, memoized)
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def sequential_time_ns(
    n: int,
    radix: int = 8,
    costs: CostModel = DEFAULT_COSTS,
    key_bits: int = KEY_BITS,
) -> float:
    """Analytic uniprocessor radix-sort time for uniform keys: the same
    per-pass cost the measured baseline charges
    (:func:`repro.sorts.sequential.sequential_pass_ns`) at the uniform
    closed-form destination locality ``2^-radix``."""
    machine = default_sequential_machine()
    memsys = MemorySystem(machine, costs)
    locality = 1.0 / (1 << radix)
    return n_passes(radix, key_bits) * sequential_pass_ns(
        memsys, costs, n, radix, locality
    )
