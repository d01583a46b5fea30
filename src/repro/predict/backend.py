"""The predicted backend: the simulated backend with a closed-form team.

:class:`PredictedBackend` is :class:`~repro.backend.SimulatedBackend`
with two overrides.  Its team is a :class:`~repro.predict.PredictTeam`,
whose executor replaces the only discrete-event component (the MPI/SHMEM
exchange) with closed forms, so the report keeps the simulator's
BUSY/LMEM/RMEM/SYNC shape and accounting identity at milliseconds per
job.  And its statistics may come without keys:

- ``keys`` given: :func:`repro.sorts.measure` -- the simulator's own
  data-plane walk -- sorts the array and measures its workload
  statistics (the exact workload the simulator would see).
- ``keys`` empty and ``distribution``+``n_labeled`` set: statistics come
  from a deterministic model draw of the named family -- a paper-scale
  sweep needs no 256M-key array at all.

Calibration factors (see :mod:`repro.predict.calibration`) are resolved
once per backend instance; pass ``calibration=False`` for raw
(uncalibrated) predictions.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import SortJob
from ..backend.simulated import SimulatedBackend
from ..data.distributions import KEY_BITS
from ..machine.config import MachineConfig
from ..models import ProgrammingModel
from ..sorts.common import WorkloadStats
from .analytic import family_stats
from .calibration import (
    Calibration,
    check_machine_calibrated,
    load_calibration,
)
from .driver import PredictTeam


class PredictedBackend(SimulatedBackend):
    """Predicts sort performance analytically."""

    name = "predict"
    ignores = ()

    def __init__(self, calibration: Calibration | None | bool = None):
        """``calibration=None`` resolves the active artifact (env var,
        user cache, packaged default); ``False`` disables calibration; a
        :class:`Calibration` instance is used as given."""
        if calibration is False:
            self.calibration: Calibration | None = None
        elif calibration is None or calibration is True:
            self.calibration = load_calibration()
        else:
            self.calibration = calibration

    def _measure(
        self, job: SortJob, p: int, radix: int
    ) -> tuple[WorkloadStats, np.ndarray]:
        if len(job.keys):
            return super()._measure(job, p, radix)
        if not job.distribution or not job.n_labeled:
            raise ValueError(
                "predicted backend needs either non-empty keys or "
                "distribution= and n_labeled= to derive workload "
                "statistics from"
            )
        key_bits = job.key_bits if job.key_bits is not None else KEY_BITS
        stats = family_stats(
            job.distribution, job.algorithm, job.n_labeled, p, radix,
            key_bits=key_bits,
        )
        return stats, job.keys

    def _team(
        self, job: SortJob, machine: MachineConfig, p: int, model: ProgrammingModel
    ) -> PredictTeam:
        # The analytic closed forms (and their calibration factors) are
        # fitted on the CC-DSM machine only; reject other zoo members
        # with a typed error instead of mis-predicting silently.
        check_machine_calibrated(job.machine)
        # Factors are keyed by the model name the caller gave.
        name = job.model if isinstance(job.model, str) else model.name
        factors = (
            self.calibration.factors_for(job.algorithm, name)
            if self.calibration is not None
            else None
        )
        return PredictTeam(
            machine, p, job.costs, label=f"{job.algorithm}/{model.name}",
            factors=factors,
        )
