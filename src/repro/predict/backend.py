"""The predicted backend: analytic performance behind the Backend seam.

Accepts any :class:`~repro.backend.base.SortJob` and returns a
:class:`~repro.backend.base.SortResult` whose per-phase
:class:`~repro.smp.perf.PerfReport` uses the same BUSY/LMEM/RMEM/SYNC
vocabulary (and satisfies the same accounting identity) as the simulated
backend -- in milliseconds instead of seconds, because the only
discrete-event component is replaced by closed forms.

Two input modes:

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

from ..backend.base import (
    Backend,
    SortJob,
    SortResult,
    check_integer_keys,
    finish_workload,
    infer_key_bits,
    prepare_workload,
)
from ..sorts.program import measure
from ..sorts.radix import default_machine
from ..trace import TraceRecorder, use_recorder
from ..verify.context import current_sanitizer
from .analytic import family_stats
from .calibration import (
    Calibration,
    check_machine_calibrated,
    load_calibration,
)
from .driver import predict_outcome

#: Same per-algorithm defaults as the simulated backend.
DEFAULT_RADIX = {"radix": 8, "sample": 11}


class PredictedBackend(Backend):
    """Predicts sort performance analytically."""

    name = "predict"

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

    def run(
        self, job: SortJob, recorder: TraceRecorder | None = None
    ) -> SortResult:
        # The analytic closed forms (and their calibration factors) are
        # fitted on the CC-DSM machine only; reject other zoo members
        # with a typed error instead of mis-predicting silently.
        check_machine_calibrated(job.machine)
        job, workload_plan = prepare_workload(job)
        radix = job.radix if job.radix is not None else DEFAULT_RADIX[job.algorithm]
        n_procs = job.n_procs if job.n_procs is not None else 64
        machine = job.machine or default_machine(n_procs)

        from_family = len(np.asarray(job.keys)) == 0
        if from_family:
            if not job.distribution or not job.n_labeled:
                raise ValueError(
                    "predicted backend needs either non-empty keys or "
                    "distribution= and n_labeled= to derive workload "
                    "statistics from"
                )
            if job.algorithm not in ("radix", "sample"):
                raise ValueError(f"unknown algorithm {job.algorithm!r}")
            key_bits = job.key_bits if job.key_bits is not None else 31
            stats = family_stats(
                job.distribution, job.algorithm, job.n_labeled, n_procs,
                radix, key_bits=key_bits,
            )
            sorted_keys = np.asarray(job.keys)
        else:
            keys = check_integer_keys(job.keys, job.algorithm)
            key_bits = (
                job.key_bits if job.key_bits is not None else infer_key_bits(keys)
            )
            stats, sorted_keys = measure(
                keys, job.algorithm, n_procs, radix,
                n_labeled=job.n_labeled, key_bits=key_bits,
            )

        factors = (
            self.calibration.factors_for(job.algorithm, job.model)
            if self.calibration is not None
            else None
        )
        with use_recorder(recorder):
            outcome = predict_outcome(
                stats, job.model, machine=machine, costs=job.costs,
                factors=factors, sorted_keys=sorted_keys,
            )
        san = current_sanitizer()
        if san is not None:
            # The accounting identity holds for predicted reports too.
            san.on_report(outcome.report, label=f"predict/{job.algorithm}")
        result = SortResult(
            sorted_keys=sorted_keys,
            report=outcome.report,
            backend=self.name,
            algorithm=outcome.algorithm,
            model_name=outcome.model_name,
            n_procs=outcome.n_procs,
            radix=outcome.radix,
            trace=self._collect_trace(recorder),
            outcome=outcome,
        )
        return finish_workload(result, workload_plan)
