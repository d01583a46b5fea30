"""Analytic performance prediction (the paper's §5 future work).

"Future work will include ... developing a formula (based on profiles)
to predict performance for each programming model."  This package is
that formula, promoted to a first-class backend:

- :mod:`~repro.predict.analytic` -- workload statistics (histograms,
  traffic matrices, localities) in closed form for uniform keys, or
  from a model draw of any distribution family (given a key array,
  :func:`repro.sorts.measure` is the statistics source);
- :mod:`~repro.predict.exchange` -- a closed-form stand-in for the
  discrete-event MPI/SHMEM exchange (the simulator's only slow part);
- :mod:`~repro.predict.driver` -- :class:`PredictTeam`, the team the
  sorters' one phase program (:func:`repro.sorts.drive`) runs on here;
- :mod:`~repro.predict.calibration` -- fits per-(algorithm, model)
  exchange overhead factors against simulated grid cells and states the
  resulting error bands;
- :mod:`~repro.predict.backend` -- the registered ``"predict"`` backend.

A paper-scale sweep (256M keys x 64 processors x every model) predicts
in well under a second; the DES stays available for spot checks via
``backend="sim"``.
"""

from .analytic import family_stats, uniform_stats
from .backend import PredictedBackend
from .calibration import (
    Calibration,
    calibration_grid,
    default_calibration_path,
    fit_calibration,
    load_calibration,
)
from .driver import PredictTeam, predict_outcome, sequential_time_ns
from .exchange import PredictExecutor

__all__ = [
    "Calibration",
    "PredictExecutor",
    "PredictTeam",
    "PredictedBackend",
    "calibration_grid",
    "default_calibration_path",
    "family_stats",
    "fit_calibration",
    "load_calibration",
    "predict_outcome",
    "sequential_time_ns",
    "uniform_stats",
]
