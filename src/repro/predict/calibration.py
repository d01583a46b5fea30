"""Calibration of the analytic predictor against the simulator.

The predictor is exact outside MPI/SHMEM exchange phases (shared
emission code) and within a few percent inside them (fitted closed
forms, :mod:`repro.predict.exchange`).  Calibration removes the residual
bias per (algorithm, model): ``fit_calibration`` runs a small grid of
simulated cells (through the existing grid cache, so repeat fits are
free), predicts the same cells from the same key arrays, and solves for
the per-category factor that makes the predicted exchange totals close
the gap to the simulated totals:

    factor_cat = (sim_total_cat - pred_nonexchange_cat) / pred_exchange_cat

summed over the grid, clamped to [0.1, 10].  The factors scale only
exchange-phase outcomes (everything else is bit-identical already), and
the fitted artifact records per-(algorithm, model) error bands over the
calibration cells (:func:`error_band`, the one definition ``repro check
--backend predict`` and ``predict_compare`` gate with too).

Artifact resolution order for :func:`load_calibration`:

1. an explicit path argument,
2. ``$REPRO_CALIBRATION``,
3. ``<cache dir>/calibration.json`` (``$REPRO_CACHE_DIR`` aware) --
   where ``python -m repro calibrate`` writes by default,
4. the packaged default ``calibration_default.json``,
5. identity factors (uncalibrated).
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..backend.simulated import DEFAULT_RADIX
from ..core.experiment import (
    ALGORITHM_MODELS,
    ExperimentRunner,
    RunSpec,
    _spec_machine,
)
from ..core.gridcache import default_cache_dir
from ..data.distributions import KEY_BITS
from ..sorts.program import drive, measure
from .driver import CATEGORIES, PredictTeam

CALIBRATION_VERSION = 1

#: Machine kinds the v1 calibration artifact covers.  The fit grid runs
#: entirely on the CC-DSM Origin2000 model, so factors fitted there say
#: nothing about the BSP/multicore/AP1000 zoo members -- predicting them
#: with Origin2000 factors would be a silent mis-prediction.
CALIBRATED_KINDS = ("ccdsm",)

#: The predictor's gate: ``repro check --backend predict`` and the
#: ``predict_compare`` experiment fail when the median absolute relative
#: error of predicted vs. simulated total time exceeds this fraction.
PREDICT_ERROR_GATE = 0.15


def error_band(rels) -> dict:
    """Absolute relative errors summarised: the true median, the
    nearest-rank 95th percentile, the max and the count."""
    ordered = sorted(rels)
    return {
        "median_abs_rel": float(statistics.median(ordered)),
        "p95_abs_rel": float(ordered[max(0, round(0.95 * len(ordered)) - 1)]),
        "max_abs_rel": float(ordered[-1]),
        "n_cells": len(ordered),
    }


class UncalibratedMachineError(ValueError):
    """The predicted backend was asked about a machine configuration no
    calibration artifact covers.  Raised instead of silently predicting
    with factors fitted on a different machine."""

    def __init__(self, machine_kind: str, detail: str = ""):
        self.machine_kind = machine_kind
        msg = (
            f"no calibration artifact covers machine kind "
            f"{machine_kind!r} (calibrated kinds: "
            f"{', '.join(CALIBRATED_KINDS)})"
        )
        if detail:
            msg += f"; {detail}"
        super().__init__(msg)


def check_machine_calibrated(machine) -> None:
    """Reject machine configurations the calibration fit never saw.

    ``machine`` is a :class:`~repro.machine.config.MachineConfig` (typed
    loosely to avoid an import cycle).  A ``None`` machine means the
    backend default (Origin2000), which is always covered.
    """
    if machine is None:
        return
    kind = getattr(machine, "kind", "ccdsm")
    if kind not in CALIBRATED_KINDS:
        raise UncalibratedMachineError(
            kind,
            detail=(
                "use the simulated backend for zoo machines, or extend "
                "the calibration grid before predicting them"
            ),
        )

#: Where ``python -m repro calibrate`` persists by default and where the
#: loader looks before falling back to the packaged artifact.
USER_CALIBRATION = "calibration.json"
PACKAGED_DEFAULT = Path(__file__).with_name("calibration_default.json")

FACTOR_MIN, FACTOR_MAX = 0.1, 10.0


@dataclass(frozen=True)
class Calibration:
    """Fitted per-(algorithm, model) exchange-phase overhead factors."""

    version: int = CALIBRATION_VERSION
    #: ``"radix/shmem" -> {"BUSY": f, "LMEM": f, "RMEM": f, "SYNC": f}``
    factors: dict[str, dict[str, float]] = field(default_factory=dict)
    #: ``"radix/shmem" -> {"median_abs_rel": e, "p95_abs_rel": e, "cells": k}``
    #: (:func:`error_band` over the group's calibration cells)
    error: dict[str, dict[str, float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def factors_for(self, algorithm: str, model: str) -> dict[str, float] | None:
        return self.factors.get(f"{algorithm}/{model}")

    def error_band(self, algorithm: str, model: str) -> dict[str, float] | None:
        return self.error.get(f"{algorithm}/{model}")

    def worst_median_error(self) -> float:
        if not self.error:
            return float("nan")
        return max(e["median_abs_rel"] for e in self.error.values())

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "version": self.version,
            "factors": self.factors,
            "error": self.error,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Calibration":
        version = int(doc.get("version", 0))
        if version != CALIBRATION_VERSION:
            raise ValueError(
                f"calibration artifact version {version} is not supported "
                f"(expected {CALIBRATION_VERSION}); re-run `repro calibrate`"
            )
        return cls(
            version=version,
            factors={k: dict(v) for k, v in doc.get("factors", {}).items()},
            error={k: dict(v) for k, v in doc.get("error", {}).items()},
            meta=dict(doc.get("meta", {})),
        )

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        return path


def default_calibration_path() -> Path:
    return default_cache_dir() / USER_CALIBRATION


def load_calibration(path: str | os.PathLike | None = None) -> Calibration | None:
    """Resolve the active calibration artifact (see module docstring);
    returns ``None`` when nothing is found (identity factors)."""
    candidates: list[Path] = []
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"calibration artifact not found: {p}")
        candidates.append(p)
    else:
        env = os.environ.get("REPRO_CALIBRATION")
        if env:
            candidates.append(Path(env))
        candidates.append(default_calibration_path())
        candidates.append(PACKAGED_DEFAULT)
    for cand in candidates:
        if cand.is_file():
            return Calibration.from_json(json.loads(cand.read_text()))
    return None


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------
def calibration_grid(small: bool = False) -> list[RunSpec]:
    """The cells the factors are fitted against: every algorithm x model
    at mixed sizes, processor counts and key distributions."""
    if small:
        sizes_p = [(1 << 18, 16)]
        dists = ["random", "gauss"]
    else:
        sizes_p = [(1 << 20, 16), (1 << 22, 64)]
        dists = ["random", "gauss", "zero"]
    return [
        RunSpec(
            algorithm, model, n, p, DEFAULT_RADIX[algorithm],
            distribution=dist, max_actual=1 << 16,
        )
        for algorithm, models in ALGORITHM_MODELS
        for model in models
        for n, p in sizes_p
        for dist in dists
    ]


def _predict_cell(
    runner: ExperimentRunner, spec: RunSpec, factors: dict[str, float] | None
) -> PredictTeam:
    """Predict one grid cell from the very key array the simulator saw
    (workload statistics exact; only the exchange closed form differs)."""
    stats, _ = measure(
        runner.keys(spec), spec.algorithm, spec.n_procs, spec.radix,
        n_labeled=spec.n_labeled, key_bits=KEY_BITS,
    )
    team = PredictTeam(
        _spec_machine(spec), spec.n_procs, runner.costs,
        label=f"{spec.algorithm}/{spec.model}", factors=factors,
    )
    drive(team, spec.model, stats)
    return team


def fit_calibration(
    specs: list[RunSpec] | None = None,
    small: bool = False,
    runner: ExperimentRunner | None = None,
    parallel: int | None = None,
) -> Calibration:
    """Fit per-(algorithm, model) exchange factors against simulated
    cells, then re-predict with the factors to state the error bands."""
    specs = specs if specs is not None else calibration_grid(small=small)
    runner = runner or ExperimentRunner(parallel=parallel)
    sims = runner.run_many(specs, parallel=parallel)

    # Pass 1: uncalibrated predictions; accumulate totals per group.
    groups: dict[str, dict[str, dict[str, float]]] = {}
    for spec, sim in zip(specs, sims):
        team = _predict_cell(runner, spec, factors=None)
        acc = groups.setdefault(
            f"{spec.algorithm}/{spec.model}",
            {p: dict.fromkeys(CATEGORIES, 0.0) for p in ("sim", "pred", "exch")},
        )
        for part, totals in (
            ("sim", dict(zip(CATEGORIES, sim.report.merged().as_tuple()))),
            ("pred", dict(zip(CATEGORIES, team.report().merged().as_tuple()))),
            ("exch", team.exchange_raw),
        ):
            for c in CATEGORIES:
                acc[part][c] += totals[c]

    factors: dict[str, dict[str, float]] = {}
    for key, acc in groups.items():
        fs: dict[str, float] = {}
        for c in CATEGORIES:
            exch = acc["exch"][c]
            if exch <= 1e-6 * max(1.0, acc["pred"][c]):
                fs[c] = 1.0  # nothing to scale (e.g. pure CC-SAS groups)
                continue
            non_exch = acc["pred"][c] - exch
            fs[c] = float(
                np.clip((acc["sim"][c] - non_exch) / exch, FACTOR_MIN, FACTOR_MAX)
            )
        factors[key] = fs

    # Pass 2: per-cell error bands with the factors applied.
    rels: dict[str, list[float]] = {}
    for spec, sim in zip(specs, sims):
        key = f"{spec.algorithm}/{spec.model}"
        pred_ns = float(_predict_cell(runner, spec, factors[key]).elapsed_ns)
        rels.setdefault(key, []).append(abs(pred_ns - sim.time_ns) / sim.time_ns)
    error = {}
    for key, group_rels in rels.items():
        band = error_band(group_rels)
        error[key] = {
            "median_abs_rel": band["median_abs_rel"],
            "p95_abs_rel": band["p95_abs_rel"],
            "cells": float(band["n_cells"]),
        }

    return Calibration(
        version=CALIBRATION_VERSION,
        factors=factors,
        error=error,
        meta={
            "grid": "small" if small else "full",
            "n_cells": len(specs),
            "fitted_against": "simulated backend via ExperimentRunner",
        },
    )
