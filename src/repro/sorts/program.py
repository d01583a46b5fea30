"""One phase program per algorithm, two evaluators.

Each parallel sort is a bulk-synchronous program.  :func:`measure` walks
its data plane once over the actual keys -- sorting them and recording
the statistics every phase consumes, at labeled size -- and :func:`drive`
emits the phase sequence those statistics price onto a team.  On a plain
:class:`~repro.smp.team.Team` that is the simulation
(:class:`repro.backend.SimulatedBackend`); on
:class:`repro.predict.PredictTeam`, whose executor swaps the
discrete-event exchange for a closed form, the same two calls are the
analytic prediction (:class:`repro.predict.PredictedBackend`).
"""

from __future__ import annotations

import numpy as np

from ..data.distributions import KEY_BITS
from ..models import ProgrammingModel, get_model
from ..smp.team import Team
from .common import WorkloadStats, check_workload, elem_bytes_for, n_passes
from .radix import SortOutcome, drive_radix, measure_radix
from .sample import drive_sample, measure_sample


def measure(
    keys: np.ndarray,
    algorithm: str,
    p: int,
    radix: int,
    n_labeled: int | None = None,
    key_bits: int = KEY_BITS,
) -> tuple[WorkloadStats, np.ndarray]:
    """Sort ``keys`` the way ``algorithm`` does on ``p`` processes and
    measure the workload statistics its phases consume, extrapolated to
    ``n_labeled`` (chunk support estimation included, see
    :mod:`repro.sorts.common`).  Returns ``(stats, sorted_keys)``."""
    keys = np.ascontiguousarray(keys)
    n_actual = len(keys)
    n = n_labeled if n_labeled is not None else n_actual
    check_workload(algorithm, n_actual, p, radix)
    if n % n_actual != 0 or n < n_actual:
        raise ValueError(
            f"n_labeled={n} must be a multiple of the actual key count "
            f"{n_actual}"
        )
    passes = n_passes(radix, key_bits)
    scale, elem_bytes = n // n_actual, elem_bytes_for(key_bits)
    if algorithm == "radix":
        radix_passes, sorted_keys = measure_radix(
            keys, p, radix, passes, scale, elem_bytes
        )
        stats = WorkloadStats(
            algorithm, n, p, radix, key_bits, passes, radix_passes=radix_passes
        )
    else:
        local1, distribute, local2, sorted_keys = measure_sample(
            keys, p, radix, passes, scale, elem_bytes
        )
        stats = WorkloadStats(
            algorithm, n, p, radix, key_bits, passes,
            local1=local1, local2=local2, distribute=distribute,
        )
    return stats, sorted_keys


def drive(team: Team, model: ProgrammingModel | str, stats: WorkloadStats) -> None:
    """Emit the full phase sequence of ``stats`` onto ``team``."""
    mdl = get_model(model) if isinstance(model, str) else model
    emit = drive_radix if stats.algorithm == "radix" else drive_sample
    emit(team, mdl, stats)


def run_on(
    team: Team,
    model: ProgrammingModel,
    stats: WorkloadStats,
    sorted_keys: np.ndarray,
) -> SortOutcome:
    """:func:`drive` ``stats`` onto ``team`` and report what it cost."""
    drive(team, model, stats)
    return SortOutcome(
        sorted_keys=sorted_keys,
        report=team.report(),
        algorithm=stats.algorithm,
        model_name=model.name,
        radix=stats.radix,
        n_labeled=stats.n,
        n_procs=stats.p,
        passes=stats.passes,
    )
