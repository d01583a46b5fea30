"""Real parallel sorting on the host machine.

Thread-based shared-memory sorting is hopeless under the GIL, so this
backend runs the paper's two algorithms across *processes* communicating
through :mod:`multiprocessing.shared_memory` -- a faithful, working
Python rendition of the algorithms the simulation studies.

    from repro.native import parallel_sort
    sorted_arr = parallel_sort(arr)                      # planned
    sorted_arr = parallel_sort(arr, algorithm="sample", n_workers=8)

The per-element hot path (validation scan, per-pass histogram, stable
blocked placement) lives in :mod:`repro.native.kernels`; set the
``REPRO_NATIVE_KERNEL`` environment variable (``numpy`` / ``numba``) or
pass ``kernel=`` to pick an implementation -- see docs/PERF.md.
"""

from __future__ import annotations

import numpy as np

from .arena import Arena
from .kernels import KERNEL_ENV
from .kernels import resolve as resolve_kernel
from .plan import Plan, plan, plan_keys
from .pool import PhaseTiming, WorkerPool, default_workers, workers_available
from .radix import parallel_radix_sort
from .sample import parallel_sample_sort
from .shm import SharedArray


def run_plan(
    keys: np.ndarray,
    chosen: Plan,
    *,
    n_workers: int | None = None,
    pool: WorkerPool | None = None,
    **kwargs,
) -> np.ndarray:
    """Sort ``keys`` the way ``chosen`` says.  ``sequential`` is one
    ``np.sort`` in the caller: no pool, no segment.  A parallel plan
    runs in ``pool.arena``'s slabs; ``kernel=`` passes through to it."""
    if chosen.algorithm == "sequential":
        return np.sort(keys)
    if chosen.algorithm == "radix":
        return parallel_radix_sort(
            keys, n_workers=n_workers, pool=pool, radix=chosen.radix, **kwargs
        )
    return parallel_sample_sort(keys, n_workers=n_workers, pool=pool, **kwargs)


def parallel_sort(
    keys: np.ndarray,
    algorithm: str | None = None,
    n_workers: int | None = None,
    pool: WorkerPool | None = None,
    radix: int | None = None,
    **kwargs,
) -> np.ndarray:
    """Sort ``keys`` on the host machine.

    ``algorithm=None`` lets the planner decide (:mod:`repro.native.plan`:
    ``sequential``, ``sample`` or ``radix``, from this host's measured
    table when ``python -m repro tune`` has written one); naming
    ``"radix"`` (non-negative integers only) or ``"sample"`` (any
    sortable dtype) pins it.  ``radix`` pins the radix sort's digit
    width; ``kernel=`` passes through.
    """
    keys = np.ascontiguousarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    chosen = plan_keys(keys, workers_available(pool, n_workers), algorithm, radix)
    return run_plan(keys, chosen, n_workers=n_workers, pool=pool, **kwargs)


__all__ = [
    "Arena",
    "KERNEL_ENV",
    "PhaseTiming",
    "Plan",
    "SharedArray",
    "WorkerPool",
    "default_workers",
    "parallel_radix_sort",
    "parallel_sample_sort",
    "parallel_sort",
    "plan",
    "plan_keys",
    "resolve_kernel",
    "run_plan",
]
