"""Real parallel sorting on the host machine.

Thread-based shared-memory sorting is hopeless under the GIL, so this
backend runs the paper's two algorithms across *processes* communicating
through :mod:`multiprocessing.shared_memory` -- a faithful, working
Python rendition of the algorithms the simulation studies.

    from repro.native import parallel_sort
    sorted_arr = parallel_sort(arr)                      # planned
    sorted_arr = parallel_sort(arr, algorithm="sample", n_workers=8)

Every sort is one driver, :func:`run_plan`, handed a
:class:`~repro.native.plan.Plan`: it owns validation, the sequential
answer, the pool and the arena lease; :mod:`~repro.native.radix` and
:mod:`~repro.native.sample` supply only the tasks and the phase program
it runs between barriers.  ``parallel_sort`` plans and drives;
``parallel_radix_sort`` / ``parallel_sample_sort`` are that, pinned.

The per-element hot path (validation scan, per-pass histogram, stable
blocked placement) is one blocked NumPy kernel,
:data:`~repro.native.kernels.NUMPY_KERNEL` -- see docs/PERF.md.
"""

from __future__ import annotations

import numpy as np

from .arena import Arena
from .kernels import NUMPY_KERNEL, Kernel
from .kernels import resolve as resolve_kernel
from .plan import DEFAULT_RADIX, Plan, plan, plan_keys
from .pool import PhaseTiming, WorkerPool, default_workers, workers_available
from .radix import radix_phases
from .sample import sample_phases
from .shm import SharedArray


def run_plan(
    keys: np.ndarray,
    chosen: Plan,
    *,
    n_workers: int | None = None,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Sort ``keys`` the way ``chosen`` says: the one driver behind every
    native sort.  Returns a new sorted array; ``keys`` is left untouched.

    It validates the keys (one-dimensional; for radix, non-negative
    integers and a digit width in [1, 20]), answers ``sequential`` and
    width-1 plans with one ``np.sort`` -- no pool, no segment -- and runs
    a parallel plan's phase program on ``pool`` (one of its own, closed
    afterwards, when none is given) over buffers leased from
    ``pool.arena``, so a reused pool creates, maps and faults them in
    once.
    """
    keys = np.ascontiguousarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if len(keys) == 0:
        return keys.copy()
    key_bits = 0
    if chosen.algorithm == "radix":
        if not np.issubdtype(keys.dtype, np.integer):
            raise TypeError("radix sort requires integer keys")
        if not 1 <= chosen.radix <= 20:
            raise ValueError("radix must be in [1, 20]")
        # Fused validation: one pass over memory yields both the
        # non-negativity check and the max that sizes the pass count.
        lo_key, hi_key = NUMPY_KERNEL.minmax(keys)
        if lo_key < 0:
            raise ValueError("radix sort requires non-negative keys")
        key_bits = max(1, int(hi_key).bit_length())
    if chosen.phases(key_bits):
        own_pool = pool is None
        pool = pool or WorkerPool(n_workers)
        try:
            with pool.arena.buffers() as bufs:
                if chosen.algorithm == "radix":
                    done = radix_phases(pool, bufs, keys, chosen, key_bits)
                else:
                    done = sample_phases(pool, bufs, keys, chosen)
                if done is not None:
                    return done.array.copy()  # the lease and the pool unwind
        finally:
            if own_pool:
                pool.close()
    # A plan with no phases, or a sample sort that met skewed splitters.
    return np.sort(keys)


def parallel_sort(
    keys: np.ndarray,
    algorithm: str | None = None,
    n_workers: int | None = None,
    pool: WorkerPool | None = None,
    radix: int | None = None,
) -> np.ndarray:
    """Sort ``keys`` on the host machine: :func:`plan_keys`, then
    :func:`run_plan`.

    ``algorithm=None`` lets the planner decide (:mod:`repro.native.plan`:
    ``sequential``, ``sample`` or ``radix``, priced by this host's model
    when ``python -m repro tune`` has written one); naming
    ``"radix"`` (non-negative integers only) or ``"sample"`` (any
    sortable dtype) pins it.  ``radix`` pins the radix sort's digit
    width.
    """
    keys = np.asarray(keys)
    chosen = plan_keys(keys, workers_available(pool, n_workers), algorithm, radix)
    return run_plan(keys, chosen, n_workers=n_workers, pool=pool)


def parallel_radix_sort(
    keys: np.ndarray,
    n_workers: int | None = None,
    radix: int = DEFAULT_RADIX,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """:func:`parallel_sort` pinned to the LSD radix sort."""
    return parallel_sort(keys, "radix", n_workers, pool, radix)


def parallel_sample_sort(
    keys: np.ndarray,
    n_workers: int | None = None,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """:func:`parallel_sort` pinned to sample sort."""
    return parallel_sort(keys, "sample", n_workers, pool)


__all__ = [
    "Arena",
    "Kernel",
    "NUMPY_KERNEL",
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
