"""Real parallel sorting on the host machine.

Thread-based shared-memory sorting is hopeless under the GIL, so this
backend runs the paper's two algorithms across *processes* communicating
through :mod:`multiprocessing.shared_memory` -- a faithful, working
Python rendition of the algorithms the simulation studies.

    from repro.native import parallel_sort
    sorted_arr = parallel_sort(arr, algorithm="sample", n_workers=8)

The per-element hot path (validation scan, per-pass histogram, stable
blocked placement) lives in :mod:`repro.native.kernels`; set the
``REPRO_NATIVE_KERNEL`` environment variable (``numpy`` / ``numba``) or
pass ``kernel=`` to pick an implementation -- see docs/PERF.md.
"""

from __future__ import annotations

import numpy as np

from .kernels import KERNEL_ENV
from .kernels import resolve as resolve_kernel
from .pool import PhaseTiming, WorkerPool, default_workers
from .radix import parallel_radix_sort
from .sample import parallel_sample_sort
from .shm import SharedArray


def parallel_sort(
    keys: np.ndarray,
    algorithm: str = "sample",
    n_workers: int | None = None,
    pool: WorkerPool | None = None,
    radix: int | None = None,
    **kwargs,
) -> np.ndarray:
    """Sort ``keys`` in parallel on the host machine.

    ``algorithm`` is ``"radix"`` (non-negative integers only) or
    ``"sample"`` (any sortable dtype).  ``radix`` is the radix sort's
    digit width (``None``: its default; sample sort has no such knob);
    other keywords (``buffers=``, ``kernel=``) pass through.
    """
    if algorithm == "radix":
        if radix is not None:
            kwargs["radix"] = radix
        return parallel_radix_sort(keys, n_workers=n_workers, pool=pool, **kwargs)
    if algorithm == "sample":
        return parallel_sample_sort(keys, n_workers=n_workers, pool=pool, **kwargs)
    raise ValueError(f"unknown algorithm {algorithm!r}")


__all__ = [
    "KERNEL_ENV",
    "PhaseTiming",
    "SharedArray",
    "WorkerPool",
    "default_workers",
    "parallel_radix_sort",
    "parallel_sample_sort",
    "parallel_sort",
    "resolve_kernel",
]
