"""Actually-parallel LSD radix sort: the tasks and the phase program.

The algorithm is the paper's parallel radix sort (Section 3.1): per pass,
every worker histograms its slice (phase barrier), global offsets are
computed from the histogram matrix, and every worker permutes its keys to
their global positions in the shared output array.  The pool's phase
barriers stand in for the machine's barriers; the shared-memory output
array is the CC-SAS shared output array.  Validation, the pool, the
lease and the result copy belong to the driver
(:func:`repro.native.run_plan`), whose one fused min/max pass also sizes
the pass count -- a 16-bit workload pays 2 passes, not 3.

The per-element work runs through the one cache-conscious kernel
(:data:`repro.native.kernels.NUMPY_KERNEL`): each permute is a blocked
stable counting placement writing contiguous per-bucket runs (no
``argsort``-based rank reconstruction, no defensive chunk copy, no
per-element scattered stores).

Supervised-retry safety: a permute task reads ``src`` and ``offs`` (both
unmodified -- each task advances a private cursor copy) and overwrites
its keys' ``dst`` positions, so re-running any task after a worker crash
is idempotent.
"""

from __future__ import annotations

import numpy as np

from ..sorts.common import n_passes
from .arena import Lease, SlabView
from .kernels import NUMPY_KERNEL, slice_bounds
from .plan import Plan
from .pool import WorkerPool
from .shm import resolve


def _hist_task(args) -> None:
    (src_h, hist_h, p, w, shift, mask) = args
    src, hist = resolve(src_h), resolve(hist_h)
    lo, hi = slice_bounds(len(src), p, w)
    hist[w, :] = NUMPY_KERNEL.histogram(src[lo:hi], shift, mask)


def _permute_task(args) -> None:
    (src_h, dst_h, offs_h, p, w, shift, mask) = args
    src, dst, offs = resolve(src_h), resolve(dst_h), resolve(offs_h)
    lo, hi = slice_bounds(len(src), p, w)
    # Private running cursors: the shared offset matrix stays pristine,
    # which keeps a supervised re-run of this task idempotent.
    cursor = offs[w].copy()
    NUMPY_KERNEL.scatter(src[lo:hi], dst, cursor, shift, mask)


def radix_phases(
    pool: WorkerPool,
    bufs: Lease,
    keys: np.ndarray,
    chosen: Plan,
    key_bits: int,
) -> SlabView:
    """The phase program: ``2 * n_passes`` pool phases over buffers
    leased from ``bufs``, on ``chosen.width`` tasks with
    ``chosen.radix``-bit digits.  ``keys`` are non-negative integers of
    at most ``key_bits`` bits (the driver checked); returns the buffer
    holding them sorted."""
    n, p, radix = len(keys), chosen.width, chosen.radix
    mask = (1 << radix) - 1
    src = bufs.from_array(keys)
    dst = bufs.empty((n,), keys.dtype)
    hist = bufs.empty((p, mask + 1), np.int64)
    offs = bufs.empty((p, mask + 1), np.int64)
    for k in range(n_passes(radix, key_bits)):
        shift = k * radix
        pool.run_phase(
            _hist_task,
            [(src.handle, hist.handle, p, w, shift, mask) for w in range(p)],
            name=f"pass{k}.histogram",
        )
        # Global exclusive offsets, digit-major then worker-major --
        # the same stable permutation the simulated sorts perform.
        flat = hist.array.T.reshape(-1)
        starts = np.concatenate(([0], np.cumsum(flat)[:-1]))
        offs.array[...] = starts.reshape(mask + 1, p).T
        pool.run_phase(
            _permute_task,
            [(src.handle, dst.handle, offs.handle, p, w, shift, mask)
             for w in range(p)],
            name=f"pass{k}.permute",
        )
        src, dst = dst, src
    return src
