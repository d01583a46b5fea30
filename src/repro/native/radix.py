"""Actually-parallel LSD radix sort via multiprocessing + shared memory.

The algorithm is the paper's parallel radix sort (Section 3.1): per pass,
every worker histograms its slice (phase barrier), global offsets are
computed from the histogram matrix, and every worker permutes its keys to
their global positions in the shared output array.  The pool's ``map``
barriers stand in for the machine's barriers; the shared-memory output
array is the CC-SAS shared output array.

The per-element work runs through the cache-conscious kernel layer
(:mod:`repro.native.kernels`): validation is one fused min/max pass whose
max seeds ``key_bits`` (so a 16-bit workload pays 2 passes, not 3), each
permute is a blocked stable counting placement writing contiguous
per-bucket runs (no ``argsort``-based rank reconstruction, no defensive
chunk copy, no per-element scattered stores), and
``REPRO_NATIVE_KERNEL=numba`` swaps in single-loop JIT kernels with a
pure-NumPy fallback.  Tasks carry the parent's resolved kernel name so
every worker uses the same implementation.

Supervised-retry safety: a permute task reads ``src`` and ``offs`` (both
unmodified -- each task advances a private cursor copy) and overwrites
its keys' ``dst`` positions, so re-running any task after a worker crash
is idempotent.
"""

from __future__ import annotations

import numpy as np

from ..sorts.common import n_passes
from .kernels import resolve as resolve_kernel
from .kernels import slice_bounds
from .plan import DEFAULT_RADIX, plan
from .pool import WorkerPool, workers_available
from .shm import resolve


def _hist_task(args) -> None:
    (src_h, hist_h, p, w, shift, mask, kern_name) = args
    src, hist = resolve(src_h), resolve(hist_h)
    lo, hi = slice_bounds(len(src), p, w)
    hist[w, :] = resolve_kernel(kern_name).histogram(src[lo:hi], shift, mask)


def _permute_task(args) -> None:
    (src_h, dst_h, offs_h, p, w, shift, mask, kern_name) = args
    src, dst, offs = resolve(src_h), resolve(dst_h), resolve(offs_h)
    lo, hi = slice_bounds(len(src), p, w)
    # Private running cursors: the shared offset matrix stays pristine,
    # which keeps a supervised re-run of this task idempotent.
    cursor = offs[w].copy()
    resolve_kernel(kern_name).scatter(src[lo:hi], dst, cursor, shift, mask)


def parallel_radix_sort(
    keys: np.ndarray,
    n_workers: int | None = None,
    radix: int = DEFAULT_RADIX,
    pool: WorkerPool | None = None,
    kernel: str | None = None,
) -> np.ndarray:
    """Sort non-negative integer keys with a parallel LSD radix sort.

    Returns a new sorted array; ``keys`` is left untouched.  Pass a
    :class:`~repro.native.pool.WorkerPool` to amortize worker startup
    *and* shared memory over several sorts: the buffers are leased from
    ``pool.arena``, so only the first sort of a size creates, maps and
    faults them in.  ``kernel`` pins a kernel implementation by name
    (default: the ``REPRO_NATIVE_KERNEL`` environment variable, see
    :mod:`repro.native.kernels`).
    """
    keys = np.ascontiguousarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if len(keys) == 0:
        return keys.copy()
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError("radix sort requires integer keys")
    if not 1 <= radix <= 20:
        raise ValueError("radix must be in [1, 20]")

    kern = resolve_kernel(kernel)
    # Fused validation: one pass over memory yields both the
    # non-negativity check and the max that sizes the pass count.
    lo_key, hi_key = kern.minmax(keys)
    if lo_key < 0:
        raise ValueError("radix sort requires non-negative keys")
    key_bits = max(1, int(hi_key).bit_length())
    passes = n_passes(radix, key_bits)
    mask = (1 << radix) - 1
    n = len(keys)

    own_pool = pool is None
    p = plan(
        n, workers_available(pool, n_workers), key_bits, keys.dtype, "radix"
    ).width
    if p == 1:
        # The plan's "no pool, no segment": the keys are already
        # validated non-negative integers, so one sequential sort is the
        # whole job.
        return np.sort(keys)
    pool = pool or WorkerPool(n_workers)
    try:
        with pool.arena.buffers() as bufs:
            src = bufs.from_array(keys)
            dst = bufs.empty((n,), keys.dtype)
            hist = bufs.empty((p, mask + 1), np.int64)
            offs = bufs.empty((p, mask + 1), np.int64)
            for k in range(passes):
                shift = k * radix
                pool.run_phase(
                    _hist_task,
                    [(src.handle, hist.handle, p, w, shift, mask, kern.name)
                     for w in range(p)],
                    name=f"pass{k}.histogram",
                )
                # Global exclusive offsets, digit-major then worker-major --
                # the same stable permutation the simulated sorts perform.
                flat = hist.array.T.reshape(-1)
                starts = np.concatenate(([0], np.cumsum(flat)[:-1]))
                offs.array[...] = starts.reshape(mask + 1, p).T
                pool.run_phase(
                    _permute_task,
                    [(src.handle, dst.handle, offs.handle, p, w, shift, mask,
                      kern.name) for w in range(p)],
                    name=f"pass{k}.permute",
                )
                src, dst = dst, src
            return src.array.copy()
    finally:
        if own_pool:
            pool.close()
