"""Actually-parallel sample sort: the tasks and the phase program.

The paper's five phases (Section 3.2), with the pool's phase barriers
between them: local sort, sample selection, splitter computation,
all-to-all distribution into a shared output array, local sort of the
received ranges.  Validation, the pool, the lease and the result copy
belong to the driver (:func:`repro.native.run_plan`).

Every phase is double-buffered: a task reads one shared array and
overwrites its full output slice in the *other* (local sort src->dst,
scatter dst->src, final sort src->dst), never mutating its input.  That
makes each phase idempotent, which is what lets a supervised
:class:`~repro.native.pool.WorkerPool` transparently re-run a phase after
a worker crash or timeout.

Sample sort is naturally cache-conscious in the IPS4o sense: every data
movement is a contiguous block copy (the scatter moves whole per-dest
runs of the locally sorted slices into contiguous destination ranges),
so unlike radix it needs no blocked kernel -- what it *does* need is
protection against duplicate-heavy inputs.  When heavy key duplication
produces runs of equal splitters, the count phase funnels the entire
duplicated mass to one destination; the parent rebalances such runs
(:func:`repro.sorts.common.spread_duplicate_splitters`) and, if the
destination ranges are still skewed beyond
:data:`SPLITTER_SKEW_LIMIT`, stops the program and tells the driver,
which answers with one sequential ``np.sort`` rather than letting one
worker sort nearly everything behind a barrier the rest idle at.
"""

from __future__ import annotations

import numpy as np

from ..sorts.common import (
    SAMPLES_PER_PROC,
    choose_splitters,
    select_samples,
    spread_duplicate_splitters,
)
from .arena import Lease, SlabView
from .kernels import slice_bounds
from .plan import Plan
from .pool import WorkerPool
from .shm import resolve

#: Give up on the parallel program when, even after duplicate-splitter
#: rebalancing, the largest destination range exceeds this multiple of the
#: ideal ``n / p`` share -- a final-sort phase that skewed would serialize
#: on one worker anyway, and stopping skips the scatter traffic too.
SPLITTER_SKEW_LIMIT = 4.0


def _sort_range_task(args) -> None:
    """Both sort phases: ``src[lo:hi]`` sorted into ``dst[lo:hi]``, in the
    destination slab -- no range-sized temporary, ``src`` untouched."""
    (src_h, dst_h, lo, hi) = args
    out = resolve(dst_h)[lo:hi]
    out[...] = resolve(src_h)[lo:hi]
    out.sort()


def _count_task(args) -> None:
    (src_h, spl_h, counts_h, p, w) = args
    src = resolve(src_h)
    lo, hi = slice_bounds(len(src), p, w)
    part = src[lo:hi]
    edges = np.searchsorted(part, resolve(spl_h), side="right")
    bounds = np.concatenate(([0], edges, [len(part)]))
    resolve(counts_h)[w, :] = np.diff(bounds)


def _scatter_task(args) -> None:
    (src_h, dst_h, counts_h, place_h, p, w) = args
    src, dst = resolve(src_h), resolve(dst_h)
    counts, place = resolve(counts_h), resolve(place_h)
    start, _ = slice_bounds(len(src), p, w)
    for dest in range(p):
        c = int(counts[w, dest])
        if c:
            at = int(place[w, dest])
            dst[at : at + c] = src[start : start + c]
        start += c


def sample_phases(
    pool: WorkerPool, bufs: Lease, keys: np.ndarray, chosen: Plan
) -> SlabView | None:
    """The phase program: four pool phases over buffers leased from
    ``bufs``, on ``chosen.width`` tasks.  Returns the buffer holding
    ``keys`` sorted, or ``None`` after the count phase when the
    splitters leave the destination ranges too skewed to be worth
    finishing."""
    n, p = len(keys), chosen.width
    # Buffer roles per phase (double-buffering, see module docstring):
    # raw keys live in ``src``; locally-sorted runs in ``dst``; the
    # scatter rebuilds ``src`` as the globally-partitioned array; the
    # final sort writes the answer back into ``dst``.
    src = bufs.from_array(keys)
    dst = bufs.empty((n,), keys.dtype)
    spl = bufs.empty((p - 1,), keys.dtype)
    counts = bufs.empty((p, p), np.int64)
    place = bufs.empty((p, p), np.int64)
    # Phase 1: local sorts, src -> dst.
    pool.run_phase(
        _sort_range_task,
        [(src.handle, dst.handle, *slice_bounds(n, p, w)) for w in range(p)],
        name="local-sort",
    )
    # Phases 2-3: samples and splitters (tiny; done in the parent, the
    # "group leader" of the paper's CC-SAS scheme) from the sorted runs.
    parts = [dst.array[slice(*slice_bounds(n, p, w))] for w in range(p)]
    spl.array[...] = choose_splitters(select_samples(parts, SAMPLES_PER_PROC), p)
    # Phase 4a: destination counts over the sorted runs in dst.
    pool.run_phase(
        _count_task,
        [(dst.handle, spl.handle, counts.handle, p, w) for w in range(p)],
        name="count",
    )
    # Duplicate-heavy inputs: spread keys equal to a repeated splitter
    # over the destinations sharing it, and stop if the ranges are still
    # pathologically skewed.
    c = counts.array
    spread_duplicate_splitters(c, spl.array, parts)
    dest_totals = c.sum(axis=0)
    if int(dest_totals.max()) > SPLITTER_SKEW_LIMIT * (n / p):
        return None
    dest_base = np.concatenate(([0], np.cumsum(dest_totals)[:-1]))
    within = np.cumsum(c, axis=0) - c
    place.array[...] = dest_base[None, :] + within
    # Phase 4b: all-to-all scatter, dst -> src.
    pool.run_phase(
        _scatter_task,
        [(dst.handle, src.handle, counts.handle, place.handle, p, w)
         for w in range(p)],
        name="scatter",
    )
    # Phase 5: sort each destination range, src -> dst.
    bounds = np.concatenate((dest_base, [n])).astype(np.int64)
    pool.run_phase(
        _sort_range_task,
        [(src.handle, dst.handle, int(bounds[d]), int(bounds[d + 1]))
         for d in range(p)],
        name="final-sort",
    )
    return dst
