"""Actually-parallel sample sort: the tasks and the phase program.

The paper's five steps (Section 3.2) run as two pool phases.  Step 1,
``local-sort``, sorts each worker's slice.  Steps 2-3 and the counting
half of step 4 run in the parent -- the "group leader" of the paper's
CC-SAS scheme -- between the phases: samples and splitters from the
sorted slices, then by binary search how many keys of each slice go to
each destination (p·(p-1) searches, cheaper than a barrier).  ``merge``
is the distribution and step 5 in one: the task of destination ``d``
pulls the runs bound for it, in worker order, into its range of the
output -- as a CC-SAS receiver reads remote data in place -- and sorts
that range.  One non-empty run needs no sort; two are merged by
``kind="stable"`` (timsort finds the runs), faster than a quicksort;
from three up timsort is no longer reliably faster and the default sort
runs (docs/PERF.md, "Sample sort in two phases").  Validation, the
pool, the lease and the result copy belong to the driver
(:func:`repro.native.run_plan`).

Both phases are double-buffered: a task reads one slab and overwrites
only its own range of the other (local sort src->dst, merge dst->src),
never mutating its input.  That makes each phase idempotent, which is
what lets a supervised :class:`~repro.native.pool.WorkerPool`
transparently re-run a phase after a worker crash or timeout.

Sample sort needs no blocked kernel -- every data movement is a
contiguous run copy -- but it needs protection against duplicate-heavy
inputs.  Runs of equal splitters would funnel the duplicated mass to one
destination; :func:`repro.sorts.common.partition_counts` spreads it over
the destinations sharing the value and, if the destination ranges are
still skewed beyond :data:`SPLITTER_SKEW_LIMIT`, the program stops and
tells the driver, which answers with one sequential ``np.sort`` rather
than letting one worker sort nearly everything behind a barrier the rest
idle at.
"""

from __future__ import annotations

import numpy as np

from ..sorts.common import (
    SAMPLES_PER_PROC,
    choose_splitters,
    partition_counts,
    select_samples,
)
from .arena import Lease, SlabView
from .kernels import slice_bounds
from .plan import Plan
from .pool import WorkerPool
from .shm import resolve

#: Give up on the parallel program when, even after duplicate-splitter
#: rebalancing, the largest destination range exceeds this multiple of the
#: ideal ``n / p`` share -- a merge phase that skewed would serialize on
#: one worker anyway.
SPLITTER_SKEW_LIMIT = 4.0


def _local_sort_task(args) -> None:
    """``src[lo:hi]`` sorted into ``dst[lo:hi]``, in the destination slab
    -- no range-sized temporary, ``src`` untouched."""
    (src_h, dst_h, lo, hi) = args
    out = resolve(dst_h)[lo:hi]
    out[...] = resolve(src_h)[lo:hi]
    out.sort()


def _merge_task(args) -> None:
    """One destination: its non-empty ``runs`` (``(start, stop)`` bounds in
    the sorted slices, worker order) copied to ``out[lo:]`` and sorted
    there."""
    (slices_h, out_h, lo, runs) = args
    slices, out = resolve(slices_h), resolve(out_h)
    hi = lo
    for start, stop in runs:
        out[hi : hi + stop - start] = slices[start:stop]
        hi += stop - start
    if len(runs) == 2:
        out[lo:hi].sort(kind="stable")
    elif len(runs) > 2:
        out[lo:hi].sort()


def sample_phases(
    pool: WorkerPool, bufs: Lease, keys: np.ndarray, chosen: Plan
) -> SlabView | None:
    """The phase program: two pool phases over the two data buffers leased
    from ``bufs``, on ``chosen.width`` tasks.  Returns the buffer holding
    ``keys`` sorted, or ``None`` after the local sorts when the splitters
    leave the destination ranges too skewed to be worth finishing."""
    n, p = len(keys), chosen.width
    # Raw keys live in ``src``, locally sorted slices in ``dst``; the
    # merge rebuilds ``src`` as the answer.
    src = bufs.from_array(keys)
    dst = bufs.empty((n,), keys.dtype)
    slices = [slice_bounds(n, p, w) for w in range(p)]
    pool.run_phase(
        _local_sort_task,
        [(src.handle, dst.handle, lo, hi) for lo, hi in slices],
        name="local-sort",
    )
    parts = [dst.array[lo:hi] for lo, hi in slices]
    splitters = choose_splitters(select_samples(parts, SAMPLES_PER_PROC), p)
    counts = partition_counts(parts, splitters)  # duplicates spread
    dest_totals = counts.sum(axis=0)
    if int(dest_totals.max()) > SPLITTER_SKEW_LIMIT * (n / p):
        return None
    # Where each run starts: its destination's range in the answer, and
    # its offset within its sorted slice.
    dest_base = np.cumsum(dest_totals) - dest_totals
    within = np.cumsum(counts, axis=1) - counts
    pool.run_phase(
        _merge_task,
        [(dst.handle, src.handle, int(dest_base[d]),
          [(lo + int(within[w, d]), lo + int(within[w, d] + counts[w, d]))
           for w, (lo, _) in enumerate(slices) if counts[w, d]])
         for d in range(p)],
        name="merge",
    )
    return src
