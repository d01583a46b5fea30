"""Cache-conscious compute kernels for the native hot path.

The paper's core claim is that sorting speed on CC-SAS machines is won
or lost on memory traffic per pass.  The native sorts therefore route
every per-element loop -- validation min/max, per-pass digit histograms,
and the stable counting-sort placement -- through one kernel,
:data:`NUMPY_KERNEL`.

It is blocked pure NumPy in the IPS4o style: each worker walks its slice
in cache-resident blocks (:data:`BLOCK_ELEMS` elements), classifies a
block's keys by digit, groups them with one plain sort of packed
``(digit << idx_bits) | position`` keys (whose low bits are the stable
grouping permutation), and stores each digit's keys as one contiguous
run at the bucket cursor -- contiguous per-bucket block writes instead
of per-element scattered stores.  The digits, packed keys and grouping
index live in scratch buffers allocated once per call.  Validation fuses
min and max into a single pass over memory.  Parity against a textbook
stable-``argsort`` placement is held by ``tests/native/test_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Elements per cache block for the blocked NumPy kernels: 16Ki int64
#: keys = 128 KiB.  A scatter block drags ~1 MiB of scratch with it
#: (digits, packed keys, grouping index, grouped keys, store index), which
#: this size keeps resident in a per-core L2; measured on ``native_large``
#: against 2**13, 2**15 and 2**16 (docs/PERF.md, "Grouping a block").
BLOCK_ELEMS = 1 << 14


def slice_bounds(n: int, p: int, w: int) -> tuple[int, int]:
    """Worker ``w``'s contiguous slice of ``n`` keys across ``p`` workers
    (the last worker absorbs the remainder)."""
    per = n // p
    lo = w * per
    hi = n if w == p - 1 else lo + per
    return lo, hi


@dataclass(frozen=True)
class Kernel:
    """One implementation of the hot-path primitives.

    ``minmax(a)``
        ``(min, max)`` of a non-empty 1-D integer array as Python ints,
        in a single pass over memory.
    ``histogram(a, shift, mask)``
        int64 counts of ``(a >> shift) & mask`` over ``mask + 1`` bins.
    ``scatter(src, dst, cursor, shift, mask)``
        Stable counting-sort placement: write ``src``'s keys into the
        global ``dst`` at per-digit positions starting from ``cursor``
        (an int64 array of ``mask + 1`` running bucket cursors, advanced
        in place), preserving the original order of equal digits.
    """

    name: str
    minmax: Callable[[np.ndarray], tuple[int, int]]
    histogram: Callable[[np.ndarray, int, int], np.ndarray]
    scatter: Callable[[np.ndarray, np.ndarray, np.ndarray, int, int], None]


# ----------------------------------------------------------------------
# Engineered pure-NumPy kernels (blocked)
# ----------------------------------------------------------------------
def _np_minmax(a: np.ndarray) -> tuple[int, int]:
    """Fused validation scan: one pass over memory for both extrema.

    Each block is reduced twice while L2-resident, so the array itself is
    streamed from memory exactly once (separate ``a.min()`` and
    ``a.max()`` calls would stream it twice).
    """
    lo = a[0]
    hi = a[0]
    for s in range(0, len(a), BLOCK_ELEMS):
        blk = a[s : s + BLOCK_ELEMS]
        blo = blk.min()
        bhi = blk.max()
        if blo < lo:
            lo = blo
        if bhi > hi:
            hi = bhi
    return int(lo), int(hi)


def _digits(blk: np.ndarray, shift: int, mask: int, out: np.ndarray) -> np.ndarray:
    """``(blk >> shift) & mask`` written into the int64 scratch ``out``."""
    d = out[: len(blk)]
    np.right_shift(blk, shift, out=d)
    np.bitwise_and(d, mask, out=d)
    return d


def _np_histogram(a: np.ndarray, shift: int, mask: int) -> np.ndarray:
    nb = mask + 1
    out = np.zeros(nb, dtype=np.int64)
    digit = np.empty(min(BLOCK_ELEMS, len(a)), dtype=np.int64)
    for s in range(0, len(a), BLOCK_ELEMS):
        out += np.bincount(_digits(a[s : s + BLOCK_ELEMS], shift, mask, digit),
                           minlength=nb)
    return out


def _np_scatter(
    src: np.ndarray,
    dst: np.ndarray,
    cursor: np.ndarray,
    shift: int,
    mask: int,
) -> None:
    """Blocked stable placement with contiguous per-bucket run stores.

    Per L2-resident block: extract the digits, count them, and group the
    block's keys by digit with one plain sort of packed keys ``(digit <<
    idx_bits) | position``.  The packed keys are distinct, so the sort
    needs no stability of its own: equal digits come out in position
    order, and the low ``idx_bits`` bits are the stable grouping
    permutation.  Every digit's keys are then stored as one contiguous
    run at that bucket's cursor.  The only non-sequential access is one
    store per *run* rather than per *element*, which is the IPS4o
    blocked-bucket discipline this pass borrows.
    """
    nb = mask + 1
    m = min(BLOCK_ELEMS, len(src))
    idx_bits = (BLOCK_ELEMS - 1).bit_length()
    packed_dtype = np.uint32 if mask.bit_length() + idx_bits <= 32 else np.uint64
    # Scratch for the whole call: every block but the last is full-size.
    digit = np.empty(m, dtype=np.int64)
    packed = np.empty(m, dtype=packed_dtype)
    position = np.arange(m, dtype=packed_dtype)
    order = np.empty(m, dtype=np.intp)
    arange = np.arange(m, dtype=np.int64)
    for s in range(0, len(src), BLOCK_ELEMS):
        blk = src[s : s + BLOCK_ELEMS]
        k = len(blk)
        d = _digits(blk, shift, mask, digit)
        counts = np.bincount(d, minlength=nb)
        p = packed[:k]
        np.copyto(p, d, casting="unsafe")
        p <<= idx_bits
        p |= position[:k]
        p.sort()
        # Mask to an intp index *before* the gather: fancy indexing
        # with an unsigned 32-bit index is ~3x slower.
        o = order[:k]
        np.bitwise_and(p, (1 << idx_bits) - 1, out=o, casting="unsafe")
        grouped = blk[o]
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # Element j of the grouped block (digit d, in-block rank
        # j - starts[d]) lands at cursor[d] + (j - starts[d]): one
        # piecewise-linear index vector, runs stored contiguously.
        idx = np.repeat(cursor - starts, counts)
        idx += arange[:k]
        dst[idx] = grouped
        cursor += counts


NUMPY_KERNEL = Kernel("numpy", _np_minmax, _np_histogram, _np_scatter)


def resolve() -> Kernel:
    """The native kernel: :data:`NUMPY_KERNEL`, the only one."""
    return NUMPY_KERNEL
