"""Shared machinery for the parallel sorts.

The functional side (actually sorting NumPy arrays) and the performance
side (per-pass histograms, traffic and chunk matrices for the phase
executor) are computed together, pass by pass.

Scale extrapolation
-------------------
Experiments run the *functional* arrays at ``1/scale`` of the labeled data
set size (sorting 256M keys per grid point would be pointless work), but
the performance model must see labeled-size quantities.  Byte counts scale
exactly (multiply by ``scale``); chunk counts do not, because a digit cell
that is empty in the sample may be occupied at full size.  We therefore
estimate, per (source, destination) block, the *support* -- how many digit
cells the distribution can actually occupy -- from the observed occupancy
via the uniform-occupancy inversion ``D = S * (1 - exp(-m/S))``, then
re-evaluate occupancy at the labeled key count.  The estimator is exact in
the two regimes that matter: structurally empty cells (the ``half``
distribution's odd digits) stay empty, and undersampled uniform blocks
extrapolate to their true occupancy.  ``tests/sorts/test_common.py``
validates it against full-size measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..params import (  # re-exported
    ELEM_BYTES,
    KEY_BITS,
    SAMPLES_PER_PROC,
    elem_bytes_for,
)
from ..verify.context import current_sanitizer


def n_passes(radix: int, key_bits: int = KEY_BITS) -> int:
    """Number of radix-sort passes (the paper's 32/r, with 31-bit keys)."""
    if radix <= 0:
        raise ValueError("radix must be positive")
    return math.ceil(key_bits / radix)


def digits_for_pass(keys: np.ndarray, pass_idx: int, radix: int) -> np.ndarray:
    """The pass's radix digit of every key."""
    if pass_idx < 0:
        raise ValueError("pass index must be non-negative")
    shift = pass_idx * radix
    mask = (1 << radix) - 1
    return (keys >> shift) & mask


def proc_histograms(digits: np.ndarray, p: int, radix: int) -> np.ndarray:
    """(p, 2**radix) per-process digit histogram; processes own equal
    contiguous slices."""
    n = len(digits)
    if p <= 0 or n % p != 0:
        raise ValueError(f"n={n} must be a positive multiple of p={p}")
    nb = 1 << radix
    per = n // p
    # bincount per slice, vectorized across processes via offset trick:
    # digit + proc * nb is unique per (proc, digit) cell.
    owner = np.repeat(np.arange(p, dtype=np.int64), per)
    flat = np.bincount(owner * nb + digits.astype(np.int64), minlength=p * nb)
    return flat.reshape(p, nb)


def measure_locality(digits: np.ndarray, p: int) -> float:
    """Fraction of keys whose digit equals their predecessor's within the
    same partition -- the proxy for destination-stream locality that feeds
    the cache/TLB models (high for the paper's 'remote'/'local'
    distributions, ~2**-r for random ones)."""
    n = len(digits)
    if n < 2:
        return 0.0
    same = digits[1:] == digits[:-1]
    # Knock out comparisons across partition boundaries.
    per = n // p
    if per > 0:
        boundaries = np.arange(1, p) * per - 1
        boundaries = boundaries[boundaries < len(same)]
        same = same.copy()
        same[boundaries] = False
    return float(same.mean())


def apply_radix_pass(keys: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """One stable radix pass: reorder keys by the given digits (NumPy's
    stable sort on small integers is a counting/radix sort, O(n))."""
    order = np.argsort(digits, kind="stable")
    return keys[order]


# ----------------------------------------------------------------------
# Communication matrices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommMatrices:
    """Labeled-size traffic of one all-to-all permutation."""

    bytes_matrix: np.ndarray  # (p, p) payload bytes i -> j
    chunks_matrix: np.ndarray  # (p, p) contiguous chunk count i -> j

    @property
    def total_bytes(self) -> float:
        return float(self.bytes_matrix.sum())

    @property
    def remote_fraction(self) -> float:
        total = self.bytes_matrix.sum()
        if total == 0:
            return 0.0
        return float(1.0 - np.trace(self.bytes_matrix) / total)


@dataclass(frozen=True)
class RadixPassStats:
    """Statistics of one parallel radix-sort pass."""

    comm: CommMatrices
    locality: float
    active_buckets: int


@dataclass(frozen=True)
class LocalSortStats:
    """Statistics of one complete local radix sort (all passes)."""

    counts: np.ndarray  # (p,) labeled per-processor key counts
    actives: np.ndarray  # (passes, p) active write streams
    localities: np.ndarray  # (passes, p) destination locality


@dataclass(frozen=True)
class WorkloadStats:
    """Everything the phase driver needs to know about a workload."""

    algorithm: str
    n: int  # labeled key count
    p: int
    radix: int
    key_bits: int
    passes: int
    # Parallel radix sort:
    radix_passes: tuple[RadixPassStats, ...] = ()
    # Sample sort:
    local1: LocalSortStats | None = None
    local2: LocalSortStats | None = None
    distribute: CommMatrices | None = None


def check_workload(algorithm: str, n: int, p: int, radix: int) -> None:
    """Reject a workload shape no sorter (or predictor) can run."""
    if algorithm not in ("radix", "sample"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if n <= 0 or p <= 0 or n % p != 0:
        raise ValueError("n must be a positive multiple of n_procs")
    if not 1 <= radix <= 16:
        raise ValueError("radix must be in [1, 16]")


def estimate_support(observed_distinct: float, observed_keys: float, cap: float) -> float:
    """Invert ``D = S * (1 - exp(-m/S))`` for S given observed distinct
    cell count D and key count m, capped at the block's cell count."""
    d = float(observed_distinct)
    m = float(observed_keys)
    if d <= 0 or m <= 0:
        return 0.0
    if d >= cap:
        return cap
    if m <= d + 1e-9:
        # Every key hit a distinct cell: no collision evidence, assume the
        # support is as large as it can be.
        return cap
    # Newton iteration on f(S) = S(1 - exp(-m/S)) - d, monotone in S.
    s = max(d, 1.0)
    for _ in range(40):
        e = math.exp(-m / s)
        f = s * (1.0 - e) - d
        df = 1.0 - e - (m / s) * e
        if abs(df) < 1e-12:
            break
        step = f / df
        s -= step
        if s < d:
            s = d
        if s > cap:
            return cap
        if abs(step) < 1e-9 * max(1.0, s):
            break
    return min(max(s, d), cap)


def radix_comm_matrices(
    hist: np.ndarray,
    n_per_actual: int,
    scale: int = 1,
    elem_bytes: int = ELEM_BYTES,
) -> CommMatrices:
    """Traffic and chunk matrices of one radix permutation pass.

    ``hist`` is the measured (p, 2**r) per-process digit histogram at the
    *actual* (sample) size; ``scale`` extrapolates to the labeled size.
    The stable permutation sends process i's keys with digit d to one
    contiguous global segment; a segment intersecting a destination
    partition contributes one chunk there.
    """
    p, nb = hist.shape
    if n_per_actual <= 0 or scale <= 0:
        raise ValueError("sizes must be positive")
    h = hist.astype(np.float64) * scale
    n_per = float(n_per_actual * scale)

    digit_totals = h.sum(axis=0)  # (nb,)
    digit_base = np.concatenate(([0.0], np.cumsum(digit_totals)[:-1]))
    within = np.cumsum(h, axis=0) - h  # exclusive prefix across processes
    seg_start = digit_base[None, :] + within  # (p, nb)
    seg_len = h

    bytes_m = np.zeros((p, p))
    chunks_raw = np.zeros((p, p))
    # Candidate cell count per (i, j): digits whose global range touches j.
    candidates = np.zeros((p, p))
    digit_lo = digit_base
    digit_hi = digit_base + np.maximum(digit_totals, 1e-9)
    part_lo = np.arange(p) * n_per
    part_hi = part_lo + n_per
    # digit d's global segment intersects partition j?
    d_touches_j = (digit_lo[None, :] < part_hi[:, None]) & (
        digit_hi[None, :] > part_lo[:, None]
    )  # (p_dest, nb)
    cand_per_j = d_touches_j.sum(axis=1).astype(np.float64)  # (p,)

    for i in range(p):
        starts = seg_start[i]
        lens = seg_len[i]
        nz = lens > 0
        if not nz.any():
            continue
        s = starts[nz]
        ln = lens[nz]
        e = s + ln
        j0 = np.minimum((s / n_per).astype(np.int64), p - 1)
        j1 = np.minimum(((e - 1e-9) / n_per).astype(np.int64), p - 1)
        same = j0 == j1
        # Common case: segment inside one partition.
        np.add.at(bytes_m[i], j0[same], ln[same] * elem_bytes)
        np.add.at(chunks_raw[i], j0[same], 1.0)
        # Spanning segments (rare: at most p-1 per source).
        for k in np.nonzero(~same)[0]:
            a, b = float(s[k]), float(e[k])
            for j in range(int(j0[k]), int(j1[k]) + 1):
                lo = max(a, j * n_per)
                hi = min(b, (j + 1) * n_per)
                if hi > lo:
                    bytes_m[i, j] += (hi - lo) * elem_bytes
                    chunks_raw[i, j] += 1.0
        candidates[i, :] = cand_per_j

    if scale == 1:
        chunks = chunks_raw
    else:
        chunks = np.zeros((p, p))
        for i in range(p):
            for j in range(p):
                d_obs = chunks_raw[i, j]
                if d_obs == 0:
                    continue
                m_obs = bytes_m[i, j] / elem_bytes / scale  # sample keys
                cap = max(candidates[i, j], d_obs)
                support = estimate_support(d_obs, m_obs, cap)
                m_labeled = m_obs * scale
                if support <= 0:
                    continue
                chunks[i, j] = max(
                    d_obs, support * (1.0 - math.exp(-m_labeled / support))
                )
    san = current_sanitizer()
    if san is not None:
        # Key/byte conservation: every source ships exactly its partition
        # and the stable permutation fills every destination exactly.
        san.on_comm(
            bytes_m,
            chunks,
            row_bytes=h.sum(axis=1) * elem_bytes,
            col_bytes=n_per * elem_bytes,
            where="radix.comm",
        )
    return CommMatrices(bytes_m, chunks)


# ----------------------------------------------------------------------
# Sample sort helpers
# ----------------------------------------------------------------------


def select_samples(
    sorted_parts: list[np.ndarray], samples_per_proc: int = SAMPLES_PER_PROC
) -> np.ndarray:
    """Evenly spaced sample keys from each locally sorted partition."""
    picks = []
    for part in sorted_parts:
        if len(part) == 0:
            continue
        k = min(samples_per_proc, len(part))
        idx = (np.arange(k) * len(part)) // k
        picks.append(part[idx])
    if not picks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(picks)


def choose_splitters(samples: np.ndarray, p: int) -> np.ndarray:
    """p-1 splitters: every (len/p)-th key of the sorted sample."""
    if p <= 0:
        raise ValueError("p must be positive")
    if p == 1 or len(samples) == 0:
        return np.empty(0, dtype=np.int64)
    s = np.sort(samples)
    idx = (np.arange(1, p) * len(s)) // p
    return s[idx]


def partition_counts(
    sorted_parts: list[np.ndarray], splitters: np.ndarray
) -> np.ndarray:
    """(p, p) key counts: how many of process i's keys belong to each
    destination's splitter range (computed by binary search, since the
    local partitions are already sorted).

    Duplicate splitters get special handling: when heavy key duplication
    (e.g. the ``zero`` distribution's 10% zeros) makes several consecutive
    splitters equal, the keys equal to that value are spread evenly over
    the destinations sharing it instead of all landing on the last one --
    without this, one process would sort the entire duplicated mass.
    """
    p = len(sorted_parts)
    counts = np.zeros((p, p), dtype=np.int64)
    for i, part in enumerate(sorted_parts):
        # searchsorted boundaries: dest j gets keys in (split[j-1], split[j]]
        edges = np.searchsorted(part, splitters, side="right")
        bounds = np.concatenate(([0], edges, [len(part)]))
        counts[i] = np.diff(bounds)
    spread_duplicate_splitters(counts, splitters, sorted_parts)
    return counts


def spread_duplicate_splitters(
    counts: np.ndarray,
    splitters: np.ndarray,
    sorted_parts: list[np.ndarray],
) -> int:
    """Spread keys equal to a repeated splitter over its destinations.

    ``counts`` is the ``(p, p)`` matrix of ``searchsorted(side="right")``
    counts over ``sorted_parts`` and is mutated in place.  With that
    counting, a run of equal splitters ``splitters[j..k]`` sends *every*
    key equal to the value to destination ``j`` and leaves ``j+1..k``
    empty; this re-spreads each part's duplicates evenly across the
    ``k - j + 2`` destinations that may hold the value.  The result stays
    globally sorted: the duplicates form one contiguous run in each
    sorted part, so handing consecutive chunks of it to consecutive
    destinations keeps every destination's range contiguous.  Shared by
    the simulated sorts (:func:`partition_counts`) and the native sample
    sort.  Returns the number of duplicate-splitter runs spread.
    """
    runs = 0
    j = 0
    while j < len(splitters):
        k = j
        while k + 1 < len(splitters) and splitters[k + 1] == splitters[j]:
            k += 1
        if k > j:
            runs += 1
            value = splitters[j]
            dests = range(j, k + 2)  # destinations that may hold value
            for i, part in enumerate(sorted_parts):
                lo = int(np.searchsorted(part, value, side="left"))
                hi = int(np.searchsorted(part, value, side="right"))
                dup = hi - lo
                if dup == 0:
                    continue
                counts[i, j] -= dup
                share, rem = divmod(dup, len(dests))
                for idx, d in enumerate(dests):
                    counts[i, d] += share + (1 if idx < rem else 0)
        j = k + 1
    if runs and (counts < 0).any():
        raise AssertionError("duplicate-splitter rebalancing went negative")
    return runs
