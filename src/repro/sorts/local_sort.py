"""Local radix sorts: the functional walk and its phase emission.

Sample sort runs two complete local radix sorts (phases 1 and 5); parallel
radix sort's histogram/permutation passes reuse the same access-pattern
shapes.  This module walks the local passes functionally (per partition),
measuring each pass's statistics, and emits one compute phase per pass
with per-processor busy time and cache/TLB access patterns.

Residency matters here: when a processor's partition fits in its L2 cache,
passes after the first run out of cache -- this is precisely the
capacity-induced superlinear speedup the paper highlights for data sets of
16M keys and up (Section 4.2).
"""

from __future__ import annotations

import numpy as np

from ..machine.access import BucketedAppend, SequentialScan
from ..smp.phases import uniform_compute
from ..smp.team import Team
from ..machine.placement import partition_home
from .common import (
    ELEM_BYTES,
    LocalSortStats,
    apply_radix_pass,
    digits_for_pass,
    measure_locality,
)


def local_pass_stats(digits: np.ndarray, radix: int) -> tuple[int, float]:
    """Measured (active write streams, destination locality) of one local
    radix pass whose keys carry ``digits`` -- the workload statistics
    that drive the pass's cache/TLB cost."""
    locality = measure_locality(digits, 1)
    # Only the digit values that actually occur form write streams
    # (the 'half' distribution activates half the buckets).
    active = int(
        np.count_nonzero(
            np.bincount(digits.astype(np.int64), minlength=1 << radix)
        )
    ) or 1
    return active, locality


def local_sort_pass_phase(
    team: Team,
    name: str,
    k: int,
    labeled_counts: np.ndarray,
    actives: np.ndarray,
    localities: np.ndarray,
    received_cached: bool = False,
    elem_bytes: int = ELEM_BYTES,
) -> None:
    """Emit one local radix-sort pass as a compute phase.

    ``labeled_counts[i]`` is processor ``i``'s labeled key count,
    ``actives[i]``/``localities[i]`` its measured (or analytically
    derived) write-stream count and destination locality for this pass.
    ``received_cached`` marks the input as cache-resident at the start
    (true after a SHMEM ``get``, which deposits data in the cache).
    """
    p = team.n_procs
    if len(labeled_counts) != p:
        raise ValueError("labeled_counts must match team size")
    costs = team.costs
    l2_bytes = team.machine.l2.size_bytes
    per_key = costs.hist_busy_ns_per_key + costs.permute_busy_ns_per_key
    busy = np.zeros(p)
    patterns: list[list] = [[] for _ in range(p)]
    for i in range(p):
        n_i = float(labeled_counts[i])
        if n_i <= 0:
            continue
        busy[i] = per_key * n_i
        fits = n_i * elem_bytes <= l2_bytes
        hist_resident = fits and (k > 0 or received_cached)
        n_int = int(round(n_i))
        span = n_int * elem_bytes
        patterns[i] = [
            # Histogram pass reads the partition...
            (SequentialScan(n_int, elem_bytes, resident=hist_resident), None),
            # ...the permutation reads it again (now warm if it fits)...
            (SequentialScan(n_int, elem_bytes, resident=fits), None),
            # ...and appends into the radix buckets of the local output.
            (
                BucketedAppend(
                    n_int, int(actives[i]), elem_bytes, span,
                    locality=float(localities[i]),
                ),
                None,
            ),
        ]
    home = partition_home(team.machine)
    patterns = [
        [(pat, h or home) for pat, h in plist] for plist in patterns
    ]
    team.compute(uniform_compute(f"{name}.pass{k}", busy, patterns))


def local_sort_walk(
    parts: list[np.ndarray],
    labeled_counts: np.ndarray,
    radix: int,
    passes: int,
) -> tuple[LocalSortStats, list[np.ndarray]]:
    """Walk per-processor local radix sorts: measure every pass's
    statistics and return them with the functionally sorted partitions.

    ``parts[i]`` is processor ``i``'s actual (sample-size) data;
    ``labeled_counts[i]`` its labeled key count for the cost model.
    :func:`local_sort_pass_phase` prices one pass of the result.
    """
    p = len(parts)
    if len(labeled_counts) != p:
        raise ValueError("parts and labeled_counts must match in length")
    actives = np.ones((passes, p))
    localities = np.zeros((passes, p))
    cur = [np.asarray(part) for part in parts]
    for k in range(passes):
        for i in range(p):
            digits = digits_for_pass(cur[i], k, radix)
            if float(labeled_counts[i]) > 0:
                actives[k, i], localities[k, i] = local_pass_stats(digits, radix)
            # Functional pass, partition-local and stable.
            cur[i] = apply_radix_pass(cur[i], digits)
    stats = LocalSortStats(
        counts=np.asarray(labeled_counts, dtype=np.float64),
        actives=actives,
        localities=localities,
    )
    return stats, cur
