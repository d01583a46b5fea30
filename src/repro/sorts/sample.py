"""Parallel sample sort under any programming model (Section 3.2).

Five phases: (1) each process radix-sorts its own keys; (2) each selects
128 sample keys; (3) splitters are chosen from the collected samples
(group leaders under CC-SAS, Allgather + redundant local computation under
MPI/SHMEM); (4) keys are distributed in one all-to-all with exactly one
contiguous chunk per process pair; (5) each process sorts what it
received.  Sample sort thus does almost double the sorting work of radix
sort but its communication is far better behaved -- no scattered writes,
no per-chunk messages.
"""

from __future__ import annotations

import numpy as np

from ..models import ProgrammingModel
from ..smp.phases import Transport, uniform_compute
from ..smp.team import Team
from ..verify.context import current_sanitizer
from .common import (
    SAMPLES_PER_PROC,
    CommMatrices,
    LocalSortStats,
    WorkloadStats,
    choose_splitters,
    elem_bytes_for,
    partition_counts,
    select_samples,
)
from .local_sort import local_sort_pass_phase, local_sort_walk


def measure_sample(
    keys: np.ndarray,
    p: int,
    radix: int,
    passes: int,
    scale: int,
    elem_bytes: int,
) -> tuple[LocalSortStats, CommMatrices, LocalSortStats, np.ndarray]:
    """Walk the five phases' data plane over ``keys``: the statistics of
    the two local sorts and the labeled-size distribution traffic between
    them, plus the sorted keys."""
    n_actual_per = len(keys) // p
    n_per = n_actual_per * scale

    # Phase 1: local radix sort of the initial partitions.
    parts = [keys[i * n_actual_per : (i + 1) * n_actual_per] for i in range(p)]
    local1, sorted_parts = local_sort_walk(
        parts, np.full(p, n_per, dtype=np.int64), radix, passes
    )
    # Phases 2-3: evenly spaced samples, splitters from their union.
    splitters = choose_splitters(select_samples(sorted_parts), p)

    # Phase 4: destinations by binary search on the sorted partitions;
    # one contiguous chunk per process pair.
    counts = partition_counts(sorted_parts, splitters)
    distribute = CommMatrices(
        bytes_matrix=counts.astype(np.float64) * elem_bytes * scale,
        chunks_matrix=(counts > 0).astype(np.float64),
    )
    san = current_sanitizer()
    if san is not None:
        # Conservation: every process distributes exactly its whole
        # partition (receive sides are splitter-dependent).
        san.on_comm(
            distribute.bytes_matrix,
            distribute.chunks_matrix,
            row_bytes=float(n_per * elem_bytes),
            col_bytes=None,
            where="sample.distribute",
        )

    # Phase 5: local sort of the received keys.
    received = [
        np.concatenate(
            [sorted_parts[src][_range(counts, src, dst)] for src in range(p)]
        )
        if counts[:, dst].sum()
        else np.empty(0, dtype=keys.dtype)
        for dst in range(p)
    ]
    labeled_recv = counts.sum(axis=0).astype(np.int64) * scale
    local2, sorted_received = local_sort_walk(received, labeled_recv, radix, passes)
    return local1, distribute, local2, np.concatenate(sorted_received)


def _range(counts: np.ndarray, src: int, dst: int) -> slice:
    """Slice of src's sorted partition destined for dst."""
    start = int(counts[src, :dst].sum())
    return slice(start, start + int(counts[src, dst]))


def drive_sample(team: Team, model: ProgrammingModel, stats: WorkloadStats) -> None:
    """Emit the five phases (imbalance in what each process received
    shows up as barrier SYNC, exactly as on the real machine)."""
    p = team.n_procs
    n_per = stats.n // p
    elem_bytes = elem_bytes_for(stats.key_bits)
    ls1, ls2 = stats.local1, stats.local2

    for k in range(stats.passes):
        local_sort_pass_phase(
            team, "localsort1", k, ls1.counts, ls1.actives[k], ls1.localities[k],
            elem_bytes=elem_bytes,
        )
    # Sample selection is cheap and local: 128 strided reads.
    pick_busy = SAMPLES_PER_PROC * team.costs.splitter_busy_ns_per_key
    team.compute(uniform_compute("sample-select", np.full(p, pick_busy)))
    # Splitter selection under the model's collection scheme.
    model.gather_samples(team, float(SAMPLES_PER_PROC * elem_bytes), "splitters")
    decide_busy = np.full(p, np.log2(max(2, n_per)) * (p - 1) * 30.0)
    team.compute(uniform_compute("decide", decide_busy))
    model.exchange_for_sample(team, "distribute", stats.distribute, locality=1.0)
    sample_tp = model.sample_transport or model.exchange_transport
    got_cached = sample_tp in (Transport.SHMEM_GET, Transport.CCSAS_READ)
    for k in range(stats.passes):
        local_sort_pass_phase(
            team, "localsort2", k, ls2.counts, ls2.actives[k], ls2.localities[k],
            received_cached=got_cached, elem_bytes=elem_bytes,
        )
    team.barrier("final")
