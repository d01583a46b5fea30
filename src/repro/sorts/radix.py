"""Parallel radix sort under any programming model (Section 3.1).

Per pass (one per radix digit): every process histograms its keys, local
histograms are accumulated globally (prefix tree under CC-SAS, Allgather
under MPI/SHMEM), and keys are permuted into the output array -- an
all-to-all personalized communication whose orchestration is the whole
difference between the models:

- CC-SAS writes each key straight to its (mostly remote) destination;
- CC-SAS-NEW / MPI / SHMEM first permute into local per-chunk buffers,
  then move contiguous chunks (separate messages per chunk for MPI, the
  variant the paper found faster; receiver-initiated gets for SHMEM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.access import BucketedAppend, SequentialScan
from ..machine.config import MachineConfig
from ..machine.placement import partition_home
from ..models import ProgrammingModel
from ..smp.perf import PerfReport
from ..smp.phases import Transport, uniform_compute
from ..smp.team import Team
from .common import (
    ELEM_BYTES,
    CommMatrices,
    RadixPassStats,
    WorkloadStats,
    apply_radix_pass,
    digits_for_pass,
    elem_bytes_for,
    measure_locality,
    proc_histograms,
    radix_comm_matrices,
)


@dataclass(frozen=True)
class SortOutcome:
    """Sorted keys plus the simulated performance of producing them."""

    sorted_keys: np.ndarray
    report: PerfReport
    algorithm: str
    model_name: str
    radix: int
    n_labeled: int
    n_procs: int
    passes: int

    @property
    def time_ns(self) -> float:
        return self.report.total_time_ns

    @property
    def time_us(self) -> float:
        return self.report.total_time_us

    def speedup_vs(self, sequential_ns: float) -> float:
        return self.report.speedup_vs(sequential_ns)


def default_machine(n_procs: int = 64, page_bytes: int = 64 * 1024) -> MachineConfig:
    """The paper's machine at full capacity scale, with the tuned page size
    (64 KB for 1M-64M keys; pass 256 KB for 256M, per Section 4)."""
    return MachineConfig.origin2000(
        n_processors=n_procs, scale=1, page_bytes=page_bytes
    )


def radix_histogram_phase(
    team: Team, tag: str, n_per: int, resident: bool,
    elem_bytes: int = ELEM_BYTES,
) -> None:
    """Emit one pass's histogram phase: every processor scans its
    partition once."""
    p = team.n_procs
    busy = np.full(p, team.costs.hist_busy_ns_per_key * n_per)
    home = partition_home(team.machine)
    pattern = [
        (SequentialScan(n_per, elem_bytes, resident=resident), home)
    ]
    team.compute(uniform_compute(f"{tag}.histogram", busy, [list(pattern)] * p))


def radix_permute_phase(
    team: Team,
    model: ProgrammingModel,
    tag: str,
    n_per: int,
    n: int,
    active_buckets: int,
    locality: float,
    comm: CommMatrices,
    fits: bool,
    elem_bytes: int = ELEM_BYTES,
) -> None:
    """Emit one pass's permutation compute phase plus the model's
    all-to-all exchange."""
    p = team.n_procs
    c = team.costs
    nb = active_buckets
    busy = np.full(p, c.permute_busy_ns_per_key * n_per)
    home = partition_home(team.machine)
    read = (SequentialScan(n_per, elem_bytes, resident=fits), home)

    if model.buffers_locally:
        # Permute into local contiguous chunk buffers, then exchange.
        write = (
            BucketedAppend(n_per, nb, elem_bytes, n_per * elem_bytes, locality),
            home,
        )
        team.compute(
            uniform_compute(f"{tag}.permute-local", busy, [[read, write]] * p)
        )
        model.exchange(
            team,
            f"{tag}.exchange",
            comm,
            locality=1.0,  # chunks are contiguous once buffered
        )
    else:
        # Original CC-SAS: keys go straight into the shared output
        # array.  Locally destined keys behave like a bucketed append
        # into the local partition; remote ones are the exchange.
        patterns = []
        buckets_local = max(1, nb // p)
        for i in range(p):
            diag_keys = int(comm.bytes_matrix[i, i] / elem_bytes)
            plist = [read]
            if diag_keys > 0:
                plist.append(
                    (
                        BucketedAppend(
                            diag_keys,
                            buckets_local,
                            elem_bytes,
                            n_per * elem_bytes,
                            locality,
                        ),
                        home,
                    )
                )
            patterns.append(plist)
        team.compute(uniform_compute(f"{tag}.permute-scattered", busy, patterns))
        model.exchange(
            team,
            f"{tag}.exchange",
            comm,
            locality=locality,
            writer_buckets=nb,
            span_bytes=float(n * elem_bytes),
        )


def measure_radix(
    keys: np.ndarray,
    p: int,
    radix: int,
    passes: int,
    scale: int,
    elem_bytes: int,
) -> tuple[tuple[RadixPassStats, ...], np.ndarray]:
    """Walk the passes over ``keys`` functionally: per pass, the
    statistics its phases consume (labeled-size traffic, write-stream
    locality, occupied buckets); at the end, the sorted keys."""
    n_actual_per = len(keys) // p
    cur = keys
    pass_stats = []
    for k in range(passes):
        digits = digits_for_pass(cur, k, radix)
        hist = proc_histograms(digits, p, radix)
        locality = measure_locality(digits, p)
        active_buckets = int(np.count_nonzero(hist.sum(axis=0))) or 1
        comm = radix_comm_matrices(
            hist, n_actual_per, scale, elem_bytes=elem_bytes
        )
        pass_stats.append(RadixPassStats(comm, locality, active_buckets))
        cur = apply_radix_pass(cur, digits)
    return tuple(pass_stats), cur


def drive_radix(team: Team, model: ProgrammingModel, stats: WorkloadStats) -> None:
    """Emit the phases of every pass: histogram, global accumulation,
    permutation + exchange, barrier."""
    n_per = stats.n // team.n_procs
    elem_bytes = elem_bytes_for(stats.key_bits)
    fits = n_per * elem_bytes <= team.machine.l2.size_bytes
    shmem_cached = model.exchange_transport is Transport.SHMEM_GET
    for k, ps in enumerate(stats.radix_passes):
        tag = f"pass{k}"
        # Data written by the previous pass is warm only if the
        # transport deposited it in the cache (SHMEM get) or it was
        # produced locally and fits.
        warm_in = fits and k > 0 and shmem_cached
        radix_histogram_phase(team, tag, n_per, warm_in, elem_bytes)
        model.accumulate_histograms(team, 1 << stats.radix, tag)
        radix_permute_phase(
            team, model, tag, n_per, stats.n,
            ps.active_buckets, ps.locality, ps.comm, fits, elem_bytes,
        )
        team.barrier(f"{tag}.barrier")
