"""The sorting algorithms: sequential baseline, parallel radix, sample."""

from .common import (
    CommMatrices,
    ELEM_BYTES,
    LocalSortStats,
    RadixPassStats,
    SAMPLES_PER_PROC,
    WorkloadStats,
    apply_radix_pass,
    choose_splitters,
    digits_for_pass,
    estimate_support,
    measure_locality,
    n_passes,
    partition_counts,
    proc_histograms,
    radix_comm_matrices,
    select_samples,
)
from .program import ParallelRadixSort, ParallelSampleSort, drive, measure
from .radix import SortOutcome, default_machine
from .sequential import (
    SequentialResult,
    default_sequential_machine,
    sequential_radix_sort,
)

ALGORITHMS = {
    "radix": ParallelRadixSort,
    "sample": ParallelSampleSort,
}

__all__ = [
    "ALGORITHMS",
    "CommMatrices",
    "ELEM_BYTES",
    "LocalSortStats",
    "ParallelRadixSort",
    "ParallelSampleSort",
    "RadixPassStats",
    "SAMPLES_PER_PROC",
    "SequentialResult",
    "SortOutcome",
    "WorkloadStats",
    "apply_radix_pass",
    "choose_splitters",
    "default_machine",
    "default_sequential_machine",
    "digits_for_pass",
    "drive",
    "estimate_support",
    "measure",
    "measure_locality",
    "n_passes",
    "partition_counts",
    "proc_histograms",
    "radix_comm_matrices",
    "select_samples",
    "sequential_radix_sort",
]
