"""The sequential radix sort -- the paper's common speedup baseline.

"We first examine speedups ... measuring them with respect to the same
sequential radix sorting program for both algorithms and all models"
(Section 4).  Table 1 lists its times for Gauss keys from 1M to 256M.

The cost model sorts at the *labeled* size against the unscaled machine;
the functional pass runs on whatever array is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.distributions import KEY_BITS
from ..machine.access import BucketedAppend, SequentialScan
from ..machine.config import MachineConfig
from ..machine.costs import CostModel, DEFAULT_COSTS
from ..machine.memory import MemorySystem
from .common import (
    ELEM_BYTES,
    apply_radix_pass,
    digits_for_pass,
    measure_locality,
    n_passes,
)


@dataclass(frozen=True)
class SequentialResult:
    sorted_keys: np.ndarray
    time_ns: float
    per_pass_ns: tuple[float, ...]
    busy_ns: float
    mem_ns: float
    radix: int
    n_labeled: int

    @property
    def time_us(self) -> float:
        return self.time_ns / 1000.0


def default_sequential_machine(page_bytes: int = 16 * 1024) -> MachineConfig:
    """One Origin2000 processor at the machine's default 16 KB page size.

    Table 1's uniprocessor baseline reflects default pages; the paper's
    64 KB / 256 KB page-size tuning quote concerns the parallel runs.
    Larger pages would hide the TLB pressure that makes the baseline grow
    superlinearly with n -- the very effect behind the paper's superlinear
    parallel speedups.
    """
    return MachineConfig.origin2000(n_processors=2, scale=1, page_bytes=page_bytes)


def sequential_pass_ns(
    memsys: MemorySystem,
    costs: CostModel,
    n: int,
    radix: int,
    locality: float,
) -> float:
    """Modeled uniprocessor cost of one LSD pass over ``n`` labeled keys:
    per-key busy work plus the three memory streams (histogram read,
    permutation read, bucketed scatter at the given destination
    locality).  Shared by :func:`sequential_radix_sort` (measured
    locality) and the analytic baseline in :mod:`repro.predict`
    (closed-form locality)."""
    nb = 1 << radix
    busy = (costs.hist_busy_ns_per_key + costs.permute_busy_ns_per_key) * n
    mem = (
        # histogram pass reads the input once...
        memsys.pattern_time(SequentialScan(n, ELEM_BYTES)).total_ns
        # ...the permutation reads it again...
        + memsys.pattern_time(SequentialScan(n, ELEM_BYTES)).total_ns
        # ...and scatters writes across the radix buckets of the output.
        + memsys.pattern_time(
            BucketedAppend(n, nb, ELEM_BYTES, n * ELEM_BYTES, locality=locality)
        ).total_ns
    )
    return busy + mem


def sequential_radix_sort(
    keys: np.ndarray,
    radix: int = 8,
    n_labeled: int | None = None,
    machine: MachineConfig | None = None,
    costs: CostModel = DEFAULT_COSTS,
    key_bits: int = KEY_BITS,
) -> SequentialResult:
    """Sort ``keys`` by LSD radix sort while modeling uniprocessor time.

    ``n_labeled`` sizes the cost model (defaults to ``len(keys)``); the
    functional sort always runs on the actual array.
    """
    keys = np.ascontiguousarray(keys)
    n_actual = len(keys)
    n = n_labeled if n_labeled is not None else n_actual
    if n_actual == 0:
        return SequentialResult(keys, 0.0, (), 0.0, 0.0, radix, max(n, 0))
    if n < n_actual or (n_labeled is not None and n % n_actual != 0):
        raise ValueError("n_labeled must be a multiple of len(keys)")
    machine = machine or default_sequential_machine()
    memsys = MemorySystem(machine, costs)

    passes = n_passes(radix, key_bits)
    cur = keys
    per_pass: list[float] = []
    busy_total = 0.0
    mem_total = 0.0
    for k in range(passes):
        digits = digits_for_pass(cur, k, radix)
        locality = measure_locality(digits, 1)
        busy = (costs.hist_busy_ns_per_key + costs.permute_busy_ns_per_key) * n
        mem = sequential_pass_ns(memsys, costs, n, radix, locality) - busy
        per_pass.append(busy + mem)
        busy_total += busy
        mem_total += mem
        cur = apply_radix_pass(cur, digits)

    return SequentialResult(
        sorted_keys=cur,
        time_ns=busy_total + mem_total,
        per_pass_ns=tuple(per_pass),
        busy_ns=busy_total,
        mem_ns=mem_total,
        radix=radix,
        n_labeled=n,
    )
