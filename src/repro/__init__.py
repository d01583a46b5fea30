"""repro: Parallel Sorting on Cache-coherent DSM Multiprocessors.

A full reproduction of Shan & Singh (SC 1999): parallel radix and sample
sorting under three programming models (CC-SAS, MPI, SHMEM) on a simulated
SGI Origin2000, plus a real ``multiprocessing``-based parallel sorting
backend for the host machine.

Quick start::

    import numpy as np
    import repro

    keys = repro.data.generate("gauss", 1 << 18, 64)
    out = repro.sort(keys, algorithm="radix", model="shmem",
                     backend="sim", n_procs=64)
    print(out.time_us, out.report.category_fractions())

    host = repro.sort(keys, algorithm="sample", backend="native")
    print(host.wall_time_s, host.report.category_means_ns())

Packages:

- :mod:`repro.machine` -- the simulated CC-NUMA machine
- :mod:`repro.sim` -- discrete-event simulation kernel
- :mod:`repro.smp` -- SPMD phase runtime and perf accounting
- :mod:`repro.models` -- CC-SAS / MPI / SHMEM programming models
- :mod:`repro.sorts` -- the sorting algorithms
- :mod:`repro.data` -- the paper's eight key distributions
- :mod:`repro.backend` -- the unified Backend seam (sim | predict | native)
- :mod:`repro.trace` -- structured event tracing + Chrome-trace export
- :mod:`repro.core` -- public API and experiment grid
- :mod:`repro.report` -- per-table/figure reproduction harnesses
- :mod:`repro.native` -- real multiprocessing parallel sorts
"""

from . import data, machine, models, report, sim, smp, sorts, trace
from . import backend as backends
from .backend import (
    Backend,
    NativeBackend,
    SimulatedBackend,
    SortJob,
    SortResult,
    get_backend,
)
from .core import (
    ExperimentRunner,
    RunSpec,
    SIZES,
    sequential_baseline,
    sort,
)
from .machine import CostModel, MachineConfig
from .sorts import SortOutcome
from .trace import MemoryRecorder, write_chrome_trace

__version__ = "1.0.0"

__all__ = [
    "Backend",
    "CostModel",
    "ExperimentRunner",
    "MachineConfig",
    "MemoryRecorder",
    "NativeBackend",
    "RunSpec",
    "SIZES",
    "SimulatedBackend",
    "SortJob",
    "SortOutcome",
    "SortResult",
    "backends",
    "data",
    "get_backend",
    "machine",
    "models",
    "report",
    "sequential_baseline",
    "sim",
    "smp",
    "sort",
    "sorts",
    "trace",
    "write_chrome_trace",
]
