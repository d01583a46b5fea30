"""Top-level public API.

The main entry point is :func:`sort` -- one call that runs a parallel
sort on either execution substrate behind the unified
:class:`~repro.backend.Backend` seam:

- ``backend="sim"`` sorts on the simulated cache-coherent DSM machine
  under a chosen algorithm/programming model and reports simulated
  per-processor time (the paper's BUSY/LMEM/RMEM/SYNC accounting);
- ``backend="native"`` sorts for real across host processes and reports
  measured wall-clock per-worker time in the same report shape.

Pass ``trace=True`` (or a :class:`~repro.trace.TraceRecorder`) to capture
a structured event trace; export it with
:func:`repro.trace.write_chrome_trace`.
"""

from __future__ import annotations

import numpy as np

from ..backend import ALGORITHMS, SortJob, SortResult, get_backend, infer_key_bits
from ..machine.config import MachineConfig
from ..machine.costs import CostModel, DEFAULT_COSTS
from ..sorts.sequential import SequentialResult, sequential_radix_sort
from ..trace import MemoryRecorder, TraceRecorder

__all__ = [
    "ALGORITHMS",
    "sequential_baseline",
    "sort",
]


def sort(
    keys: np.ndarray,
    algorithm: str = "radix",
    backend: str = "sim",
    *,
    model: str = "shmem",
    n_procs: int | None = None,
    radix: int | None = None,
    machine: MachineConfig | None = None,
    costs: CostModel = DEFAULT_COSTS,
    n_labeled: int | None = None,
    key_bits: int | None = None,
    distribution: str | None = None,
    payload: np.ndarray | None = None,
    trace: bool | TraceRecorder = False,
) -> SortResult:
    """Sort ``keys`` on the chosen backend and report where time goes.

    Parameters
    ----------
    keys:
        One-dimensional keys.  The simulated backend requires
        non-negative integers whose length divides evenly by ``n_procs``;
        the native sample sort accepts any sortable dtype.  The predicted
        backend additionally accepts an *empty* array together with
        ``distribution=`` and ``n_labeled=`` to predict a paper-scale run
        without materializing its keys.
    algorithm:
        ``"radix"`` or ``"sample"``.
    backend:
        ``"sim"`` (simulated DSM machine), ``"native"`` (real host
        processes) or ``"predict"`` (calibrated analytic model).
    model:
        Simulated backend only: ``"ccsas"``, ``"ccsas-new"``,
        ``"mpi-new"``, ``"mpi-sgi"`` or ``"shmem"``.
    n_procs:
        Simulated processors (16/32/64 in the paper; default 64) or
        native worker processes (default: all cores, see
        ``REPRO_WORKERS``).
    radix:
        Radix-digit width; defaults to the backend/algorithm's tuned
        choice.
    machine, costs, n_labeled:
        Simulated/predicted backends only: machine description, cost
        constants, and the labeled size for scale extrapolation (see
        DESIGN.md).
    key_bits:
        Significant key bits (default: inferred from the keys).
    distribution:
        Predicted backend only: distribution family name for key-free
        prediction (see ``repro.data.generate``).
    payload:
        Record sorts: an array of the same length permuted alongside the
        keys (returned in the result's ``payload`` field).  Handled at
        the backend seam, so every backend supports it.
    trace:
        ``True`` records a structured trace into the result's ``trace``
        field; a :class:`~repro.trace.TraceRecorder` records into that
        recorder instead.

    Returns
    -------
    SortResult
        Sorted keys, a :class:`~repro.smp.perf.PerfReport`, and the
        captured trace events (if tracing was requested).
    """
    recorder: TraceRecorder | None
    if trace is True:
        recorder = MemoryRecorder()
    elif trace is False or trace is None:
        recorder = None
    else:
        recorder = trace
    job = SortJob(
        keys=np.asarray(keys),
        algorithm=algorithm,
        model=model,
        n_procs=n_procs,
        radix=radix,
        machine=machine,
        costs=costs,
        n_labeled=n_labeled,
        key_bits=key_bits,
        distribution=distribution,
        payload=None if payload is None else np.asarray(payload),
    )
    return get_backend(backend).run(job, recorder=recorder)


def sequential_baseline(
    keys: np.ndarray,
    radix: int = 8,
    n_labeled: int | None = None,
    machine: MachineConfig | None = None,
    costs: CostModel = DEFAULT_COSTS,
) -> SequentialResult:
    """The paper's shared uniprocessor baseline for speedup computation."""
    keys = np.asarray(keys)
    return sequential_radix_sort(
        keys, radix=radix, n_labeled=n_labeled, machine=machine, costs=costs,
        key_bits=infer_key_bits(keys),
    )
