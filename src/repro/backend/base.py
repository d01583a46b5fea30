"""The Backend abstraction: one runtime seam over every execution substrate.

A :class:`SortJob` describes *what* to sort; a :class:`Backend` decides
*how* (on the simulated DSM machine, or actually in parallel on the host);
a :class:`SortResult` is the uniform answer: sorted keys, a
:class:`~repro.smp.perf.PerfReport` in the paper's BUSY/LMEM/RMEM/SYNC
vocabulary, and an optional structured trace.  Everything above this seam
(public API, CLI, experiment grid, benchmarks) is backend-agnostic.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ..data.workloads import (
    decode_records,
    encode_records,
    float_to_sortable_u64,
    sortable_u64_to_float,
)
from ..faults.plan import FaultStats
from ..machine.config import MachineConfig
from ..machine.costs import CostModel, DEFAULT_COSTS
from ..smp.perf import PerfReport
from ..sorts.radix import SortOutcome
from ..trace import MemoryRecorder, TraceEvent, TraceRecorder

ALGORITHMS = ("radix", "sample")


def infer_key_bits(keys: np.ndarray) -> int:
    """Significant bits of the largest key (the paper: "the maximum key
    value determines how many iterations will actually be needed")."""
    if len(keys) == 0:
        return 1
    return max(1, int(keys.max()).bit_length())


def check_keys(keys: np.ndarray, algorithm: str) -> np.ndarray:
    """Shared request validation; returns the keys as a contiguous array."""
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )
    keys = np.ascontiguousarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if len(keys) == 0:
        raise ValueError("keys must be non-empty")
    return keys


def check_integer_keys(keys: np.ndarray, algorithm: str) -> np.ndarray:
    """:func:`check_keys` plus what the modeled (simulated and predicted)
    sorts require on top: non-negative integer keys."""
    keys = check_keys(keys, algorithm)
    if np.issubdtype(keys.dtype, np.signedinteger) and keys.min() < 0:
        raise ValueError("keys must be non-negative")
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError("radix/sample sorting requires integer keys")
    return keys


@dataclass(frozen=True)
class SortJob:
    """One sort request, understood by every backend.

    Field applicability per backend (``sim`` = simulated Origin2000,
    ``native`` = host multiprocessing, ``predict`` = calibrated analytic
    model):

    ============== ===== ======== ======== ==============================
    field          sim   native   predict  meaning
    ============== ===== ======== ======== ==============================
    keys           yes   yes      yes*     the workload (* ``predict``
                                           also accepts empty keys with
                                           ``distribution``+``n_labeled``
                                           set, deriving statistics from
                                           the named family instead)
    algorithm      yes   yes      yes      "radix" or "sample"
    model          yes   ignored  yes      programming model
    n_procs        yes   yes      yes      simulated processors / host
                                           worker processes; ``None`` =
                                           backend default (64 / cores)
    radix          yes   yes      yes      digit width (``None`` = the
                                           paper's per-algorithm best)
    machine        yes   ignored  yes      machine configuration
    costs          yes   ignored  yes      cost-model calibration
    n_labeled      yes   ignored  yes      labeled size for the cost
                                           model (scaled sampling)
    key_bits       yes   ignored  yes      key width driving pass count
                                           (``None`` infers from keys)
    distribution   ignored ignored yes     key-distribution family name
    ============== ===== ======== ======== ==============================

    Backends emit a :class:`RuntimeWarning` for fields set to non-default
    values that they ignore (see :func:`warn_ignored_fields`).
    """

    keys: np.ndarray = field(repr=False)
    algorithm: str = "radix"
    model: str = "shmem"
    n_procs: int | None = None
    radix: int | None = None
    machine: MachineConfig | None = None
    costs: CostModel = DEFAULT_COSTS
    n_labeled: int | None = None
    #: Simulated/predicted backends: key width driving the number of
    #: radix passes.  ``None`` infers it from the actual maximum key; the
    #: experiment grid pins it to the paper's 31-bit workload width so
    #: that sampled functional arrays still pay full-width pass counts.
    key_bits: int | None = None
    #: Predicted backend only: the key-distribution family whose expected
    #: workload statistics to predict from when ``keys`` is empty.
    distribution: str | None = None
    #: Record sorts: a payload array (same length as ``keys``) permuted
    #: alongside the keys.  Handled at the seam by
    #: :func:`prepare_workload`: the original index is packed into the
    #: low bits of a composite key, so every backend sorts records
    #: stably without algorithm changes.  All backends honor it.
    payload: np.ndarray | None = field(default=None, repr=False)


#: For each backend, the job fields it ignores, with the default value a
#: field must differ from before the backend warns about it.
_FIELD_DEFAULTS = {
    "model": "shmem",
    "machine": None,
    "costs": DEFAULT_COSTS,
    "n_labeled": None,
    "key_bits": None,
    "distribution": None,
}


def warn_ignored_fields(job: SortJob, backend_name: str, fields: tuple[str, ...]) -> None:
    """Warn (once per call site) about non-default job fields the backend
    will not honor -- a silently ignored ``machine=`` or ``costs=`` is a
    misconfigured experiment, not a preference."""
    ignored = [
        name
        for name in fields
        if getattr(job, name) != _FIELD_DEFAULTS[name]
    ]
    if ignored:
        warnings.warn(
            f"backend {backend_name!r} ignores SortJob field(s): "
            + ", ".join(ignored),
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class WorkloadPlan:
    """What :func:`prepare_workload` did, so the result can be undone.

    ``orig_keys`` holds the caller's keys when a permutation must be
    applied back (record sorts); ``idx_bits`` is the width of the index
    packed into each composite key; ``was_float`` marks keys that went
    through the order-preserving float<->uint64 transform.
    """

    orig_keys: np.ndarray | None
    payload: np.ndarray | None
    idx_bits: int = 0
    was_float: bool = False


def prepare_workload(job: SortJob) -> tuple[SortJob, WorkloadPlan | None]:
    """Normalize a widened workload into the integer keys backends sort.

    Float keys are mapped through the order-preserving transform
    (:mod:`repro.data.workloads`); record sorts pack the original index
    into the low bits of a composite key.  Returns the (possibly
    rewritten) job plus a plan for :func:`finish_workload`, or
    ``(job, None)`` when no normalization was needed.
    """
    keys = np.ascontiguousarray(job.keys)
    is_float = keys.size > 0 and np.issubdtype(keys.dtype, np.floating)
    if job.payload is None and not is_float:
        return job, None
    orig = keys
    if is_float:
        keys = float_to_sortable_u64(keys)
    key_bits = job.key_bits or infer_key_bits(keys)
    idx_bits = 0
    if job.payload is not None:
        payload = np.ascontiguousarray(job.payload)
        if payload.shape[:1] != keys.shape:
            raise ValueError(
                f"payload length {payload.shape[0] if payload.ndim else 0} "
                f"does not match {len(keys)} keys"
            )
        keys, idx_bits = encode_records(keys, key_bits)
    else:
        payload = None
    new_job = replace(
        job, keys=keys, payload=None, key_bits=infer_key_bits(keys)
    )
    return new_job, WorkloadPlan(
        orig_keys=orig if idx_bits else None,
        payload=payload,
        idx_bits=idx_bits,
        was_float=is_float,
    )


def finish_workload(
    result: "SortResult", plan: WorkloadPlan | None
) -> "SortResult":
    """Map a backend's sorted (composite) integer keys back to the
    caller's key dtype, carrying the payload permutation along."""
    if plan is None:
        return result
    keys = result.sorted_keys
    payload = None
    if plan.idx_bits:
        perm = decode_records(keys, plan.idx_bits)
        assert plan.orig_keys is not None
        keys = plan.orig_keys[perm]
        if plan.payload is not None:
            payload = plan.payload[perm]
    elif plan.was_float:
        keys = sortable_u64_to_float(keys)
    outcome = result.outcome
    if outcome is not None:
        # Keep the embedded simulation outcome consistent with the
        # caller-visible keys.
        outcome = replace(outcome, sorted_keys=keys)
    return replace(result, sorted_keys=keys, payload=payload, outcome=outcome)


@dataclass(frozen=True)
class SortResult:
    """Sorted keys plus uniform accounting, from any backend."""

    sorted_keys: np.ndarray = field(repr=False)
    report: PerfReport
    backend: str
    algorithm: str
    model_name: str | None
    n_procs: int
    radix: int | None
    trace: tuple[TraceEvent, ...] = ()
    #: Record sorts only: the payload permuted alongside the keys
    #: (``None`` for keys-only jobs).
    payload: np.ndarray | None = field(default=None, repr=False)
    #: Simulated backend only: the full simulation outcome (passes,
    #: communication matrices, ...).
    outcome: SortOutcome | None = None
    #: Native backend only: end-to-end host wall-clock seconds.
    wall_time_s: float | None = None
    #: Faults injected into and recovered during *this* sort, when an
    #: ambient :class:`~repro.faults.FaultPlan` was installed (else None).
    faults: FaultStats | None = None

    @property
    def time_ns(self) -> float:
        return self.report.total_time_ns

    @property
    def time_us(self) -> float:
        return self.report.total_time_us

    def speedup_vs(self, sequential_ns: float) -> float:
        return self.report.speedup_vs(sequential_ns)


class Backend(abc.ABC):
    """One execution substrate for :class:`SortJob` requests."""

    #: Registry key ("sim", "native").
    name: str = ""

    @abc.abstractmethod
    def run(
        self, job: SortJob, recorder: TraceRecorder | None = None
    ) -> SortResult:
        """Execute ``job``; record structured events into ``recorder``
        (or the ambient recorder when ``None``)."""

    # ------------------------------------------------------------------
    @staticmethod
    def _collect_trace(recorder: TraceRecorder | None) -> tuple[TraceEvent, ...]:
        """Events captured by ``recorder``, if it keeps any."""
        if isinstance(recorder, MemoryRecorder):
            return tuple(recorder.events)
        return ()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
