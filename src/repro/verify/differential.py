"""Differential verification across backends, models, machines and workloads.

Runs the model x algorithm x distribution grid through
:func:`repro.core.api.sort` on both execution substrates, with the
runtime sanitizer installed, and checks every run against the external
oracle ``np.sort``/``np.argsort``:

- the returned keys are exactly the sorted permutation of the input
  (payloads, where present, follow their keys through the stable
  reference permutation);
- the :class:`~repro.smp.perf.PerfReport` satisfies the accounting
  identity (enforced at the backend seam by the sanitizer);
- one traced run per backend exports a well-formed, per-track-monotone
  Chrome trace;
- the sanitizer's coverage counters prove each invariant family was
  actually evaluated -- a sweep that silently stopped checking is itself
  a failure.

Two orthogonal axes widen the sweep beyond the paper's grid
(ISSUE/docs/MACHINES.md):

- **machine**: every zoo member (:mod:`repro.machine.zoo`) runs the full
  workload matrix on the simulated backend, and machines the analytic
  predictor has no calibration artifact for must be *rejected* with a
  typed error (a silent mis-prediction is a failed cell);
- **workload**: 64-bit keys, IEEE doubles via the order-preserving
  transform, key+payload record sorts, and duplicate-heavy/adversarial
  anti-sampling distributions (:mod:`repro.data.workloads`).

Per-axis coverage counters (``axis.machine.*``, ``axis.workload.*``,
``axis.backend.*``, ``axis.negative.*``) prove every axis value was
actually exercised; an unfiltered sweep fails if any is zero.

With ``backend="predict"`` (or ``"all"``) the sweep additionally
cross-validates the analytic predictor: every simulated grid point on a
calibrated machine is re-predicted *on the same keys*, the predicted
report must satisfy the same structural invariants (sorted output,
shape, accounting identity), and the per-cell relative error of total
time against the simulation is aggregated -- the sweep fails if the
median absolute relative error over the paper's u32 workload exceeds
:data:`PREDICT_ERROR_GATE`.

Exposed as ``python -m repro check [--small] [--backend all|sim|native|predict]
[--machine NAME] [--workload KIND]``.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from ..data.workloads import NEW_WORKLOAD_KINDS, WORKLOAD_KINDS
from ..machine.zoo import MACHINES
from .context import current_sanitizer, use_sanitizer
from .errors import VerifyError
from .invariants import check_trace_events
from .sanitizer import Sanitizer

#: Models per algorithm (the paper's grid; sample sort has no CC-SAS-NEW
#: variant -- its distribution phase is already chunk-contiguous).
RADIX_MODELS = ("ccsas", "ccsas-new", "mpi-new", "mpi-sgi", "shmem")
SAMPLE_MODELS = ("ccsas", "mpi-new", "mpi-sgi", "shmem")
#: The grid's algorithm -> models pairing, in cell order.
ALGORITHM_MODELS = (("radix", RADIX_MODELS), ("sample", SAMPLE_MODELS))

#: ``--small`` keeps one distribution per communication regime: random
#: traffic (gauss), heavy duplication (zero), all-remote movement.
SMALL_DISTRIBUTIONS = ("gauss", "zero", "remote")

#: The machine-zoo members beyond the paper's Origin2000, each paired
#: with a programming model its transports support (the AP1000 has no
#: remote loads, so only message passing runs there).
NEW_MACHINES = tuple(m for m in MACHINES if m != "origin2000")
ALL_MACHINES = tuple(MACHINES)

#: Workload kinds beyond the paper's uint32 keys (repro.data.workloads).
NEW_WORKLOADS = NEW_WORKLOAD_KINDS
ALL_WORKLOADS = tuple(WORKLOAD_KINDS)

#: Host worker processes for the native runs (small arrays; fork cost
#: dominates real sorting here).
NATIVE_WORKERS = 2

#: Differential gate for the analytic predictor: the sweep fails if the
#: median absolute relative error of predicted vs. simulated total time
#: over the paper's u32 workload exceeds this fraction.
PREDICT_ERROR_GATE = 0.15

#: Backend selections for :func:`run_check`.
CHECK_BACKENDS = ("all", "sim", "native", "predict")

#: Invariant families a healthy full sweep must have evaluated at least
#: once.  A zero count means an instrumentation hook came unplugged.
REQUIRED_COVERAGE = (
    "sim.clock-monotone",
    "resource.mutual-exclusion",
    "resource.fifo-grant",
    "resource.idle-release",
    "channel.occupancy",
    "exchange.drained",
    "team.phase-outcome",
    "team.barrier-epoch",
    "comm.key-conservation",
    "report.accounting-identity",
)

#: Axis coverage an *unfiltered* sweep must prove: every machine, every
#: workload kind, every backend, and both typed-rejection families.
REQUIRED_AXIS_COVERAGE = tuple(
    [f"axis.machine.{m}" for m in ALL_MACHINES]
    + [f"axis.workload.{w}" for w in ALL_WORKLOADS]
    + ["axis.backend.sim", "axis.backend.native", "axis.backend.predict"]
    + [
        "axis.negative.UnsupportedTransportError",
        "axis.negative.UncalibratedMachineError",
    ]
)


def machine_model(machine: str) -> str:
    """A programming model whose transports ``machine`` supports."""
    return "mpi-new" if machine == "ap1000" else "shmem"


@dataclass(frozen=True)
class CheckCase:
    """One grid point of the differential sweep."""

    backend: str
    algorithm: str
    distribution: str
    n: int
    p: int
    model: str | None = None
    #: Machine-zoo member the simulated/predicted cell runs on.
    machine: str = "origin2000"
    #: Workload kind (repro.data.workloads) the cell sorts.
    workload: str = "u32"
    #: Negative cells: the exception type name the run MUST raise;
    #: completing without it (or with a different type) fails the cell.
    expect_error: str | None = None

    @property
    def label(self) -> str:
        model = f"/{self.model}" if self.model else ""
        extra = ""
        if self.machine != "origin2000":
            extra += f" @{self.machine}"
        if self.workload != "u32":
            extra += f" [{self.workload}]"
        if self.expect_error:
            extra += f" !{self.expect_error}"
        return (
            f"{self.backend}/{self.algorithm}{model} "
            f"{self.distribution} n={self.n} p={self.p}{extra}"
        )


@dataclass
class CaseResult:
    case: CheckCase
    ok: bool
    wall_s: float
    error: str | None = None


def default_grid(
    small: bool = False, native: bool = True
) -> list[CheckCase]:
    """The sweep: every model x algorithm x distribution on the simulated
    backend plus every algorithm x distribution natively (the paper's
    grid), then the machine-zoo x workload cross-product, the widened
    workloads on the paper's machine and the native backend, and the
    typed-rejection negative cells."""
    from ..data import PAPER_ORDER

    n, p = (16 * 128, 16) if small else (16 * 512, 16)
    dists = SMALL_DISTRIBUTIONS if small else tuple(PAPER_ORDER)
    cases = []
    for dist in dists:
        for algorithm, models in ALGORITHM_MODELS:
            for model in models:
                cases.append(CheckCase("sim", algorithm, dist, n, p, model))
        if native:
            for algorithm in ("radix", "sample"):
                cases.append(CheckCase("native", algorithm, dist, n, p))

    # Machine zoo x workload matrix: every new machine sorts every
    # workload kind (u32 included) under both algorithms.
    for machine in NEW_MACHINES:
        model = machine_model(machine)
        for workload in ALL_WORKLOADS:
            for algorithm in ("radix", "sample"):
                cases.append(
                    CheckCase(
                        "sim", algorithm, "gauss", n, p, model,
                        machine=machine, workload=workload,
                    )
                )

    # Widened workloads on the paper's machine and on the host.
    for workload in NEW_WORKLOADS:
        for algorithm in ("radix", "sample"):
            cases.append(
                CheckCase(
                    "sim", algorithm, "gauss", n, p, "shmem",
                    workload=workload,
                )
            )
            if native:
                cases.append(
                    CheckCase(
                        "native", algorithm, "gauss", n, p,
                        workload=workload,
                    )
                )

    # Negative cells: shared-address transports cannot run on the
    # AP1000, and the predictor must refuse machines it was never
    # calibrated for -- with *typed* errors, not silent wrong numbers.
    cases.append(
        CheckCase(
            "sim", "radix", "gauss", n, p, "shmem",
            machine="ap1000", expect_error="UnsupportedTransportError",
        )
    )
    for machine in NEW_MACHINES:
        cases.append(
            CheckCase(
                "predict", "radix", "gauss", n, p, machine_model(machine),
                machine=machine, expect_error="UncalibratedMachineError",
            )
        )
    return cases


def _case_workload(case: CheckCase):
    """Generate the case's workload and its NumPy reference."""
    from ..data.workloads import make_workload, reference_sort

    w = make_workload(
        case.workload, case.n, case.p, seed=1, distribution=case.distribution
    )
    return w, reference_sort(w)


def _count_axes(case: CheckCase) -> None:
    """Per-axis coverage accounting (proves each axis value really ran)."""
    san = current_sanitizer()
    if san is None:
        return
    san.checks[f"axis.backend.{case.backend}"] += 1
    san.checks[f"axis.machine.{case.machine}"] += 1
    san.checks[f"axis.workload.{case.workload}"] += 1
    if case.expect_error:
        san.checks[f"axis.negative.{case.expect_error}"] += 1


def _run_case(case: CheckCase, backend, workload, reference):
    """Run one grid point and verify it against the NumPy reference.

    ``workload``/``reference`` are :class:`repro.data.workloads.Workload`
    instances (input and oracle).  Negative cells (``expect_error`` set)
    pass when the run raises exactly that exception type and fail
    otherwise; positive cells compare keys (and payload) against the
    reference.  Returns the backend result, or ``None`` for negative
    cells.
    """
    from ..core.api import sort
    from ..data.workloads import Workload, workloads_equal
    from ..machine.zoo import get_machine

    machine = (
        get_machine(case.machine, n_procs=case.p)
        if case.machine != "origin2000"
        else None
    )
    kwargs = dict(
        algorithm=case.algorithm,
        backend=backend,
        model=case.model or "shmem",
        n_procs=case.p if case.backend != "native" else None,
        machine=machine,
        payload=workload.payload,
    )
    if case.expect_error:
        try:
            sort(workload.keys, **kwargs)
        except Exception as exc:  # noqa: BLE001 - typed comparison below
            if type(exc).__name__ == case.expect_error:
                _count_axes(case)
                return None
            raise VerifyError(
                "differential.expected-rejection",
                f"{case.label}: raised {type(exc).__name__} instead of "
                f"{case.expect_error}: {exc}",
            ) from exc
        raise VerifyError(
            "differential.expected-rejection",
            f"{case.label}: completed without raising {case.expect_error}",
        )

    result = sort(workload.keys, **kwargs)
    got = Workload(case.workload, result.sorted_keys, result.payload)
    if not workloads_equal(got, reference):
        if len(got.keys) == len(reference.keys):
            n_bad = int(np.count_nonzero(got.keys != reference.keys))
            detail = f"disagrees with NumPy at {n_bad}/{len(got.keys)} keys"
            if (
                got.payload is not None
                and reference.payload is not None
                and not np.array_equal(got.payload, reference.payload)
            ):
                detail += " (payload did not follow its keys)"
        else:
            detail = (
                f"returned {len(got.keys)} keys, expected "
                f"{len(reference.keys)}"
            )
        raise VerifyError(
            "differential.sorted-permutation", f"{case.label}: {detail}"
        )
    if case.backend in ("sim", "predict") and result.report.n_procs != case.p:
        raise VerifyError(
            "differential.report-shape",
            f"{case.label}: report covers {result.report.n_procs} "
            f"processors, expected {case.p}",
        )
    if result.time_ns <= 0:
        raise VerifyError(
            "differential.report-shape",
            f"{case.label}: report accumulated no time",
        )
    _count_axes(case)
    return result


def _traced_probes(san: Sanitizer, n: int, p: int, native_backend) -> None:
    """One traced run per backend; the export must be track-monotone."""
    from ..core.api import sort
    from ..data import generate

    keys = generate("gauss", n, p)
    result = sort(
        keys, algorithm="radix", backend="sim", model="mpi-new",
        n_procs=p, trace=True,
    )
    check_trace_events(result.trace)
    san.checks["trace.track-monotone"] += 1
    if native_backend is not None:
        result = sort(keys, algorithm="radix", backend=native_backend, trace=True)
        check_trace_events(result.trace)
        san.checks["trace.track-monotone"] += 1


def _sim_case_worker(
    case: CheckCase,
) -> tuple[bool, float, str | None, dict, float]:
    """Subprocess body for one simulated grid point under ``--parallel``:
    runs the case under a private sanitizer and ships the coverage
    counters (and the simulated total time, for the predictor's
    cross-validation) back for the parent to merge."""
    san = Sanitizer()
    t0 = time.perf_counter()
    error = None
    time_ns = 0.0
    with use_sanitizer(san):
        try:
            workload, reference = _case_workload(case)
            result = _run_case(case, "sim", workload, reference)
            if result is not None:
                time_ns = result.time_ns
        except Exception as exc:  # noqa: BLE001 - report, don't abort
            error = f"{type(exc).__name__}: {exc}"
    return error is None, time.perf_counter() - t0, error, dict(san.checks), time_ns


def _map_sim_cases_parallel(
    cases: list[CheckCase], parallel: int, san: Sanitizer
) -> dict[CheckCase, tuple[bool, float, str | None, float]]:
    """Fan the simulated grid points out over worker processes, merging
    each worker's coverage counters into ``san``."""
    import concurrent.futures as cf
    import multiprocessing as mp

    from ..native.pool import default_start_method

    sim_cases = [c for c in cases if c.backend == "sim"]
    if not sim_cases:
        return {}
    ctx = mp.get_context(default_start_method())
    done: dict[CheckCase, tuple[bool, float, str | None, float]] = {}
    workers = min(parallel, len(sim_cases))
    with cf.ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        for case, (ok, wall, error, checks, time_ns) in zip(
            sim_cases, pool.map(_sim_case_worker, sim_cases)
        ):
            done[case] = (ok, wall, error, time_ns)
            san.checks.update(checks)
    return done


def _predict_sweep(
    sim_cases: list[CheckCase],
    sim_times: dict[CheckCase, float],
    oracles: dict[tuple, tuple],
    results: list[CaseResult],
    out: IO[str],
) -> None:
    """Cross-validate the analytic predictor against every simulated grid
    point on a *calibrated* machine, appending one :class:`CaseResult`
    per prediction plus a final gate on the aggregate error band.

    The error band is computed over the paper's u32 workload (the cells
    the calibration artifact was fitted against); widened workloads are
    verified functionally and structurally but do not move the gate.
    """
    rel_errors: list[float] = []
    for case in sim_cases:
        if case.machine != "origin2000" or case.expect_error:
            continue  # the predictor rejects uncalibrated machines
        key = (case.workload, case.distribution, case.n, case.p)
        if key not in oracles:
            oracles[key] = _case_workload(case)
        workload, reference = oracles[key]
        pcase = replace(case, backend="predict")
        t0 = time.perf_counter()
        error = None
        note = ""
        try:
            result = _run_case(pcase, "predict", workload, reference)
            sim_ns = sim_times.get(case, 0.0)
            if result is not None and sim_ns > 0 and case.workload == "u32":
                rel = (result.time_ns - sim_ns) / sim_ns
                rel_errors.append(abs(rel))
                note = f" rel={rel:+.1%}"
        except Exception as exc:  # noqa: BLE001 - report, don't abort
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        results.append(CaseResult(pcase, error is None, wall, error))
        status = "ok" if error is None else "FAIL"
        print(
            f"  {pcase.label:<46} {status} ({wall * 1e3:.0f} ms){note}",
            file=out,
        )
        if error is not None:
            print(f"    {error}", file=out)

    gateable = [
        c for c in sim_cases
        if c.machine == "origin2000" and not c.expect_error
        and c.workload == "u32"
    ]
    if not gateable:
        # A filtered sweep (--machine/--workload) can exclude every u32
        # origin2000 cell; with nothing to fit the band against, there
        # is no gate to apply.
        print("  predict error band: no u32 cells in selection", file=out)
        return
    gate_case = CheckCase("predict", "error-band", "all", 0, 0)
    if not rel_errors:
        results.append(
            CaseResult(gate_case, False, 0.0, "no simulated times to compare")
        )
        return
    median = statistics.median(rel_errors)
    p95 = sorted(rel_errors)[max(0, int(round(0.95 * len(rel_errors))) - 1)]
    ok = median <= PREDICT_ERROR_GATE
    error = (
        None
        if ok
        else f"median |rel error| {median:.1%} exceeds {PREDICT_ERROR_GATE:.0%}"
    )
    results.append(CaseResult(gate_case, ok, 0.0, error))
    print(
        f"  predict error band: median {median:.2%}, p95 {p95:.2%} over "
        f"{len(rel_errors)} u32 cells (gate {PREDICT_ERROR_GATE:.0%}) "
        f"{'ok' if ok else 'FAIL'}",
        file=out,
    )


def _print_axis_coverage(san: Sanitizer, out: IO[str]) -> None:
    """State the per-axis coverage counters the sweep accumulated."""
    for axis in ("backend", "machine", "workload", "negative"):
        prefix = f"axis.{axis}."
        counts = {
            k[len(prefix):]: v
            for k, v in sorted(san.checks.items())
            if k.startswith(prefix) and v > 0
        }
        if counts:
            summary = ", ".join(f"{k}={v}" for k, v in counts.items())
            print(f"  coverage {axis}: {summary}", file=out)


def run_check(
    small: bool = False,
    native: bool = True,
    stream: IO[str] | None = None,
    parallel: int | None = None,
    backend: str = "all",
    machine: str | None = None,
    workload: str | None = None,
) -> int:
    """Run the differential sweep; returns a process exit code (0 = all
    invariants held on every grid point).

    ``parallel`` > 1 computes the simulated grid points across that many
    worker processes (native points and the traced probes stay in the
    parent, which owns the worker pool); coverage counters are merged, so
    the result is identical to a serial sweep.

    ``backend`` restricts the sweep: ``"all"`` (default) runs everything
    including the predictor cross-validation, ``"sim"``/``"native"`` run
    one substrate, ``"predict"`` runs the simulated grid plus the
    predictor cross-validation (the simulation is the predictor's
    reference, so it cannot be skipped).

    ``machine``/``workload`` filter the grid to one machine-zoo member /
    workload kind.  Axis-coverage enforcement only applies to unfiltered
    ``backend="all"`` sweeps -- a filtered sweep cannot cover every axis
    by construction.
    """
    from ..native.pool import WorkerPool

    if backend not in CHECK_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {CHECK_BACKENDS}"
        )
    if machine is not None and machine not in ALL_MACHINES:
        raise ValueError(
            f"unknown machine {machine!r}; choose from {ALL_MACHINES}"
        )
    if workload is not None and workload not in ALL_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {ALL_WORKLOADS}"
        )
    out = stream if stream is not None else sys.stdout
    native = native and backend in ("all", "native")
    with_sim = backend in ("all", "sim", "predict")
    with_predict = backend in ("all", "predict")
    filtered = machine is not None or workload is not None
    cases = default_grid(small=small, native=native)
    if not with_sim:
        cases = [c for c in cases if c.backend != "sim"]
    if not with_predict:
        cases = [c for c in cases if c.backend != "predict"]
    if machine is not None:
        cases = [c for c in cases if c.machine == machine]
    if workload is not None:
        cases = [c for c in cases if c.workload == workload]
    if not cases:
        print("repro check: nothing to run for this selection", file=out)
        return 1
    san = Sanitizer()
    results: list[CaseResult] = []
    #: (workload kind, distribution, n, p) -> (input, reference).
    oracles: dict[tuple, tuple] = {}
    sim_times: dict[CheckCase, float] = {}

    precomputed: dict[CheckCase, tuple[bool, float, str | None, float]] = {}
    if parallel is not None and parallel > 1:
        precomputed = _map_sim_cases_parallel(cases, parallel, san)

    pool = None
    native_backend = None
    if native:
        from ..backend.native import NativeBackend

        pool = WorkerPool(NATIVE_WORKERS, collect_timings=True)
        native_backend = NativeBackend(pool)
    try:
        with use_sanitizer(san):
            for case in cases:
                if case in precomputed:
                    ok, wall, error, time_ns = precomputed[case]
                    if time_ns > 0:
                        sim_times[case] = time_ns
                else:
                    key = (case.workload, case.distribution, case.n, case.p)
                    if key not in oracles:
                        oracles[key] = _case_workload(case)
                    workload_cell, reference = oracles[key]
                    run_backend = (
                        native_backend
                        if case.backend == "native"
                        else case.backend
                    )
                    t0 = time.perf_counter()
                    error = None
                    try:
                        result = _run_case(
                            case, run_backend, workload_cell, reference
                        )
                        if case.backend == "sim" and result is not None:
                            sim_times[case] = result.time_ns
                    except Exception as exc:  # noqa: BLE001 - report, don't abort
                        error = f"{type(exc).__name__}: {exc}"
                    wall = time.perf_counter() - t0
                results.append(CaseResult(case, error is None, wall, error))
                status = "ok" if error is None else "FAIL"
                print(f"  {case.label:<46} {status} ({wall * 1e3:.0f} ms)", file=out)
                if error is not None:
                    print(f"    {error}", file=out)
            if with_predict:
                _predict_sweep(
                    [c for c in cases if c.backend == "sim"],
                    sim_times, oracles, results, out,
                )
            try:
                _traced_probes(san, cases[0].n, cases[0].p, native_backend)
            except Exception as exc:  # noqa: BLE001
                results.append(
                    CaseResult(
                        CheckCase("trace", "probe", "gauss", cases[0].n, cases[0].p),
                        False, 0.0, f"{type(exc).__name__}: {exc}",
                    )
                )
                print(f"  trace probes FAIL: {exc}", file=out)
    finally:
        if pool is not None:
            pool.close()

    failures = [r for r in results if not r.ok]
    required = list(REQUIRED_COVERAGE) if with_sim else []
    if backend == "all" and not filtered and native:
        required += list(REQUIRED_AXIS_COVERAGE)
    missing = [k for k in required if san.checks[k] == 0]
    n_checks = sum(san.checks.values())
    _print_axis_coverage(san, out)
    print(
        f"repro check: {len(results)} cases, {len(failures)} failed; "
        f"sanitizer evaluated {n_checks} checks across "
        f"{len(san.checks)} invariants",
        file=out,
    )
    if missing:
        print(
            "COVERAGE FAILURE: these invariants were never evaluated "
            f"(instrumentation unplugged?): {', '.join(missing)}",
            file=out,
        )
    return 1 if failures or missing else 0
