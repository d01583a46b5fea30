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
(docs/MACHINES.md):

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
time against the simulation is aggregated
(:func:`~repro.predict.calibration.error_band`) -- the sweep fails if
the median absolute relative error over the paper's u32 workload
exceeds :data:`~repro.predict.calibration.PREDICT_ERROR_GATE`.

Every case runs through :func:`check_case` (timed, its error caught
into a :class:`CaseResult`); ``--parallel`` computes the simulated cases
in worker processes (:func:`~repro.core.experiment.fan_out`) and prints
them in the same loop as a serial sweep.

Exposed as ``python -m repro check [--small] [--backend all|sim|native|predict]
[--machine NAME] [--workload KIND]``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from ..core.experiment import ALGORITHM_MODELS, fan_out, machine_model
from ..data.workloads import NEW_WORKLOAD_KINDS, WORKLOAD_KINDS
from ..machine.zoo import MACHINES
from ..predict.calibration import PREDICT_ERROR_GATE, error_band
from .context import current_sanitizer, use_sanitizer
from .errors import VerifyError
from .invariants import check_trace_events
from .sanitizer import Sanitizer

#: ``--small`` keeps one distribution per communication regime: random
#: traffic (gauss), heavy duplication (zero), all-remote movement.
SMALL_DISTRIBUTIONS = ("gauss", "zero", "remote")

#: The machine-zoo members beyond the paper's Origin2000 (each runs on
#: :func:`~repro.core.experiment.machine_model`).
NEW_MACHINES = tuple(m for m in MACHINES if m != "origin2000")
ALL_MACHINES = tuple(MACHINES)

#: Workload kinds beyond the paper's uint32 keys (repro.data.workloads).
NEW_WORKLOADS = NEW_WORKLOAD_KINDS
ALL_WORKLOADS = tuple(WORKLOAD_KINDS)

#: Host worker processes for the native runs (small arrays; fork cost
#: dominates real sorting here).
NATIVE_WORKERS = 2

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
    #: The run's simulated/predicted total; 0 for negative or failed cells.
    time_ns: float = 0.0


def zoo_cases(
    n: int, p: int, machines=NEW_MACHINES, workloads=ALL_WORKLOADS
) -> list[CheckCase]:
    """Every machine x workload kind x algorithm on the simulator, each
    machine on a model its transports support."""
    return [
        CheckCase(
            "sim", algorithm, "gauss", n, p, machine_model(machine),
            machine=machine, workload=workload,
        )
        for machine in machines
        for workload in workloads
        for algorithm in ("radix", "sample")
    ]


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
    hosted = ("radix", "sample") if native else ()
    cases = []
    for dist in dists:
        cases += [
            CheckCase("sim", algorithm, dist, n, p, model)
            for algorithm, models in ALGORITHM_MODELS for model in models
        ]
        cases += [CheckCase("native", alg, dist, n, p) for alg in hosted]

    # Machine zoo x workload matrix: every new machine sorts every
    # workload kind (u32 included) under both algorithms.
    cases += zoo_cases(n, p)

    # Widened workloads on the paper's machine and on the host.
    for workload in NEW_WORKLOADS:
        for algorithm in ("radix", "sample"):
            sim = CheckCase(
                "sim", algorithm, "gauss", n, p, "shmem", workload=workload
            )
            cases.append(sim)
            if native:
                cases.append(replace(sim, backend="native", model=None))

    # Negative cells: shared-address transports cannot run on the
    # AP1000, and the predictor must refuse machines it was never
    # calibrated for -- with *typed* errors, not silent wrong numbers.
    cases.append(
        CheckCase(
            "sim", "radix", "gauss", n, p, "shmem",
            machine="ap1000", expect_error="UnsupportedTransportError",
        )
    )
    cases += [
        CheckCase(
            "predict", "radix", "gauss", n, p, machine_model(machine),
            machine=machine, expect_error="UncalibratedMachineError",
        )
        for machine in NEW_MACHINES
    ]
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


def check_case(
    case: CheckCase, oracles: dict[tuple, tuple], backend=None
) -> CaseResult:
    """Run one grid point against its oracle (generated once per
    ``oracles`` entry: workload kind, distribution, n, p), timed; an
    error fails the case, not the sweep.  ``backend`` overrides
    ``case.backend`` (the native cells pass the sweep's pooled backend)."""
    key = (case.workload, case.distribution, case.n, case.p)
    if key not in oracles:
        oracles[key] = _case_workload(case)
    workload, reference = oracles[key]
    t0 = time.perf_counter()
    try:
        result = _run_case(case, backend or case.backend, workload, reference)
    except Exception as exc:  # noqa: BLE001 - report, don't abort
        error = f"{type(exc).__name__}: {exc}"
        return CaseResult(case, False, time.perf_counter() - t0, error)
    time_ns = result.time_ns if result is not None else 0.0
    return CaseResult(case, True, time.perf_counter() - t0, time_ns=time_ns)


def _check_in_worker(case: CheckCase) -> tuple[CaseResult, dict]:
    """``--parallel`` body: one case under a private sanitizer, whose
    coverage counters go back to the parent with the result."""
    san = Sanitizer()
    with use_sanitizer(san):
        result = check_case(case, {})
    return result, dict(san.checks)


def _print_case(result: CaseResult, out: IO[str], note: str = "") -> None:
    status = "ok" if result.ok else "FAIL"
    print(
        f"  {result.case.label:<46} {status} ({result.wall_s * 1e3:.0f} ms)"
        f"{note}",
        file=out,
    )
    if result.error is not None:
        print(f"    {result.error}", file=out)


def _predict_sweep(
    sim_results: list[CaseResult],
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
    gateable = False
    for sim in sim_results:
        case = sim.case
        if case.machine != "origin2000" or case.expect_error:
            continue  # the predictor rejects uncalibrated machines
        gateable = gateable or case.workload == "u32"
        result = check_case(replace(case, backend="predict"), oracles)
        note = ""
        if result.ok and sim.time_ns > 0 and case.workload == "u32":
            rel = (result.time_ns - sim.time_ns) / sim.time_ns
            rel_errors.append(abs(rel))
            note = f" rel={rel:+.1%}"
        results.append(result)
        _print_case(result, out, note)

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
    band = error_band(rel_errors)
    median = band["median_abs_rel"]
    ok = median <= PREDICT_ERROR_GATE
    error = (
        None
        if ok
        else f"median |rel error| {median:.1%} exceeds {PREDICT_ERROR_GATE:.0%}"
    )
    results.append(CaseResult(gate_case, ok, 0.0, error))
    print(
        f"  predict error band: median {median:.2%}, "
        f"p95 {band['p95_abs_rel']:.2%} over {band['n_cells']} u32 cells "
        f"(gate {PREDICT_ERROR_GATE:.0%}) {'ok' if ok else 'FAIL'}",
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
    for axis, value, choices in (
        ("machine", machine, ALL_MACHINES), ("workload", workload, ALL_WORKLOADS)
    ):
        if value is not None and value not in choices:
            raise ValueError(f"unknown {axis} {value!r}; choose from {choices}")
    out = stream if stream is not None else sys.stdout
    native = native and backend in ("all", "native")
    with_sim = backend in ("all", "sim", "predict")
    with_predict = backend in ("all", "predict")
    filtered = machine is not None or workload is not None
    cases = [
        c for c in default_grid(small=small, native=native)
        if (with_sim or c.backend != "sim")
        and (with_predict or c.backend != "predict")
        and machine in (None, c.machine)
        and workload in (None, c.workload)
    ]
    if not cases:
        print("repro check: nothing to run for this selection", file=out)
        return 1
    san = Sanitizer()
    results: list[CaseResult] = []
    #: (workload kind, distribution, n, p) -> (input, reference).
    oracles: dict[tuple, tuple] = {}

    # Simulated cases fan out first: the worker processes are gone before
    # the native pool starts its own.
    fanned = None
    if parallel is not None and parallel > 1:
        sims = [c for c in cases if c.backend == "sim"]
        fanned = iter(list(fan_out(_check_in_worker, sims, parallel)))

    pool = None
    native_backend = None
    if native:
        from ..backend.native import NativeBackend

        pool = WorkerPool(NATIVE_WORKERS, collect_timings=True)
        native_backend = NativeBackend(pool)
    try:
        with use_sanitizer(san):
            for case in cases:
                if case.backend == "sim" and fanned is not None:
                    result, checks = next(fanned)
                    san.checks.update(checks)
                elif case.backend == "native":
                    result = check_case(case, oracles, native_backend)
                else:
                    result = check_case(case, oracles)
                results.append(result)
                _print_case(result, out)
            if with_predict:
                _predict_sweep(
                    [r for r in results if r.case.backend == "sim"],
                    oracles, results, out,
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
