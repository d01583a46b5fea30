"""One experiment harness per table/figure of the paper's evaluation.

:data:`EXPERIMENTS` is the one registry: each :class:`Experiment` row
names its harness and fixes the harness's parameters (a figure's
algorithm, models, title and claim), so the ten figures run on four
harnesses.  A harness takes an
:class:`~repro.core.experiment.ExperimentRunner` (results are memoized
across harnesses) plus optional grid restrictions, and returns an
:class:`ExperimentResult` whose ``data`` holds the numbers and whose
``text`` renders them the way the paper presents them.  The CLI prints
``text``; ``tests/integration/test_paper_shapes.py`` asserts the paper's
shapes on the same grid cells.  Everything here is deterministic
simulator/predictor output, drift-diffed against a checked-in baseline
by ``benchmarks/compare.py``; wall-clock numbers live in
``benchmarks/ledger`` only.

Each harness builds every cell it reads once, as a list of
:class:`~repro.core.experiment.RunSpec`, and reads the outcomes
:meth:`~repro.core.experiment.ExperimentRunner.run_many` returns in that
order; ``run_many`` serves cells from the persistent disk cache and --
when the runner was built with ``parallel=N`` (CLI ``--parallel``) --
computes misses concurrently in worker processes.

Paper reference values (Tables 1 and 2) are included for side-by-side
comparison; figures are referenced by their qualitative claims (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from ..backend.simulated import DEFAULT_RADIX
from ..core.experiment import (
    ALGORITHM_MODELS,
    PROC_COUNTS,
    SIZE_ORDER,
    SIZES,
    ExperimentRunner,
    RunSpec,
)
from ..data.distributions import PAPER_ORDER
from ..data.workloads import WORKLOAD_KINDS
from ..machine.zoo import MACHINES
from ..predict.calibration import PREDICT_ERROR_GATE, error_band
from .figures import breakdown_panel, grouped_series, per_proc_strip
from .tables import format_table

#: Paper Table 1: sequential radix-sort time (microseconds), Gauss keys.
PAPER_TABLE1_US = {
    "1M": 1_610_142,
    "4M": 7_013_044,
    "16M": 33_668_308,
    "64M": 143_693_696,
    "256M": 947_575_676,
}

#: Paper Table 2: best execution time (microseconds) over models and radix
#: sizes, Gauss keys.
PAPER_TABLE2_US = {
    "radix": {
        "1M": {16: 63_249, 32: 55_068, 64: 33_546},
        "4M": {16: 229_182, 32: 133_296, 64: 134_407},
        "16M": {16: 1_008_322, 32: 483_560, 64: 306_429},
        "64M": {16: 6_547_243, 32: 2_557_912, 64: 1_147_412},
        "256M": {16: 29_650_916, 32: 15_054_134, 64: 7_191_246},
    },
    "sample": {
        "1M": {16: 74_301, 32: 42_998, 64: 29_470},
        "4M": {16: 343_466, 32: 148_800, 64: 98_720},
        "16M": {16: 1_490_045, 32: 634_267, 64: 380_864},
        "64M": {16: 13_699_476, 32: 3_902_624, 64: 1_503_827},
        "256M": {16: 54_852_935, 32: 23_838_522, 64: 11_891_683},
    },
}

#: Paper Table 3: winning (model, radix) per cell.
PAPER_TABLE3 = {
    "radix": {
        "1M": {16: ("ccsas", 8), 32: ("ccsas", 9), 64: ("ccsas", 8)},
        "4M": {16: ("shmem", 8), 32: ("shmem", 8), 64: ("shmem", 8)},
        "16M": {16: ("shmem", 11), 32: ("shmem", 11), 64: ("shmem", 8)},
        "64M": {16: ("shmem", 12), 32: ("shmem", 11), 64: ("shmem", 8)},
        "256M": {16: ("shmem", 14), 32: ("shmem", 13), 64: ("shmem", 12)},
    },
    "sample": {
        "1M": {16: ("ccsas", 11), 32: ("ccsas", 11), 64: ("ccsas", 11)},
        "4M": {16: ("ccsas", 11), 32: ("ccsas", 11), 64: ("ccsas", 11)},
        "16M": {16: ("ccsas", 11), 32: ("ccsas", 12), 64: ("shmem", 11)},
        "64M": {16: ("ccsas", 12), 32: ("ccsas", 12), 64: ("shmem", 11)},
        "256M": {16: ("ccsas", 14), 32: ("ccsas", 13), 64: ("shmem", 12)},
    },
}

#: Wall-clock ceiling for the analytic sweep of a ``predict_compare``
#: grid: the predictor exists to make sweeps interactive, so a run that
#: takes this long has lost its reason to exist (docs/PREDICT.md).
PREDICT_SWEEP_BUDGET_S = 20.0


@dataclass
class ExperimentResult:
    exp_id: str
    description: str
    data: dict
    text: str
    paper_reference: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1(
    runner: ExperimentRunner, sizes: list[str] | None = None
) -> ExperimentResult:
    sizes = sizes or SIZE_ORDER
    rows = []
    data = {}
    for label in sizes:
        seq = runner.sequential(SIZES[label])
        us = seq.time_ns / 1e3
        data[label] = us
        paper = PAPER_TABLE1_US.get(label)
        rows.append(
            [label, f"{us:,.0f}", f"{paper:,}" if paper else "-",
             f"{us / paper:.2f}" if paper else "-"]
        )
    text = format_table(
        ["size", "model (us)", "paper (us)", "ratio"],
        rows,
        title="Table 1: sequential radix sort, Gauss keys",
    )
    return ExperimentResult("table1", "sequential baseline", data, text,
                            PAPER_TABLE1_US)


# ----------------------------------------------------------------------
# Figures: every figure runs its algorithm at the simulator's standard
# radix (DEFAULT_RADIX) unless radix is the figure's axis.
# ----------------------------------------------------------------------
def speedup_figure(
    runner: ExperimentRunner, number: int, description: str, algorithm: str,
    models: tuple[str, ...], title: str, claim: str,
    sizes: list[str] | None = None, procs: list[int] | None = None,
) -> ExperimentResult:
    """Speedup per model at each size/processor count (Figs 1-3, 7)."""
    sizes = sizes or SIZE_ORDER
    procs = procs or PROC_COUNTS
    radix = DEFAULT_RADIX[algorithm]
    specs = [
        RunSpec(algorithm, m, SIZES[label], p, radix)
        for label in sizes for p in procs for m in models
    ]
    runner.run_many(specs)
    grid: dict[str, dict[str, float]] = {}
    for spec in specs:
        cell = grid.setdefault(f"{spec.size_label()}/{spec.n_procs}p", {})
        cell[spec.model] = runner.speedup(spec)
    title = f"Figure {number}: {title}"
    return ExperimentResult(
        f"fig{number}", description, grid, grouped_series(grid, title),
        {"claim": claim},
    )


def breakdown_figure(
    runner: ExperimentRunner, number: int, algorithm: str,
    models: tuple[str, ...], claim: str, size: str = "64M", n_procs: int = 64,
) -> ExperimentResult:
    """Per-processor BUSY/LMEM/RMEM/SYNC per model (Figs 4, 8)."""
    radix = DEFAULT_RADIX[algorithm]
    outcomes = runner.run_many(
        [RunSpec(algorithm, m, SIZES[size], n_procs, radix) for m in models]
    )
    panels = {}
    text_parts = [
        f"Figure {number}: {algorithm} sort ({size}) breakdown on "
        f"{n_procs} processors"
    ]
    for m, outcome in zip(models, outcomes):
        rep = outcome.report
        means = rep.category_means_ns()
        per_proc = [c.total_ns for c in rep.counters]
        panels[m] = {
            "means_ns": means,
            "total_ns": rep.total_time_ns,
            "per_proc_total_ns": per_proc,
        }
        text_parts.append(breakdown_panel(m, means, rep.total_time_ns))
        text_parts.append(per_proc_strip(per_proc, "  per-proc "))
    return ExperimentResult(
        f"fig{number}", f"{algorithm} breakdown", panels,
        "\n".join(text_parts), {"claim": claim},
    )


def relative_figure(
    runner: ExperimentRunner, number: int, algorithm: str, model: str,
    axis: str, values, title: str, claim: str,
    sizes: list[str] | None = None, n_procs: int = 64,
) -> ExperimentResult:
    """Time at each ``values`` point along one :class:`RunSpec` ``axis``
    (``"distribution"`` or ``"radix"``), relative to the standard cell's
    point on that axis (gauss keys, the standard radix), per size
    (Figs 5/9 and 6/10)."""
    sizes = sizes or SIZE_ORDER
    name = (lambda r: f"r={r}") if axis == "radix" else str
    standard = {"distribution": "gauss", "radix": DEFAULT_RADIX[algorithm]}
    base = standard[axis]
    points = list(dict.fromkeys([base, *values]))
    times = (
        outcome.time_ns
        for outcome in runner.run_many(
            RunSpec(algorithm, model, SIZES[label], n_procs,
                    **{**standard, axis: v})
            for label in sizes for v in points
        )
    )
    grid: dict[str, dict[str, float]] = {}
    for label in sizes:
        t = {v: next(times) for v in points}
        grid[label] = {name(v): t[v] / t[base] for v in values}
    title = f"Figure {number}: {title}"
    text = grouped_series(grid, title, unit=f"x {name(base)}")
    return ExperimentResult(
        f"fig{number}", title, grid, text, {"claim": claim}
    )


# ----------------------------------------------------------------------
# Tables 2 and 3
# ----------------------------------------------------------------------
def tables2_and_3(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
    radix_choices: list[int] | None = None,
    radix_models: list[str] | None = None,
    sample_models: list[str] | None = None,
) -> tuple[ExperimentResult, ExperimentResult]:
    sizes = sizes or SIZE_ORDER
    procs = procs or PROC_COUNTS
    radix_choices = radix_choices or [7, 8, 11, 12]
    chosen = {"radix": radix_models, "sample": sample_models}
    cells = [
        RunSpec(alg, m, SIZES[label], p, radix_choices[0])
        for alg, models in ALGORITHM_MODELS
        for label in sizes
        for p in procs
        for m in chosen[alg] or models
    ]
    runner.run_many(
        [replace(spec, radix=r) for spec in cells for r in radix_choices]
    )
    # Per (algorithm, size, p): the fastest model at its best radix; the
    # first model in grid order wins a tie.
    best: dict[tuple, tuple[float, tuple[str, int]]] = {}
    for spec in cells:
        outcome, r = runner.best_over_radix(spec, radix_choices)
        key = (spec.algorithm, spec.size_label(), spec.n_procs)
        if key not in best or outcome.time_ns < best[key][0]:
            best[key] = (outcome.time_ns, (spec.model, r))
    best_time: dict[str, dict] = {"radix": {}, "sample": {}}
    best_combo: dict[str, dict] = {"radix": {}, "sample": {}}
    for (alg, label, p), (t, combo) in best.items():
        best_time[alg].setdefault(label, {})[p] = t / 1e3  # us
        best_combo[alg].setdefault(label, {})[p] = combo

    rows2, rows3 = [], []
    for label in sizes:
        row2, row3 = [label], [label]
        for algorithm in ("radix", "sample"):
            for p in procs:
                row2.append(f"{best_time[algorithm][label][p]:,.0f}")
                m, r = best_combo[algorithm][label][p]
                row3.append(f"{m} {r}")
                paper = PAPER_TABLE2_US.get(algorithm, {}).get(label, {}).get(p)
                if paper:
                    row2[-1] += f" ({paper:,})"
        rows2.append(row2)
        rows3.append(row3)
    headers = ["size"] + [
        f"{alg[:1]}{p}p" for alg in ("radix", "sample") for p in procs
    ]
    t2 = ExperimentResult(
        "table2",
        "best execution times (us), model(paper)",
        best_time,
        format_table(headers, rows2, title="Table 2: best times, us (paper in parens)"),
        PAPER_TABLE2_US,
    )
    t3 = ExperimentResult(
        "table3",
        "best model + radix per cell",
        best_combo,
        format_table(headers, rows3, title="Table 3: best model + radix size"),
        PAPER_TABLE3,
    )
    return t2, t3


# ----------------------------------------------------------------------
# Section 4.4 "Putting it All Together"
# ----------------------------------------------------------------------
def summary(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    sizes = sizes or SIZE_ORDER
    procs = procs or PROC_COUNTS
    # Each algorithm at its standard radix; on a tie the earlier combo wins.
    combos = [
        (alg, m, r)
        for alg, r in DEFAULT_RADIX.items()
        for m in ("ccsas", "shmem", "mpi-new")
    ]
    outcomes = iter(
        runner.run_many(
            RunSpec(alg, m, SIZES[label], p, r)
            for label in sizes
            for p in procs
            for alg, m, r in combos
        )
    )
    data: dict[str, dict] = {}
    rows = []
    for label in sizes:
        for p in procs:
            cell = {
                f"{alg}/{m}": next(outcomes).time_ns for alg, m, _ in combos
            }
            winner = min(cell, key=cell.get)
            keys_per_proc = SIZES[label] // p
            data[f"{label}/{p}p"] = {
                "winner": winner,
                "keys_per_proc": keys_per_proc,
                "times_ns": cell,
            }
            rows.append(
                [f"{label}/{p}p", f"{keys_per_proc:,}", winner,
                 f"{cell[winner] / 1e6:,.1f}"]
            )
    text = format_table(
        ["cell", "keys/proc", "best combination", "time (ms)"],
        rows,
        title="Section 4.4: best algorithm x model per cell",
    )
    return ExperimentResult(
        "summary", "best combination per cell", data, text,
        {"claim": "sample/CC-SAS small, radix/SHMEM large"},
    )


# ----------------------------------------------------------------------
# Predictor cross-validation (docs/PREDICT.md)
# ----------------------------------------------------------------------
def predict_compare(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Runs every algorithm x model at each size/processor count on both
    the simulated backend (via ``runner``, so cells come from the shared
    cache/memo) and the analytic ``predict`` backend, and reports the
    per-cell relative error band (:func:`error_band`) alongside the
    wall-clock cost of each sweep.  ``benchmarks/BENCH_1.json`` pins this
    result; CI regenerates it, drift-diffs the simulated/predicted times
    and runs :func:`gate_predict_compare`.
    """
    import time

    sizes = sizes or ["1M", "16M"]
    procs = procs or [16, 64]
    specs = [
        RunSpec(alg, m, SIZES[label], p, DEFAULT_RADIX[alg])
        for label in sizes
        for p in procs
        for alg, models in ALGORITHM_MODELS
        for m in models
    ]
    t0 = time.perf_counter()
    sims = runner.run_many(specs)
    sim_wall_s = time.perf_counter() - t0

    predictor = ExperimentRunner(costs=runner.costs, backend="predict")
    t0 = time.perf_counter()
    preds = predictor.run_many(specs)
    predict_wall_s = time.perf_counter() - t0

    cells: dict[str, dict[str, float]] = {}
    rels: list[float] = []
    rows = []
    for spec, sim, pred in zip(specs, sims, preds):
        sim_ns, pred_ns = sim.time_ns, pred.time_ns
        rel = (pred_ns - sim_ns) / sim_ns
        rels.append(abs(rel))
        label = (
            f"{spec.algorithm}/{spec.model}/{spec.size_label()}/"
            f"{spec.n_procs}p"
        )
        cells[label] = {
            "sim_ns": sim_ns, "pred_ns": pred_ns, "rel_err": rel,
        }
        rows.append(
            [label, f"{sim_ns / 1e6:,.1f}", f"{pred_ns / 1e6:,.1f}",
             f"{rel:+.2%}"]
        )
    band = error_band(rels)
    data = {
        "cells": cells,
        "band": band,
        "latency": {
            "sim_wall_s": sim_wall_s,  # may be cache-warm; see CACHE.md
            "predict_wall_s": predict_wall_s,
            "n_cells": len(specs),
        },
    }
    text = format_table(
        ["cell", "sim (ms)", "predicted (ms)", "rel err"],
        rows,
        title="Predictor cross-validation: predicted vs simulated",
    ) + (
        f"\nerror band: median {band['median_abs_rel']:.2%}, "
        f"p95 {band['p95_abs_rel']:.2%}, max {band['max_abs_rel']:.2%} "
        f"over {band['n_cells']} cells\n"
        f"sweep latency: sim {sim_wall_s:.2f}s "
        f"(cache-dependent), predicted {predict_wall_s:.2f}s"
    )
    return ExperimentResult(
        "predict_compare",
        "predicted vs simulated sweep",
        data,
        text,
        {"gate": f"median abs rel error <= {PREDICT_ERROR_GATE} and "
                 f"predicted sweep <= {PREDICT_SWEEP_BUDGET_S:.0f}s"},
    )


def gate_predict_compare(data: dict) -> list[str]:
    """The predictor's absolute gate: median error band within
    :data:`~repro.predict.calibration.PREDICT_ERROR_GATE` (the bound
    ``repro check --backend predict`` enforces) and the analytic sweep
    within :data:`PREDICT_SWEEP_BUDGET_S`."""
    failures = []
    median = data.get("band", {}).get("median_abs_rel")
    if median is None:
        failures.append("predict_compare has no error band")
    elif median > PREDICT_ERROR_GATE:
        failures.append(
            f"predictor median |rel error| {median:.2%} exceeds the "
            f"{PREDICT_ERROR_GATE:.0%} gate"
        )
    latency = data.get("latency", {})
    wall = latency.get("predict_wall_s")
    if wall is None:
        failures.append("predict_compare has no predicted sweep latency")
    elif wall > PREDICT_SWEEP_BUDGET_S:
        failures.append(
            f"predicted sweep took {wall:.2f}s for "
            f"{latency.get('n_cells', '?')} cells, over the "
            f"{PREDICT_SWEEP_BUDGET_S:.1f}s budget"
        )
    return failures


def machine_zoo(
    runner: ExperimentRunner,
    n: int = 16 * 512,
    p: int = 16,
    machines: list[str] | None = None,
    workloads: list[str] | None = None,
) -> ExperimentResult:
    """Runs every machine-zoo member (docs/MACHINES.md) against every
    workload kind (u32 plus the widened matrix) under both algorithms,
    through ``repro check``'s case runner: each cell's output is held
    against ``np.sort``/``np.argsort``, and a cell that fails the check
    is recorded as ``verified: 0`` (with no time) instead of stopping
    the sweep.  ``benchmarks/BENCH_5.json`` pins the ``--small`` result:
    every number here is deterministic simulator output, so
    ``benchmarks/compare.py`` drift-diffs it like BENCH_0 (a lost cell,
    a flipped ``verified`` or a moved time all show as drift).
    """
    del runner  # the cells run through the check path, not the grid cache
    from ..verify.differential import _case_workload, _run_case, zoo_cases
    from ..verify.errors import VerifyError

    machines = machines or list(MACHINES)
    workloads = workloads or list(WORKLOAD_KINDS)

    cells: dict[str, dict[str, float | int]] = {}
    rows = []
    for case in zoo_cases(n, p, machines, workloads):
        try:
            result = _run_case(case, "sim", *_case_workload(case))
        except VerifyError:
            result = None
        verified = int(result is not None)
        time_ns = result.time_ns if verified else 0.0
        means = result.report.category_means_ns() if verified else {}
        cells[f"{case.machine}/{case.workload}/{case.algorithm}"] = {
            "machine": case.machine,
            "workload": case.workload,
            "algorithm": case.algorithm,
            "model": case.model,
            "time_ns": time_ns,
            "category_means_ns": means,
            "verified": verified,
        }
        rows.append(
            [f"{case.machine}/{case.workload}", case.algorithm, case.model,
             f"{time_ns / 1e6:,.2f}",
             f"{means.get('RMEM', 0.0) / 1e6:,.2f}",
             "yes" if verified else "NO"]
        )
    summary = {
        "n_cells": len(cells),
        "all_verified": int(all(c["verified"] for c in cells.values())),
        "machines_covered": len({c["machine"] for c in cells.values()}),
        "workloads_covered": len({c["workload"] for c in cells.values()}),
    }
    data = {
        "n": n,
        "p": p,
        "machines": list(machines),
        "workloads": list(workloads),
        "cells": cells,
        "summary": summary,
    }
    text = format_table(
        ["machine/workload", "algorithm", "model", "total (ms)",
         "RMEM (ms)", "verified"],
        rows,
        title=f"Machine zoo x workload matrix ({n} keys, {p} procs)",
    ) + (
        f"\n{summary['machines_covered']} machines x "
        f"{summary['workloads_covered']} workloads, "
        f"{summary['n_cells']} cells, all verified: "
        f"{'yes' if summary['all_verified'] else 'NO'}"
    )
    return ExperimentResult(
        "machine_zoo",
        "machine-zoo x workload matrix on the simulator",
        data,
        text,
        {"gate": "drift diff against benchmarks/BENCH_5.json"},
    )


@dataclass(frozen=True)
class Experiment:
    """One registry record.

    ``run(runner, **kwargs)`` calls ``harness`` with the record's
    ``params`` updated by ``kwargs`` (grid restrictions); ``help`` is its
    one-line summary (``python -m repro list``); ``small`` its ``--small``
    keyword arguments; ``gate(data)`` returns the failure messages of the
    result's absolute invariants (``None`` for results that are only
    drift-diffed).
    """

    harness: Callable[..., object]
    help: str
    params: dict = field(default_factory=dict)
    small: dict = field(default_factory=dict)
    gate: Callable[[dict], list[str]] | None = None

    def run(self, runner: ExperimentRunner, **kwargs):
        return self.harness(runner, **{**self.params, **kwargs})


_SMALL_CORNERS = dict(sizes=["1M", "64M"], procs=[16, 64])
_SMALL_EXTREMES = dict(sizes=["1M", "256M"])


#: Registry: experiment id -> :class:`Experiment`.
EXPERIMENTS: dict[str, Experiment] = {
    "summary": Experiment(
        summary,
        "The paper's closing comparison: the best algorithm x model per cell.",
        small=_SMALL_CORNERS,
    ),
    "table1": Experiment(
        table1, "Sequential radix-sort times (paper Table 1).",
        small=dict(sizes=["1M", "16M"]),
    ),
    "fig1": Experiment(
        speedup_figure,
        "Radix speedups under the two MPI implementations (paper Figure 1).",
        dict(number=1, description="radix MPI SGI vs NEW", algorithm="radix",
             models=("mpi-sgi", "mpi-new"),
             title="radix sort, MPI SGI vs NEW (speedup)",
             claim="NEW outperforms SGI, increasingly so at higher p"),
        _SMALL_CORNERS,
    ),
    "fig2": Experiment(
        speedup_figure,
        "Sample-sort speedups under the two MPI implementations (Figure 2).",
        dict(number=2, description="sample MPI SGI vs NEW", algorithm="sample",
             models=("mpi-sgi", "mpi-new"),
             title="sample sort, MPI SGI vs NEW (speedup)",
             claim="gap smaller than radix (fewer messages, more compute)"),
        _SMALL_CORNERS,
    ),
    "fig3": Experiment(
        speedup_figure,
        "Radix speedups: SHMEM / CC-SAS / MPI / CC-SAS-NEW (Figure 3).",
        dict(number=3, description="radix speedups by model",
             algorithm="radix",
             models=("shmem", "ccsas", "mpi-new", "ccsas-new"),
             title="radix sort speedups by model",
             claim="SHMEM best except 1M at high p where CC-SAS wins; "
             "original CC-SAS collapses at large sizes; superlinear >=16M"),
        _SMALL_CORNERS,
    ),
    "fig4": Experiment(
        breakdown_figure,
        "Per-processor time breakdown for radix sort (Figure 4).",
        dict(number=4, algorithm="radix",
             models=("ccsas", "ccsas-new", "mpi-new", "shmem"),
             claim="CC-SAS dominated by MEM; MPI SYNC > SHMEM SYNC"),
    ),
    "fig5": Experiment(
        relative_figure,
        "Radix relative times across key distributions, SHMEM (Figure 5).",
        dict(number=5, algorithm="radix", model="shmem", axis="distribution",
             values=PAPER_ORDER,
             title="radix/SHMEM relative time by key distribution",
             claim="local best; others similar; remote gains at 256M"),
        _SMALL_EXTREMES,
    ),
    "fig6": Experiment(
        relative_figure,
        "Radix-size sweep for radix sort, SHMEM (Figure 6; relative to r=8).",
        dict(number=6, algorithm="radix", model="shmem", axis="radix",
             values=range(6, 13),
             title="radix sort, effect of radix size (relative to r=8)",
             claim="optimal radix grows with data set size"),
        _SMALL_EXTREMES,
    ),
    "fig7": Experiment(
        speedup_figure,
        "Sample-sort speedups: SHMEM / CC-SAS / MPI (Figure 7).",
        dict(number=7, description="sample speedups by model",
             algorithm="sample", models=("shmem", "ccsas", "mpi-new"),
             title="sample sort speedups by model",
             claim="CC-SAS best small; CC-SAS ~ SHMEM large; MPI behind"),
        _SMALL_CORNERS,
    ),
    "fig8": Experiment(
        breakdown_figure,
        "Per-processor time breakdown for sample sort (Figure 8).",
        dict(number=8, algorithm="sample",
             models=("ccsas", "mpi-new", "shmem"),
             claim="BUSY much larger than radix (two local sorts); "
             "models closer together"),
    ),
    "fig9": Experiment(
        relative_figure,
        "Sample relative times across key distributions, CC-SAS (Figure 9).",
        dict(number=9, algorithm="sample", model="ccsas", axis="distribution",
             values=PAPER_ORDER,
             title="sample/CC-SAS relative time by key distribution",
             claim="locality-favorable distributions gain from 64M up"),
        _SMALL_EXTREMES,
    ),
    "fig10": Experiment(
        relative_figure,
        "Radix-size sweep for sample sort, CC-SAS (Figure 10; rel. to r=11).",
        dict(number=10, algorithm="sample", model="ccsas", axis="radix",
             values=range(6, 13),
             title="sample sort, effect of radix size (relative to r=11)",
             claim="r=11 best up to 64M, 12 at 256M; best/worst < 2"),
        _SMALL_EXTREMES,
    ),
    "tables2_and_3": Experiment(
        tables2_and_3,
        "Best times (Table 2) and best model+radix combos (Table 3).",
        small=dict(_SMALL_CORNERS, radix_choices=[8, 11]),
    ),
    "predict_compare": Experiment(
        predict_compare,
        "Predicted vs. simulated totals per grid cell, plus sweep latency.",
        small=dict(sizes=["1M"], procs=[16]), gate=gate_predict_compare,
    ),
    "machine_zoo": Experiment(
        machine_zoo,
        "Machine-zoo x workload sweep on the simulator (BENCH_5).",
        small=dict(n=16 * 128, p=16),
    ),
}
