"""One experiment harness per table/figure of the paper's evaluation.

Every function takes an :class:`~repro.core.experiment.ExperimentRunner`
(results are memoized across harnesses) plus optional grid restrictions,
and returns an :class:`ExperimentResult` whose ``data`` holds the numbers
and whose ``text`` renders them the way the paper presents them.  The
CLI prints ``text``; ``tests/integration/test_paper_shapes.py`` asserts
the paper's shapes on the same grid cells.

:data:`EXPERIMENTS` is the one registry (see :class:`Experiment`).
Everything here is deterministic simulator/predictor output, drift-diffed
against a checked-in baseline by ``benchmarks/compare.py``; wall-clock
numbers live in ``benchmarks/ledger`` only.

Each harness first enumerates every grid cell it will read and hands the
whole batch to :meth:`~repro.core.experiment.ExperimentRunner.run_many`,
so cells are served from the persistent disk cache and -- when the
runner was built with ``parallel=N`` (CLI ``--parallel``) -- cache
misses are computed concurrently in worker processes.  The rendering
loops below then hit the warm in-process memo.

Paper reference values (Tables 1 and 2) are included for side-by-side
comparison; figures are referenced by their qualitative claims (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..backend.simulated import DEFAULT_RADIX
from ..core.experiment import (
    PROC_COUNTS,
    SIZE_ORDER,
    SIZES,
    ExperimentRunner,
    RunSpec,
)
from ..data.distributions import PAPER_ORDER
from ..machine.zoo import MACHINES, get_machine
from ..verify.differential import (
    ALGORITHM_MODELS,
    ALL_WORKLOADS,
    PREDICT_ERROR_GATE,
    machine_model,
)
from .figures import bar_chart, breakdown_panel, grouped_series, per_proc_strip
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

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1(
    runner: ExperimentRunner, sizes: list[str] | None = None
) -> ExperimentResult:
    """Sequential radix-sort times (paper Table 1)."""
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
# Speedup figures (1, 2, 3, 7)
# ----------------------------------------------------------------------
def _speedup_figure(
    runner, exp_id, description, algorithm, models, radix, sizes, procs,
    title, claim,
) -> ExperimentResult:
    sizes = sizes or SIZE_ORDER
    procs = procs or PROC_COUNTS
    cells = {
        f"{label}/{p}p": {
            m: RunSpec(algorithm, m, SIZES[label], p, radix) for m in models
        }
        for label in sizes
        for p in procs
    }
    runner.run_many([spec for row in cells.values() for spec in row.values()])
    grid = {
        key: {m: runner.speedup(spec) for m, spec in row.items()}
        for key, row in cells.items()
    }
    return ExperimentResult(
        exp_id, description, grid, grouped_series(grid, title), {"claim": claim}
    )


def figure1(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Radix speedups under the two MPI implementations (paper Figure 1)."""
    return _speedup_figure(
        runner, "fig1", "radix MPI SGI vs NEW", "radix",
        ["mpi-sgi", "mpi-new"], 8, sizes, procs,
        "Figure 1: radix sort, MPI SGI vs NEW (speedup)",
        "NEW outperforms SGI, increasingly so at higher p",
    )


def figure2(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Sample-sort speedups under the two MPI implementations (Figure 2)."""
    return _speedup_figure(
        runner, "fig2", "sample MPI SGI vs NEW", "sample",
        ["mpi-sgi", "mpi-new"], 11, sizes, procs,
        "Figure 2: sample sort, MPI SGI vs NEW (speedup)",
        "gap smaller than radix (fewer messages, more compute)",
    )


def figure3(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Radix speedups: SHMEM / CC-SAS / MPI / CC-SAS-NEW (Figure 3)."""
    return _speedup_figure(
        runner, "fig3", "radix speedups by model", "radix",
        ["shmem", "ccsas", "mpi-new", "ccsas-new"], 8, sizes, procs,
        "Figure 3: radix sort speedups by model",
        "SHMEM best except 1M at high p where CC-SAS wins; "
        "original CC-SAS collapses at large sizes; superlinear >=16M",
    )


def figure7(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    procs: list[int] | None = None,
) -> ExperimentResult:
    """Sample-sort speedups: SHMEM / CC-SAS / MPI (Figure 7)."""
    return _speedup_figure(
        runner, "fig7", "sample speedups by model", "sample",
        ["shmem", "ccsas", "mpi-new"], 11, sizes, procs,
        "Figure 7: sample sort speedups by model",
        "CC-SAS best small; CC-SAS ~ SHMEM large; MPI behind",
    )


# ----------------------------------------------------------------------
# Breakdown figures (4, 8)
# ----------------------------------------------------------------------
def figure4(
    runner: ExperimentRunner,
    size: str = "64M",
    n_procs: int = 64,
) -> ExperimentResult:
    """Per-processor time breakdown for radix sort (Figure 4)."""
    return _breakdown_figure(
        runner, 4, "radix", ["ccsas", "ccsas-new", "mpi-new", "shmem"], 8,
        size, n_procs, "CC-SAS dominated by MEM; MPI SYNC > SHMEM SYNC",
    )


def figure8(
    runner: ExperimentRunner,
    size: str = "64M",
    n_procs: int = 64,
) -> ExperimentResult:
    """Per-processor time breakdown for sample sort (Figure 8)."""
    return _breakdown_figure(
        runner, 8, "sample", ["ccsas", "mpi-new", "shmem"], 11, size, n_procs,
        "BUSY much larger than radix (two local sorts); models closer together",
    )


def _breakdown_figure(
    runner, number, algorithm, models, radix, size, n_procs, claim
) -> ExperimentResult:
    specs = {m: RunSpec(algorithm, m, SIZES[size], n_procs, radix) for m in models}
    runner.run_many(list(specs.values()))
    panels = {}
    text_parts = [
        f"Figure {number}: {algorithm} sort ({size}) breakdown on "
        f"{n_procs} processors"
    ]
    for m, spec in specs.items():
        rep = runner.run(spec).report
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


# ----------------------------------------------------------------------
# Distribution figures (5, 9)
# ----------------------------------------------------------------------
def figure5(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    n_procs: int = 64,
    distributions: list[str] | None = None,
) -> ExperimentResult:
    """Radix relative times across key distributions, SHMEM (Figure 5)."""
    return _distribution_figure(
        runner, "fig5", "radix", "shmem", 8, sizes, n_procs, distributions,
        "Figure 5: radix/SHMEM relative time by key distribution",
        {"claim": "local best; others similar; remote gains at 256M"},
    )


def figure9(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    n_procs: int = 64,
    distributions: list[str] | None = None,
) -> ExperimentResult:
    """Sample relative times across key distributions, CC-SAS (Figure 9)."""
    return _distribution_figure(
        runner, "fig9", "sample", "ccsas", 11, sizes, n_procs, distributions,
        "Figure 9: sample/CC-SAS relative time by key distribution",
        {"claim": "locality-favorable distributions gain from 64M up"},
    )


def _distribution_figure(
    runner, exp_id, algorithm, model, radix, sizes, n_procs, distributions,
    title, claim,
) -> ExperimentResult:
    sizes = sizes or SIZE_ORDER
    distributions = distributions or PAPER_ORDER
    runner.run_many(
        [
            RunSpec(algorithm, model, SIZES[label], n_procs, radix, d)
            for label in sizes
            for d in dict.fromkeys(["gauss", *distributions])
        ]
    )
    grid: dict[str, dict[str, float]] = {}
    for label in sizes:
        base = runner.run(
            RunSpec(algorithm, model, SIZES[label], n_procs, radix, "gauss")
        ).time_ns
        grid[label] = {}
        for d in distributions:
            t = runner.run(
                RunSpec(algorithm, model, SIZES[label], n_procs, radix, d)
            ).time_ns
            grid[label][d] = t / base
    text = grouped_series(grid, title, unit="x gauss")
    return ExperimentResult(exp_id, title, grid, text, claim)


# ----------------------------------------------------------------------
# Radix-size figures (6, 10)
# ----------------------------------------------------------------------
def figure6(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    n_procs: int = 64,
    radix_range: range = range(6, 13),
) -> ExperimentResult:
    """Radix-size sweep for radix sort, SHMEM (Figure 6; relative to r=8)."""
    return _radix_sweep(
        runner, "fig6", "radix", "shmem", 8, sizes, n_procs, radix_range,
        "Figure 6: radix sort, effect of radix size (relative to r=8)",
        {"claim": "optimal radix grows with data set size"},
    )


def figure10(
    runner: ExperimentRunner,
    sizes: list[str] | None = None,
    n_procs: int = 64,
    radix_range: range = range(6, 13),
) -> ExperimentResult:
    """Radix-size sweep for sample sort, CC-SAS (Figure 10; rel. to r=11)."""
    return _radix_sweep(
        runner, "fig10", "sample", "ccsas", 11, sizes, n_procs, radix_range,
        "Figure 10: sample sort, effect of radix size (relative to r=11)",
        {"claim": "r=11 best up to 64M, 12 at 256M; best/worst < 2"},
    )


def _radix_sweep(
    runner, exp_id, algorithm, model, base_radix, sizes, n_procs, radix_range,
    title, claim,
) -> ExperimentResult:
    sizes = sizes or SIZE_ORDER
    runner.run_many(
        [
            RunSpec(algorithm, model, SIZES[label], n_procs, r)
            for label in sizes
            for r in dict.fromkeys([base_radix, *radix_range])
        ]
    )
    grid: dict[str, dict[str, float]] = {}
    for label in sizes:
        base = runner.run(
            RunSpec(algorithm, model, SIZES[label], n_procs, base_radix)
        ).time_ns
        grid[label] = {}
        for r in radix_range:
            t = runner.run(
                RunSpec(algorithm, model, SIZES[label], n_procs, r)
            ).time_ns
            grid[label][f"r={r}"] = t / base
    text = grouped_series(grid, title, unit=f"x r={base_radix}")
    return ExperimentResult(exp_id, title, grid, text, claim)


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
    """Best times (Table 2) and best model+radix combos (Table 3)."""
    sizes = sizes or SIZE_ORDER
    procs = procs or PROC_COUNTS
    radix_choices = radix_choices or [7, 8, 11, 12]
    chosen = {"radix": radix_models, "sample": sample_models}
    grid = [(alg, chosen[alg] or models) for alg, models in ALGORITHM_MODELS]

    runner.run_many(
        [
            RunSpec(algorithm, m, SIZES[label], p, r)
            for algorithm, models in grid
            for label in sizes
            for p in procs
            for m in models
            for r in radix_choices
        ]
    )
    best_time: dict[str, dict[str, dict[int, float]]] = {"radix": {}, "sample": {}}
    best_combo: dict[str, dict[str, dict[int, tuple[str, int]]]] = {
        "radix": {},
        "sample": {},
    }
    for algorithm, models in grid:
        for label in sizes:
            best_time[algorithm][label] = {}
            best_combo[algorithm][label] = {}
            for p in procs:
                cell_best = None
                cell_combo = None
                for m in models:
                    for r in radix_choices:
                        t = runner.run(
                            RunSpec(algorithm, m, SIZES[label], p, r)
                        ).time_ns
                        if cell_best is None or t < cell_best:
                            cell_best, cell_combo = t, (m, r)
                best_time[algorithm][label][p] = cell_best / 1e3  # us
                best_combo[algorithm][label][p] = cell_combo

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
    """The paper's closing comparison: per grid cell, which *algorithm x
    model* combination wins (at each algorithm's best standard radix)."""
    sizes = sizes or SIZE_ORDER
    procs = procs or PROC_COUNTS
    combos = [
        ("radix", "ccsas", 8),
        ("radix", "shmem", 8),
        ("radix", "mpi-new", 8),
        ("sample", "ccsas", 11),
        ("sample", "shmem", 11),
        ("sample", "mpi-new", 11),
    ]
    runner.run_many(
        [
            RunSpec(alg, m, SIZES[label], p, r)
            for label in sizes
            for p in procs
            for alg, m, r in combos
        ]
    )
    data: dict[str, dict] = {}
    rows = []
    for label in sizes:
        for p in procs:
            cell = {}
            for alg, m, r in combos:
                cell[f"{alg}/{m}"] = runner.run(
                    RunSpec(alg, m, SIZES[label], p, r)
                ).time_ns
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
    """Predicted vs. simulated totals per grid cell, plus sweep latency.

    Runs every algorithm x model at each size/processor count on both the
    simulated backend (via ``runner``, so cells come from the shared
    cache/memo) and the analytic ``predict`` backend, and reports the
    per-cell relative error band alongside the wall-clock cost of each
    sweep.  ``benchmarks/BENCH_1.json`` pins this result; CI regenerates
    it, drift-diffs the simulated/predicted times and runs
    :func:`gate_predict_compare`.
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
    runner.run_many(specs)
    sim_wall_s = time.perf_counter() - t0

    predictor = ExperimentRunner(costs=runner.costs, backend="predict")
    t0 = time.perf_counter()
    predictor.run_many(specs)
    predict_wall_s = time.perf_counter() - t0

    cells: dict[str, dict[str, float]] = {}
    rels: list[float] = []
    rows = []
    for spec in specs:
        sim_ns = runner.run(spec).time_ns
        pred_ns = predictor.run(spec).time_ns
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
    rels_sorted = sorted(rels)
    band = {
        "median_abs_rel": rels_sorted[len(rels_sorted) // 2],
        "p95_abs_rel": rels_sorted[
            max(0, int(round(0.95 * len(rels_sorted))) - 1)
        ],
        "max_abs_rel": rels_sorted[-1],
        "n_cells": len(rels_sorted),
    }
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
    :data:`~repro.verify.differential.PREDICT_ERROR_GATE` (the bound
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
    """Machine-zoo x workload sweep on the simulator (BENCH_5).

    Runs every machine-zoo member (docs/MACHINES.md) against every
    workload kind (u32 plus the widened matrix) under both algorithms,
    verifying each cell's output against ``np.sort``/``np.argsort`` and
    recording the simulated total time and the BUSY/LMEM/RMEM/SYNC
    split.  ``benchmarks/BENCH_5.json`` pins the ``--small`` result:
    every number here is deterministic simulator output, so
    ``benchmarks/compare.py`` drift-diffs it like BENCH_0 (a lost cell,
    a flipped ``verified`` or a moved time all show as drift).
    """
    del runner
    from ..core.api import sort
    from ..data.workloads import (
        Workload, make_workload, reference_sort, workloads_equal,
    )
    machines = machines or list(MACHINES)
    workloads = workloads or list(ALL_WORKLOADS)

    cells: dict[str, dict[str, float | int]] = {}
    rows = []
    for machine_name in machines:
        machine = (
            None if machine_name == "origin2000"
            else get_machine(machine_name, n_procs=p)
        )
        model = machine_model(machine_name)
        for kind in workloads:
            w = make_workload(kind, n, p, seed=1)
            expect = reference_sort(w)
            for algorithm in ("radix", "sample"):
                result = sort(
                    w.keys, algorithm=algorithm, model=model, n_procs=p,
                    machine=machine, payload=w.payload,
                )
                got = Workload(kind, result.sorted_keys, result.payload)
                verified = int(workloads_equal(got, expect))
                means = result.report.category_means_ns()
                cells[f"{machine_name}/{kind}/{algorithm}"] = {
                    "machine": machine_name,
                    "workload": kind,
                    "algorithm": algorithm,
                    "model": model,
                    "time_ns": result.time_ns,
                    "category_means_ns": means,
                    "verified": verified,
                }
                rows.append(
                    [f"{machine_name}/{kind}", algorithm, model,
                     f"{result.time_ns / 1e6:,.2f}",
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

    ``run(runner, **kwargs)`` is the harness; ``small`` its ``--small``
    keyword arguments; ``gate(data)`` returns the failure messages of the
    result's absolute invariants (``None`` for results that are only
    drift-diffed).
    """

    run: Callable[..., object]
    small: dict = field(default_factory=dict)
    gate: Callable[[dict], list[str]] | None = None


_SMALL_CORNERS = dict(sizes=["1M", "64M"], procs=[16, 64])
_SMALL_EXTREMES = dict(sizes=["1M", "256M"])

#: Registry: experiment id -> :class:`Experiment`.
EXPERIMENTS: dict[str, Experiment] = {
    "summary": Experiment(summary, _SMALL_CORNERS),
    "table1": Experiment(table1, dict(sizes=["1M", "16M"])),
    "fig1": Experiment(figure1, _SMALL_CORNERS),
    "fig2": Experiment(figure2, _SMALL_CORNERS),
    "fig3": Experiment(figure3, _SMALL_CORNERS),
    "fig4": Experiment(figure4),
    "fig5": Experiment(figure5, _SMALL_EXTREMES),
    "fig6": Experiment(figure6, _SMALL_EXTREMES),
    "fig7": Experiment(figure7, _SMALL_CORNERS),
    "fig8": Experiment(figure8),
    "fig9": Experiment(figure9, _SMALL_EXTREMES),
    "fig10": Experiment(figure10, _SMALL_EXTREMES),
    "tables2_and_3": Experiment(
        tables2_and_3, dict(_SMALL_CORNERS, radix_choices=[8, 11])
    ),
    "predict_compare": Experiment(
        predict_compare, dict(sizes=["1M"], procs=[16]),
        gate=gate_predict_compare,
    ),
    "machine_zoo": Experiment(machine_zoo, dict(n=16 * 128, p=16)),
}
