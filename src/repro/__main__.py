"""Command line: regenerate any of the paper's tables/figures, or run
one of the subcommands (trace a sort, predict, check, chaos, serve, ...).

One argparse tree registers every command once (:func:`_parser`):
``python -m repro --help`` and ``python -m repro list`` name them all,
``python -m repro <command> --help`` gives a command's options, and
README.md and docs/ have worked examples.  For instance::

    python -m repro table1 fig4 --small  # several experiments at once
    python -m repro all --small --json now.json          # every experiment
    python -m repro fig3 --small --trace-out fig3.json   # + Perfetto trace
    python -m repro check --small --machine bsp
    python -m repro chaos --seed 0 --small
    python -m repro serve --port 7453
"""

from __future__ import annotations

import argparse
import sys

from .core.experiment import ExperimentRunner
from .data.distributions import DISTRIBUTIONS
from .data.workloads import WORKLOAD_KINDS
from .machine.zoo import MACHINES
from .report.experiments import EXPERIMENTS
from .trace import MemoryRecorder, use_recorder, write_chrome_trace


def _experiments(args: argparse.Namespace) -> int:
    """Run experiment ids (``<id> [<id> ...]``, or ``all``)."""
    wanted = (
        list(EXPERIMENTS) if args.command == "all" else [args.command, *args.more]
    )
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        return _unknown_experiments(unknown)

    recorder = MemoryRecorder() if args.trace_out else None
    runner = ExperimentRunner(
        cache=False if (args.no_cache or args.trace_out) else None,
        parallel=args.parallel,
        backend=args.backend,
    )
    collected = []
    with use_recorder(recorder):
        for exp_id in wanted:
            exp = EXPERIMENTS[exp_id]
            result = exp.run(runner, **(exp.small if args.small else {}))
            results = result if isinstance(result, tuple) else (result,)
            for r in results:
                collected.append(r)
                print()
                print(r.text)
    if args.json:
        from .report.emit import write_results_json

        write_results_json(
            args.json,
            collected,
            meta={"experiments": wanted, "small": args.small},
        )
        print(f"\n{len(collected)} experiment results -> {args.json}",
              file=sys.stderr)
    if recorder is not None:
        write_chrome_trace(args.trace_out, recorder)
        print(
            f"\n{len(recorder.events)} trace events -> {args.trace_out}",
            file=sys.stderr,
        )
    return 0


def _unknown_experiments(unknown: list[str]) -> int:
    print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
    print(f"choose from: {', '.join(EXPERIMENTS)}", file=sys.stderr)
    return 2


def _trace(args: argparse.Namespace) -> int:
    from .core.api import sort
    from .data import generate

    n_procs = args.procs
    if args.backend == "sim" and n_procs is None:
        n_procs = 16
    gen_procs = (n_procs if args.backend == "sim" else None) or 1
    if args.size <= 0 or args.size % gen_procs:
        args.error(
            f"--size {args.size} is not a positive multiple of the "
            f"{gen_procs} processor(s) the keys are generated for"
        )
    keys = generate(args.distribution, args.size, gen_procs)
    recorder = MemoryRecorder(verbose=args.verbose_trace)
    result = sort(
        keys,
        algorithm=args.algorithm,
        backend=args.backend,
        model=args.model,
        n_procs=n_procs,
        trace=recorder,
    )
    write_chrome_trace(args.out, recorder)
    means = result.report.category_means_ns()
    print(
        f"{args.backend}/{args.algorithm}: {len(keys)} keys on "
        f"{result.n_procs} procs -> {result.time_us:,.1f} us"
        + (f" ({result.wall_time_s * 1e3:.1f} ms wall)" if result.wall_time_s else "")
    )
    print(
        "  " + "  ".join(f"{k}={v / 1e3:,.1f}us" for k, v in means.items())
    )
    print(f"  {len(recorder.events)} trace events -> {args.out}")
    return 0


def _check(args: argparse.Namespace) -> int:
    from .verify import run_check

    return run_check(
        small=args.small, native=not args.no_native, parallel=args.parallel,
        backend=args.backend, machine=args.machine, workload=args.workload,
    )


def _parse_size(text: str) -> int:
    """Accept the paper's size labels ('256M') or raw key counts."""
    from .core.experiment import SIZES

    if text in SIZES:
        return SIZES[text]
    try:
        return int(text)
    except ValueError:
        raise SystemExit(
            f"unknown size {text!r}; use a key count or one of "
            f"{', '.join(SIZES)}"
        ) from None


def _predict(args: argparse.Namespace) -> int:
    import time as _time

    import numpy as np

    from .core.api import sort
    from .core.experiment import ALGORITHM_MODELS
    from .predict import PredictedBackend, load_calibration

    if args.uncalibrated:
        backend = PredictedBackend(calibration=False)
    elif args.calibration is not None:
        backend = PredictedBackend(
            calibration=load_calibration(args.calibration)
        )
    else:
        backend = PredictedBackend()
    n = _parse_size(args.size)

    cells = (
        [(alg, model) for alg, models in ALGORITHM_MODELS for model in models]
        if args.sweep
        else [(args.algorithm, args.model)]
    )
    rows = []
    t0 = _time.perf_counter()
    for alg, model in cells:
        result = sort(
            np.empty(0, dtype=np.int64),
            algorithm=alg,
            backend=backend,
            model=model,
            n_procs=args.procs,
            radix=args.radix,
            n_labeled=n,
            distribution=args.distribution,
        )
        rows.append((alg, model, result))
    wall_s = _time.perf_counter() - t0

    print(
        f"predicted: {n:,} {args.distribution} keys on {args.procs} procs "
        f"({wall_s * 1e3:.0f} ms wall for {len(rows)} cell"
        f"{'s' if len(rows) != 1 else ''})"
    )
    print(f"  {'cell':<18} {'time':>12}  per-processor category means")
    for alg, model, result in rows:
        means = result.report.category_means_ns()
        detail = "  ".join(f"{k}={v / 1e6:,.1f}ms" for k, v in means.items())
        print(
            f"  {alg + '/' + model:<18} {result.time_us / 1e3:>9,.1f} ms  "
            f"{detail}"
        )
    if args.json:
        import json

        payload = {
            "n_labeled": n,
            "n_procs": args.procs,
            "distribution": args.distribution,
            "wall_s": wall_s,
            "cells": [
                {
                    "algorithm": alg,
                    "model": model,
                    "time_ns": result.time_ns,
                    "category_means_ns": result.report.category_means_ns(),
                }
                for alg, model, result in rows
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"{len(rows)} predictions -> {args.json}", file=sys.stderr)
    return 0


def _calibrate(args: argparse.Namespace) -> int:
    from .predict import default_calibration_path, fit_calibration

    cal = fit_calibration(small=args.small, parallel=args.parallel)
    out = args.out if args.out is not None else str(default_calibration_path())
    cal.save(out)
    print(f"calibration ({cal.meta.get('n_cells', '?')} cells) -> {out}")
    print(f"  {'group':<16} {'BUSY':>6} {'LMEM':>6} {'RMEM':>6} {'SYNC':>6}"
          f"  {'median err':>10} {'p95 err':>8}")
    for group in sorted(cal.factors):
        f = cal.factors[group]
        band = cal.error.get(group, {})
        print(
            f"  {group:<16} "
            + " ".join(f"{f[c]:>6.3f}" for c in ("BUSY", "LMEM", "RMEM", "SYNC"))
            + f"  {band.get('median_abs_rel', 0.0):>10.2%}"
            + f" {band.get('p95_abs_rel', 0.0):>8.2%}"
        )
    worst = cal.worst_median_error()
    print(f"  worst per-group median |rel error|: {worst:.2%}")
    return 0


def _chaos(args: argparse.Namespace) -> int:
    from .faults import run_chaos

    return run_chaos(
        seed=args.seed, small=args.small, soak=args.soak,
        trace_out=args.trace_out, scenario=args.scenario,
    )


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ServeServer

    recorder = MemoryRecorder() if args.trace_out else None
    server = ServeServer(
        args.host, args.port,
        n_workers=args.workers,
        queue_depth=args.queue_depth,
        data_slab_bytes=args.data_slab_mb << 20,
        default_deadline_s=args.deadline_s,
        recorder=recorder,
        max_frame=args.max_frame_mb << 20,
        max_streams=args.max_streams,
    )
    asyncio.run(server.serve_until_stopped())
    if recorder is not None:
        write_chrome_trace(args.trace_out, recorder)
        print(f"{len(recorder.events)} trace events -> {args.trace_out}",
              file=sys.stderr)
    return 0


def _loadgen(args: argparse.Namespace) -> int:
    if args.port is None and not args.spawn_server:
        args.error("need --port or --spawn-server")

    from contextlib import nullcontext

    from .serve import loadgen_ok, run_loadgen, server_in_thread

    ctx = (
        server_in_thread(
            n_workers=args.workers, queue_depth=args.queue_depth
        )
        if args.spawn_server
        else nullcontext()
    )
    with ctx as server:
        port = server.port if server is not None else args.port
        metrics = run_loadgen(
            args.host, port,
            clients=args.clients, duration_s=args.duration, seed=args.seed,
        )

    jobs, thr, lat = metrics["jobs"], metrics["throughput"], metrics["latency"]
    steady = metrics["steady_state"]
    print(
        f"loadgen: {jobs['completed']} jobs in {thr['wall_s']:.1f}s "
        f"({thr['jobs_per_s']:.1f} jobs/s) across {args.clients} clients"
    )
    if lat["p50_s"] is not None:
        print(
            f"  latency p50={lat['p50_s'] * 1e3:.1f}ms "
            f"p99={lat['p99_s'] * 1e3:.1f}ms max={lat['max_s'] * 1e3:.1f}ms"
        )
    rejected = ", ".join(f"{k}={v}" for k, v in jobs["rejected"].items())
    print(
        f"  incorrect={jobs['incorrect']} errors={jobs['errors']}"
        + (f" rejected: {rejected}" if rejected else "")
    )
    print(
        f"  steady state: shm_creates={steady['shm_creates']} "
        f"shm_attaches={steady['shm_attaches']} "
        f"(warmup took {steady['warmup_rounds']} rounds)"
    )
    for sample in jobs["error_samples"]:
        print(f"  ERROR {sample}", file=sys.stderr)
    return 0 if loadgen_ok(metrics) else 1


def _cache(args: argparse.Namespace) -> int:
    from .core.gridcache import GridCache, format_stats

    cache = GridCache(args.dir)
    if args.action == "stats":
        print(format_stats(cache))
    elif args.action == "clear":
        n = cache.clear()
        print(f"removed {n} cached entries from {cache.root}")
    else:  # gc
        removed = cache.gc(max_age_days=args.max_age_days)
        total = sum(removed.values())
        detail = ", ".join(f"{k}={v}" for k, v in removed.items() if v)
        print(
            f"gc removed {total} entries from {cache.root}"
            + (f" ({detail})" if detail else "")
        )
    return 0


def _stream(args: argparse.Namespace) -> int:
    import numpy as np

    from .stream import DEFAULT_FAN_IN, external_sort, stream_topk

    if args.input is not None:
        source: object = args.input
        n_hint = None
    else:
        from .data import generate

        n = args.size - (args.size % 4) or 4
        keys = generate(args.distribution, n, 4, seed=max(1, args.seed))
        source = keys.astype(np.dtype(args.dtype))
        n_hint = n

    if args.mode == "topk":
        chunk = args.chunk_keys or (1 << 20)
        top = stream_topk(source, args.k, chunk_keys=chunk, dtype=args.dtype)
        print(
            f"top-{args.k} of stream ({top.dtype.str}): "
            f"min={top[0]} max={top[-1]}" if len(top) else "empty stream"
        )
        if args.out:
            np.ascontiguousarray(top).tofile(args.out)
            print(f"{len(top)} keys -> {args.out}")
        return 0

    chunk = args.chunk_keys
    if chunk is None:
        chunk = max(4, n_hint // 8) if n_hint else 4 << 20
    result = external_sort(
        source,
        chunk_keys=chunk,
        dtype=args.dtype,
        fan_in=args.fan_in or DEFAULT_FAN_IN,
        n_workers=args.workers,
        out=args.out,
        verify=not args.no_verify,
    )
    plan = result.chunk_plan  # None: an empty source formed no run
    plan_text = "" if plan is None else (
        f", chunk plan {plan.algorithm} x{plan.width}"
        + (f" r={plan.radix}" if plan.radix else "")
    )
    print(
        f"externally sorted {result.n_keys:,} keys "
        f"({result.mb_sorted:.1f} MB, {result.dtype}) in "
        f"{result.elapsed_s * 1e3:,.1f} ms: {result.runs} run(s), "
        f"{result.merge_passes} merge pass(es), "
        f"{result.bytes_spilled / 1e6:.1f} MB spilled, "
        f"{result.throughput_mb_s:.1f} MB/s"
        + (", verified" if result.verified else "")
        + plan_text
    )
    print(
        f"  parent: {result.sort_s * 1e3:,.1f} ms sorting chunks, "
        f"{result.io_wait_s * 1e3:,.1f} ms waiting on the I/O thread"
    )
    if result.faults.injected:
        print(
            f"  faults: {result.faults.injected} injected, "
            f"{result.faults.recovered} recovered"
        )
    if args.out:
        print(f"sorted keys -> {args.out}")
    return 0


def _tune(args: argparse.Namespace) -> int:
    from .native.plan import default_table_path
    from .native.tune import format_table, sweep

    table = sweep(quick=args.quick)
    out = table.save(default_table_path())
    print(format_table(table))
    print(f"native plan table ({table.p} workers) -> {out}")
    return 0


def _grid_options(parser: argparse.ArgumentParser) -> None:
    """The options every experiment id (and ``all``) takes."""
    parser.add_argument(
        "--small", action="store_true", help="reduced grid (much faster)"
    )
    parser.add_argument(
        "--backend", choices=["sim", "predict"], default="sim",
        help="execution substrate for experiment grid cells: 'sim' (the "
        "discrete-event simulation) or 'predict' (the calibrated "
        "analytic model; milliseconds per cell, bypasses the cache and "
        "process pool).  Use the 'trace' subcommand for the native "
        "backend",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also record a structured trace of every simulated run and "
        "write it as Chrome-trace JSON (chrome://tracing / Perfetto); "
        "implies --no-cache (a cached cell would run no simulation to "
        "trace)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write every experiment's numbers as machine-readable "
        "JSON (diff against benchmarks/BENCH_0.json)",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="compute grid cells missing from the cache across N worker "
        "processes (default: serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the persistent disk cache (results are neither read "
        "from nor written to $REPRO_CACHE_DIR / ~/.cache/repro)",
    )


def _parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The one argparse tree: every experiment id, ``all``, ``list`` and
    every subcommand, each registered once with its handler.  Returns
    the root parser and its subcommand action."""
    root = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from Shan & Singh (SC 1999).",
    )
    commands = root.add_subparsers(
        dest="command", required=True, metavar="<command>",
        title="commands",
        description="an experiment id (more ids may follow it), 'all' "
        "(every experiment), 'list' (this table), or a subcommand",
    )

    def command(name, run, **kwargs) -> argparse.ArgumentParser:
        # A command registered with ``help`` is listed, by root --help
        # and by ``list`` alike; ``error`` lets its handler reject input
        # the way argparse does.
        kwargs.setdefault("description", kwargs.get("help"))
        sub = commands.add_parser(name, **kwargs)
        sub.set_defaults(run=run, error=sub.error)
        return sub

    def list_commands(args: argparse.Namespace) -> int:
        # argparse keeps each listed command here, in registration order.
        for choice in commands._choices_actions:
            print(f"{choice.dest:<14} {choice.help}")
        return 0

    for exp_id, exp in EXPERIMENTS.items():
        sub = command(exp_id, _experiments, help=exp.help)
        sub.add_argument(
            "more", nargs="*", metavar="EXPERIMENT",
            help="further experiment ids to run in the same pass",
        )
        _grid_options(sub)
    _grid_options(command("all", _experiments, description="Run every experiment."))
    command("list", list_commands, description="List every experiment and subcommand.")

    p = command(
        "trace", _trace, help="run one sort on a backend and export its trace",
        description="Run one sort on a chosen backend and write a "
        "Chrome-trace JSON (chrome://tracing / Perfetto).",
    )
    p.add_argument(
        "--backend", choices=["sim", "native"], default="sim",
        help="execution substrate (default: sim)",
    )
    p.add_argument("--algorithm", choices=["radix", "sample"], default="radix")
    p.add_argument(
        "--model", default="shmem",
        help="programming model, sim backend only (default: shmem)",
    )
    p.add_argument(
        "--size", type=int, default=1 << 16,
        help="number of keys (default: 65536)",
    )
    p.add_argument(
        "--procs", type=int, default=None,
        help="simulated processors / native workers (default: backend's)",
    )
    p.add_argument(
        "--distribution", choices=DISTRIBUTIONS, default="gauss",
        metavar="NAME", help="key distribution: %(choices)s (default: gauss)",
    )
    p.add_argument(
        "--verbose-trace", action="store_true",
        help="include per-message and per-DES-process events",
    )
    p.add_argument(
        "--out", "--trace-out", dest="out", default="trace.json",
        help="output path (default: trace.json)",
    )

    p = command(
        "predict", _predict, help="analytic performance prediction (no simulation)",
        description="Predict sort performance analytically (the "
        "calibrated 'predict' backend) -- milliseconds per cell, no "
        "discrete-event simulation, no key array at paper scale.",
    )
    p.add_argument("--algorithm", choices=["radix", "sample"], default="radix")
    p.add_argument(
        "--model", default="shmem",
        help="programming model (default: shmem); ignored with --sweep",
    )
    p.add_argument(
        "--size", default="256M",
        help="labeled key count: a paper label like 256M or an integer "
        "(default: 256M)",
    )
    p.add_argument(
        "--procs", type=int, default=64,
        help="processor count (default: 64)",
    )
    p.add_argument(
        "--radix", type=int, default=None,
        help="radix-digit width (default: the algorithm's tuned choice)",
    )
    p.add_argument(
        "--distribution", choices=DISTRIBUTIONS, default="gauss",
        metavar="NAME",
        help="key-distribution family: %(choices)s (default: gauss)",
    )
    p.add_argument(
        "--calibration", metavar="PATH", default=None,
        help="calibration artifact to apply (default: the active one -- "
        "$REPRO_CALIBRATION, the user cache, or the packaged default)",
    )
    p.add_argument(
        "--uncalibrated", action="store_true",
        help="disable calibration (raw closed-form predictions)",
    )
    p.add_argument(
        "--sweep", action="store_true",
        help="predict every model x both algorithms at this size/procs "
        "and print one table (the paper-scale sweep)",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the predictions as machine-readable JSON",
    )

    p = command(
        "calibrate", _calibrate,
        help="fit the analytic predictor against the simulator",
        description="Fit the analytic predictor's per-(algorithm, model) "
        "exchange overhead factors against simulated grid cells and "
        "persist the calibration artifact with its error bands.",
    )
    p.add_argument(
        "--small", action="store_true",
        help="reduced fitting grid (seconds, not minutes)",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="artifact path (default: the user cache, "
        "$REPRO_CACHE_DIR/calibration.json)",
    )
    p.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="compute the simulated reference cells across N workers",
    )

    p = command(
        "check", _check, help="sanitized differential verification of every backend",
        description="Run every model x algorithm x distribution through "
        "both backends under the runtime sanitizer and compare each "
        "result against np.sort.  Exit 0 iff every invariant held.",
    )
    p.add_argument(
        "--small", action="store_true",
        help="reduced grid: 3 distributions, 2K keys (seconds, not minutes)",
    )
    p.add_argument(
        "--no-native", action="store_true",
        help="skip the native (real host processes) backend",
    )
    p.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="run the simulated grid points across N worker processes",
    )
    p.add_argument(
        "--backend", choices=["all", "sim", "native", "predict"],
        default="all",
        help="restrict the sweep: 'predict' cross-validates the analytic "
        "predictor against the simulated grid on the same keys "
        "(default: all)",
    )
    p.add_argument(
        "--machine", metavar="NAME", choices=MACHINES, default=None,
        help="restrict the sweep to one machine-zoo member "
        "(%(choices)s; see docs/MACHINES.md)",
    )
    p.add_argument(
        "--workload", metavar="KIND", choices=WORKLOAD_KINDS, default=None,
        help="restrict the sweep to one workload kind (%(choices)s)",
    )

    p = command(
        "cache", _cache, help="stats / clear / gc for the persistent result cache",
        description="Inspect or manage the persistent experiment result "
        "cache (default ~/.cache/repro, override with REPRO_CACHE_DIR).",
    )
    p.add_argument("action", choices=["stats", "clear", "gc"])
    p.add_argument(
        "--dir", metavar="PATH", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--max-age-days", type=float, default=None, metavar="D",
        help="gc only: additionally remove entries older than D days",
    )

    p = command(
        "chaos", _chaos, help="seeded fault-injection matrix over both backends",
        description="Run the deterministic chaos matrix: inject seeded "
        "faults (worker crash/hang/slowdown, shared-memory and cache "
        "failures, simulated message delay/drop) across both backends "
        "and assert every sort equals np.sort with every fault "
        "recovered.  Exit 0 iff all scenarios pass.",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="fault-schedule seed; the same seed replays the identical "
        "schedule (default: 0)",
    )
    p.add_argument(
        "--small", action="store_true",
        help="reduced key counts (seconds, not minutes)",
    )
    p.add_argument(
        "--soak", type=int, default=1, metavar="N",
        help="repeat the matrix N times with derived seeds (default: 1)",
    )
    p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also write a Chrome-trace JSON including the fault track",
    )
    p.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="run only the named scenario (a name a full run prints); the "
        "fault-kind coverage floor applies to full runs only",
    )

    p = command(
        "serve", _serve, help="TCP sort-job server on the resilient native pool",
        description="Serve sort jobs over TCP on the resilient native "
        "worker pool with a preallocated shared-memory arena (zero "
        "per-job segment create/attach at steady state).  Runs until "
        "Ctrl-C or a client 'shutdown' op; see docs/SERVE.md.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = pick a free port and print it)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="pool width (default: $REPRO_WORKERS or the CPU count)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=8,
        help="admission cap on queued+running jobs (default: 8)",
    )
    p.add_argument(
        "--data-slab-mb", type=int, default=8,
        help="data-slab size; bounds the largest job (default: 8 MiB)",
    )
    p.add_argument(
        "--deadline-s", type=float, default=30.0,
        help="default per-job deadline (default: 30)",
    )
    p.add_argument(
        "--max-frame-mb", type=int, default=64,
        help="per-frame wire cap; FrameTooLarge rejections report it and "
        "streaming jobs chunk under it (default: 64 MiB)",
    )
    p.add_argument(
        "--max-streams", type=int, default=2,
        help="concurrent streaming sessions (default: 2)",
    )
    p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome-trace JSON (serve.job spans on the serve "
        "track) on shutdown",
    )

    p = command(
        "loadgen", _loadgen, help="load/latency harness for a repro.serve endpoint",
        description="Generate concurrent sort jobs against a repro.serve "
        "endpoint, verify every result against np.sort, and report "
        "jobs/sec with p50/p99 latency.  Exit 0 iff every completed job "
        "was correct and no client errored.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=None,
        help="server port (omit with --spawn-server)",
    )
    p.add_argument(
        "--spawn-server", action="store_true",
        help="run a server in-process for the duration of the test",
    )
    p.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client threads (default: 4)",
    )
    p.add_argument(
        "--duration", type=float, default=10.0, metavar="S",
        help="seconds of load (default: 10)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=None,
        help="spawned server's pool width (with --spawn-server)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=8,
        help="spawned server's admission cap (with --spawn-server)",
    )

    p = command(
        "stream", _stream, help="out-of-core sort / top-k over a key stream",
        description="Externally sort (or take the top-k of) a key stream "
        "that need not fit the chunk budget: chunked ingest, sorted spill "
        "runs (each chunk sorted as the native planner says), "
        "fault-tolerant k-way merge.",
    )
    p.add_argument(
        "mode", choices=["sort", "topk"],
        help="'sort': full external sort; 'topk': bounded-memory largest-k",
    )
    p.add_argument(
        "--input", metavar="PATH", default=None,
        help="raw little-endian key file to ingest (default: generate)",
    )
    p.add_argument(
        "--dtype", default="<i8",
        choices=["<i4", "<i8", "<u4", "<u8"],
        help="key dtype of the input stream (default: <i8)",
    )
    p.add_argument(
        "--size", type=int, default=1 << 20,
        help="generated keys when no --input (default: 1Mi)",
    )
    p.add_argument(
        "--distribution", choices=DISTRIBUTIONS, default="random",
        metavar="NAME",
        help="generated key distribution: %(choices)s (default: random)",
    )
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument(
        "--chunk-keys", type=int, default=None,
        help="keys per in-memory chunk / spill run (default: 4Mi, or "
        "size/8 for generated input so runs and a merge are exercised)",
    )
    p.add_argument(
        "--fan-in", type=int, default=None,
        help="max runs merged per pass (default: 16)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="native pool width for planned chunk sorts and merge passes "
        "(default: auto)",
    )
    p.add_argument(
        "--k", type=int, default=100,
        help="topk only: how many largest keys to keep (default: 100)",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="sort only: write the sorted keys as raw bytes here",
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="sort only: skip the streaming order/conservation checks",
    )

    p = command(
        "tune", _tune, help="measure this host's native sort crossover for the planner",
        description="Measure where sequential np.sort, native sample sort "
        "and native radix sort (at several digit widths) cross over on "
        "this host, and persist the table the native planner answers "
        "unpinned sorts from: native_plan.json in the user cache "
        "($REPRO_CACHE_DIR) (docs/PERF.md, 'Crossover').",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="three sizes, one key class, two repetitions (seconds)",
    )
    return root, commands


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and not argv[0].startswith("-") and argv[0] not in commands.choices:
        return _unknown_experiments(argv[:1])
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
