"""The repo's benchmark: a layered wall-clock ledger over native, serve,
stream and sim.

One workload, as the driver runs it (prints every metric by name, then
one JSON result line)::

    python3 benchmarks/ledger/run.py --workload serve_small --seed 1 \\
        --seconds 12 --trace 0        # end-to-end metrics, untraced
    ...                    --trace 1  # per-layer metrics, traced

All six workloads, each pass in a fresh child process, one document::

    python3 benchmarks/ledger/run.py [--seed N] [--seconds S] [--out DIR]

Exits non-zero when any op failed or anything leaked.  See README.md in
this directory for the metric tables and how to read the trace.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import harness
import metrics
from harness import OpLog

harness.prepare_environment()

import probes  # noqa: E402  (needs the program importable)
from spans import SpanRecorder  # noqa: E402
from workloads import Budget, make_workload  # noqa: E402


def _emit(section: dict, name: str, value: float, n: int | None = None) -> None:
    """Record one metric and print it by name with its unit."""
    spec = metrics.END_TO_END_BY_NAME.get(name) or metrics.PER_LAYER_BY_NAME[name]
    section[name] = {"value": float(value), "unit": spec.unit}
    count = ""
    if n is not None:
        section[name]["n"] = n
        count = f"  (n={n})"
    print(f"  {name:42s} {value:16.6g} {spec.unit}{count}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, out: Path | None, workdir: Path) -> dict:
    """Run one workload in this process; returns its document.

    A run is a few *epochs*: a cold set-up (timed: the median is
    ``setup_s``), a warm-up, one timed closed loop -- two in the traced
    pass, untraced then traced on the same set-up -- and a tear-down.
    Every op metric is computed per epoch and the median epoch reported,
    so that where a pool's or a server's processes happened to land does
    not decide the run."""
    print(f"[{name}] seed={seed} seconds={seconds:g} trace={int(trace)}")
    before = harness.leak_candidates(workdir)
    stolen0, ticks0 = harness.cpu_ticks()
    wl = make_workload(name, seed, quick, workdir)
    wl.prepare()
    baseline = harness.NpSortBaseline(wl.key_files, wl.baseline_scale)
    rec = SpanRecorder() if trace else None
    epochs = wl.traced_epochs if trace else wl.epochs
    leg_s = seconds / epochs * (0.3 if trace else 1.0)
    setups: list[float] = []
    untraced: list[OpLog] = []
    traced: list[OpLog] = []
    warmups: list[OpLog] = []
    end_to_end: dict = {}
    per_layer: dict = {}
    rss_mb = 0.0

    def timed_setup() -> None:
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)

    try:
        for _ in range(wl.extra_setups):
            try:
                timed_setup()
            finally:
                wl.teardown()
        for epoch in range(epochs):
            try:
                timed_setup()
                warmups.append(wl.run_ops(Budget(ops=wl.warmup_ops)))
                untraced.append(wl.run_ops(Budget(seconds=leg_s), baseline=baseline))
                if trace:
                    traced.append(wl.run_ops(Budget(seconds=leg_s), rec))
                    if epoch == epochs - 1:
                        _per_layer(per_layer, wl, untraced, traced, rec, baseline, quick)
                else:
                    rss_mb = max(rss_mb, harness.peak_rss_mb(exclude=(baseline.pid,)))
            finally:
                wl.teardown()
        if trace and out is not None:
            rec.dump(out / f"trace_{name}.json")
    finally:
        baseline.close()

    logs = warmups + untraced + traced
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    for log in logs:
        for why in log.errors:
            print(f"  failed op: {why}", file=sys.stderr)
    leaks = sorted(harness.leak_candidates(workdir) - before)
    for path in leaks:
        print(f"  leaked: {path}", file=sys.stderr)
    if not trace:
        _end_to_end(end_to_end, wl, untraced, setups, baseline, rss_mb)
        _emit(end_to_end, "failed_frac", failed / attempted, attempted)
    stolen1, ticks1 = harness.cpu_ticks()
    steal_frac = (stolen1 - stolen0) / max(1, ticks1 - ticks0)
    print(f"  {'(host) cpu time stolen during the run':42s} {steal_frac:16.6g} fraction")
    return {
        "workload": name,
        "trace": int(trace),
        "seed": seed,
        "seconds": seconds,
        "epochs": epochs,
        "warmup_ops": wl.warmup_ops,
        "keys_per_op": wl.keys_per_op,
        "input_digest": wl.input_digest(),
        "attempted": attempted,
        "failed": failed,
        "leaked": leaks,
        "host_steal_frac": steal_frac,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _over_epochs(logs: list[OpLog], stat) -> float:
    """The median epoch's value of ``stat`` (epochs where every op failed
    have no value and are skipped; the failures still count)."""
    return harness.median(stat(log) for log in logs if log.durations)


def _pooled_p90_ms(logs: list[OpLog]) -> float:
    """The tail needs every sample it can get: one percentile over the ops
    of all epochs."""
    return harness.percentile([d for log in logs for d in log.durations], 90) * 1e3


def _end_to_end(section, wl, logs, setups, baseline, rss_mb) -> None:
    n = sum(len(log.durations) for log in logs)
    p50 = _over_epochs(logs, OpLog.p50_ms)
    _emit(section, "setup_s", harness.median(setups), len(setups))
    _emit(section, "op_ms_p50", p50, n)
    per_epoch = " ".join(f"{log.p50_ms():.4g}" for log in logs if log.durations)
    print(f"  {'(per epoch) op_ms_p50':42s} {per_epoch}")
    if wl.name in metrics.END_TO_END_BY_NAME["op_ms_p90"].workloads:
        _emit(section, "op_ms_p90", _pooled_p90_ms(logs), n)
    _emit(section, "mkeys_per_s", _over_epochs(logs, wl.mkeys_per_s), n)
    _emit(section, "vs_npsort_ratio", p50 / baseline.median_ms(), len(baseline.samples_ms))
    print(f"  {'(base) host.npsort_ms':42s} {baseline.median_ms():16.6g} ms")
    _emit(section, "peak_rss_mb", rss_mb)
    print(f"  {'(beside) input size':42s} {wl.keys_per_op * 8 / 1e6:16.6g} MB per op")


def _per_layer(section, wl, untraced, traced, rec, baseline, quick) -> None:
    keys = wl.probe_keys()
    shared = probes.host_memcpy(keys)
    shared["host.npsort_ms"] = baseline.median_ms()
    shared.update(probes.native_kernels(keys, shared["host.memcpy_gb_s"]))
    shared.update(probes.native_pool(20 if quick else 200))
    traced_p50 = _over_epochs(traced, OpLog.p50_ms)
    values = {
        **shared,
        **wl.layers(rec, traced_p50, shared),
        "bench.untraced_op_ms_p50": _over_epochs(untraced, OpLog.p50_ms),
        "bench.traced_op_ms_p50": traced_p50,
        # Paired: both legs of an epoch ran on the same pool or server.
        "bench.trace_overhead_frac": harness.median(
            t.p50_ms() / u.p50_ms() - 1
            for t, u in zip(traced, untraced) if t.durations and u.durations
        ),
        "op_ms_p90": _pooled_p90_ms(untraced),
    }
    print(f"  (array {keys.nbytes} B, LLC {harness.llc_bytes()} B: bandwidth is "
          "at working-set size; backend.sim.* is simulated time)")
    for spec in metrics.PER_LAYER:
        if metrics.layer_on_path(spec, wl.name):
            _emit(section, spec.name, values[spec.name])


# ----------------------------------------------------------------------
def result_line(doc: dict) -> str:
    """The driver's result: every declared metric of the pass, a layer the
    workload never enters reading 0."""
    if doc["trace"]:
        body = {
            m.name: doc["per_layer"].get(m.name, {"value": 0, "unit": m.unit})
            for m in metrics.PER_LAYER
        }
    else:
        body = {m.name: doc["end_to_end"][m.name] for m in metrics.contract_end_to_end()}
    return json.dumps({
        "correct": doc["failed"] == 0 and not doc["leaked"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in body.items()},
    })


def run_all(args, workdir: Path) -> int:
    """Every workload, untraced then traced, each in a fresh child."""
    docs_dir = args.out if args.out is not None else workdir
    ledger = {"meta": {**harness.host_meta(workdir), "seed": args.seed,
                       "seconds": args.seconds, "quick": args.quick},
              "workloads": {}}
    bad = False
    for name in metrics.WORKLOADS:
        entry = ledger["workloads"][name] = {}
        for trace in (0, 1):
            doc_path = docs_dir / f"{name}.trace{trace}.json"
            cmd = [sys.executable, str(harness.HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--doc", str(doc_path)]
            if args.quick:
                cmd.append("--quick")
            if args.out is not None:
                cmd += ["--out", str(args.out)]
            sys.stdout.flush()
            done = subprocess.run(cmd)
            if done.returncode != 0 or not doc_path.is_file():
                print(f"[{name}] trace={trace} exited {done.returncode}", file=sys.stderr)
                bad = True
                continue
            doc = json.loads(doc_path.read_text())
            entry.update({k: doc[k] for k in ("keys_per_op", "warmup_ops", "input_digest")})
            section = "per_layer" if trace else "end_to_end"
            entry[section] = doc[section]
            entry[f"{section}_ops"] = {"attempted": doc["attempted"], "failed": doc["failed"],
                                       "host_steal_frac": doc["host_steal_frac"]}
            bad = bad or doc["failed"] > 0 or bool(doc["leaked"])
        # Exact, so it may come from the traced child; end-to-end all the same.
        if "pred_err_pct_p50" in entry.get("per_layer", {}) and "end_to_end" in entry:
            entry["end_to_end"]["pred_err_pct_p50"] = entry["per_layer"]["pred_err_pct_p50"]
    if args.out is not None:
        (args.out / "ledger.json").write_text(json.dumps(ledger, indent=1))
        print(f"wrote {args.out / 'ledger.json'}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for ledger.json and trace_<workload>.json")
    parser.add_argument("--doc", type=Path, help="also write this run's full document here")
    parser.add_argument("--quick", action="store_true", help="tiny inputs (the harness's own test)")
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        args.out = args.out.resolve()

    with harness.ProcessScope(), harness.WorkDir() as workdir:
        if args.workload is None:
            return run_all(args, workdir)
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.quick, args.out, workdir)
        if args.doc is not None:
            doc["meta"] = harness.host_meta(workdir)
            args.doc.write_text(json.dumps(doc, indent=1))
        # The result line carries correctness; the exit code says it was printed.
        print(result_line(doc))
        return 0


if __name__ == "__main__":
    sys.exit(main())
