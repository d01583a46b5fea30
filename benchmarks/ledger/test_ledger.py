"""The harness's own test: a ``--quick`` pass with tiny inputs.

Not part of tier-1 (``testpaths = ["tests"]``); run it with

    PYTHONPATH=src python -m pytest benchmarks/ledger
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.5", *args],
        capture_output=True, text=True, timeout=600,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger")
    done = _run("--seed", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    doc = json.loads((out / "ledger.json").read_text())
    doc["_out"] = out
    return doc


# ----------------------------------------------------------------------
def test_declarations_are_legal_and_match_benchmark_json():
    names = [m.name for m in metrics.END_TO_END if m.contract]
    names += [m.name for m in metrics.PER_LAYER] + list(metrics.WORKLOADS)
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names + [m.name for m in metrics.END_TO_END]:
        assert NAME.fullmatch(name), name
    for m in (*metrics.END_TO_END, *metrics.PER_LAYER):
        assert UNIT.fullmatch(m.unit), (m.name, m.unit)
        assert m.better in ("lower", "higher")
    for m in metrics.END_TO_END:
        assert 0 <= m.bound <= 0.25
        assert set(m.workloads) <= set(metrics.WORKLOADS)
    assert all(len(why) <= 200 and "\n" not in why for why in metrics.WORKLOADS.values())
    assert metrics.END_TO_END_BY_NAME["setup_s"].contract
    assert 1 <= len(metrics.PER_LAYER) <= 128
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json()


def test_every_metric_is_emitted_exactly_where_it_is_defined(ledger):
    assert list(ledger["workloads"]) == list(metrics.WORKLOADS)
    for name, entry in ledger["workloads"].items():
        want = {m.name for m in metrics.END_TO_END if name in m.workloads}
        assert set(entry["end_to_end"]) == want, name
        want = {m.name for m in metrics.PER_LAYER if metrics.layer_on_path(m, name)}
        assert set(entry["per_layer"]) == want, name
        assert entry["end_to_end"]["failed_frac"]["value"] == 0
        assert entry["end_to_end_ops"]["failed"] == entry["per_layer_ops"]["failed"] == 0
        for section in ("end_to_end", "per_layer"):
            for metric, row in entry[section].items():
                spec = (metrics.END_TO_END_BY_NAME.get(metric)
                        or metrics.PER_LAYER_BY_NAME[metric])
                assert row["unit"] == spec.unit
        assert "bench.trace_overhead_frac" in entry["per_layer"]
        assert (ledger["_out"] / f"trace_{name}.json").is_file()


def test_meta_block(ledger):
    for key in ("cpu_count", "cpu_model", "llc_bytes", "ram_kb", "kernel", "python",
                "numpy", "native_kernel", "n_workers", "pool_start_method",
                "workdir_fs", "git_commit", "seed", "seconds"):
        assert key in ledger["meta"], key
    assert ledger["meta"]["n_workers"] == 2


def test_ledger_identities_close(ledger):
    for name in metrics.NATIVE:
        layer = {k: v["value"] for k, v in ledger["workloads"][name]["per_layer"].items()}
        for x in ("radix", "sample"):
            parts = sum(layer[f"native.{x}.{k}"] for k in ("task_ms", "sync_ms", "serial_ms"))
            assert parts == pytest.approx(layer[f"native.{x}.wall_ms"], rel=0.01)
    for name in metrics.SERVE:
        layer = {k: v["value"] for k, v in ledger["workloads"][name]["per_layer"].items()}
        parts = sum(layer[f"serve.server.{k}_ms_p50"]
                    for k in ("queue_wait", "engine", "overhead"))
        # Exact against the 40th-60th percentile band's mean op time, which
        # a handful of quick-mode ops only pins this loosely to the median.
        assert parts == pytest.approx(layer["bench.traced_op_ms_p50"], rel=0.25)
        assert layer["serve.engine.steady_shm_creates"] == 0
        assert layer["serve.engine.steady_shm_attaches"] == 0


def test_trace_spans_nest_and_share_op_ids(ledger):
    trace = json.loads((ledger["_out"] / "trace_native_small.json").read_text())
    spans = {s["id"]: s for s in trace["spans"]}
    phases = [s for s in spans.values() if s["name"].startswith("native.pool.phase:")]
    assert phases
    for phase in phases:
        sort = spans[phase["parent"]]
        assert sort["name"] == "native.sample.sort" and sort["op"] == phase["op"]
        assert sort["start"] <= phase["start"] and phase["end"] <= sort["end"]
        assert 0 <= sort["self_s"] <= sort["end"] - sort["start"]


def test_result_lines_carry_every_declared_metric():
    line = _result(_run("--workload", "native_small", "--trace", "0"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in metrics.contract_end_to_end()}
    assert all(row["value"] > 0 for row in line["metrics"].values())
    line = _result(_run("--workload", "native_small", "--trace", "1"))
    assert set(line["metrics"]) == {m.name for m in metrics.PER_LAYER}
    assert line["metrics"]["backend.sim.total_ns_sum"]["value"] == 0  # off its path


def test_seeds_change_inputs_but_sim_counts_repeat_per_seed(ledger, tmp_path):
    def sim_doc(seed: int, tag: str) -> dict:
        path = tmp_path / f"sim_{seed}_{tag}.json"
        _result(_run("--workload", "sim_grid", "--trace", "1", "--seed", str(seed),
                     "--doc", str(path)))
        return json.loads(path.read_text())

    def counts(doc: dict) -> dict:
        return {k: v["value"] for k, v in doc["per_layer"].items()
                if k.startswith(("backend.sim.", "pred")) and "host_ms" not in k
                and k != "predict.sweep_ms"}

    first = ledger["workloads"]["sim_grid"]
    again, other = sim_doc(1, "again"), sim_doc(2, "other")
    assert again["input_digest"] == first["input_digest"]
    assert counts(again) == {k: first["per_layer"][k]["value"] for k in counts(again)}
    assert other["input_digest"] != first["input_digest"]
    assert counts(sim_doc(2, "again")) == counts(other)


def test_agree_reports_agree_and_worse(ledger, tmp_path):
    base = {k: v for k, v in ledger.items() if k != "_out"}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(base))
    same = subprocess.run([sys.executable, str(HERE / "agree.py"), str(a), str(a)],
                          capture_output=True, text=True)
    assert same.returncode == 0 and "worse" not in same.stdout
    slow = json.loads(a.read_text())
    slow["workloads"]["serve_small"]["end_to_end"]["op_ms_p50"]["value"] *= 2
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slow))
    worse = subprocess.run([sys.executable, str(HERE / "agree.py"), str(a), str(b)],
                           capture_output=True, text=True)
    assert worse.returncode == 1
    assert re.search(r"serve_small\s+op_ms_p50.*worse", worse.stdout)
