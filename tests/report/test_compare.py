"""``benchmarks/compare.py``: the drift diff and the registry's gates,
each fed one passing and one failing document."""

import copy
import importlib.util
import json
import pathlib

import pytest

from repro.report.experiments import (
    PREDICT_SWEEP_BUDGET_S,
    gate_predict_compare,
)
from repro.verify.differential import PREDICT_ERROR_GATE

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"

_spec = importlib.util.spec_from_file_location(
    "bench_compare", BENCH_DIR / "compare.py"
)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _baseline(n: int) -> dict:
    return json.loads((BENCH_DIR / f"BENCH_{n}.json").read_text())


def _data(doc: dict, exp_id: str) -> dict:
    (result,) = [r for r in doc["results"] if r["exp_id"] == exp_id]
    return result["data"]


def _run(tmp_path, baseline: dict, current: dict, *extra: str) -> int:
    base, cur = tmp_path / "base.json", tmp_path / "cur.json"
    base.write_text(json.dumps(baseline))
    cur.write_text(json.dumps(current))
    return compare.main([str(base), str(cur), *extra])


class TestPredictCompareGate:
    def test_checked_in_baseline_passes(self):
        assert gate_predict_compare(_data(_baseline(1), "predict_compare")) == []

    def test_error_band_and_budget_fail(self):
        data = copy.deepcopy(_data(_baseline(1), "predict_compare"))
        data["band"]["median_abs_rel"] = PREDICT_ERROR_GATE + 0.01
        data["latency"]["predict_wall_s"] = PREDICT_SWEEP_BUDGET_S + 1.0
        failures = gate_predict_compare(data)
        assert len(failures) == 2
        assert "median" in failures[0] and "budget" in failures[1]

    def test_missing_measurements_fail(self):
        assert len(gate_predict_compare({})) == 2


class TestMachineZooGate:
    """The zoo sweep is deterministic simulator output, so its gate is
    the drift diff: an unverified cell, lost coverage and an empty sweep
    each move numbers BENCH_5 pins (``verified`` and the ``summary``
    counts the harness derives from its cells)."""

    def test_checked_in_baseline_passes(self, tmp_path, capsys):
        """Regenerated with the cache off, ``machine_zoo --small`` equals
        the checked-in BENCH_5 with no tolerance at all."""
        from repro.__main__ import main

        fresh = tmp_path / "fresh.json"
        assert main(
            ["machine_zoo", "--small", "--no-cache", "--json", str(fresh)]
        ) == 0
        baseline = str(BENCH_DIR / "BENCH_5.json")
        assert compare.main([baseline, str(fresh), "--rtol", "0"]) == 0
        assert "diffing machine_zoo" in capsys.readouterr().out

    def test_unverified_cell_and_lost_coverage_fail(self, tmp_path, capsys):
        from repro.report.experiments import machine_zoo

        doc = _baseline(5)
        data = _data(doc, "machine_zoo")
        machines = [m for m in data["machines"] if m != "bsp"]
        workloads = [w for w in data["workloads"] if w != "f64"]
        cur = copy.deepcopy(doc)
        lost = machine_zoo(
            None, n=data["n"], p=data["p"], machines=machines,
            workloads=workloads,
        ).data
        next(iter(lost["cells"].values()))["verified"] = 0
        cur["results"][0]["data"] = lost
        assert _run(tmp_path, doc, cur, "--rtol", "0") == 1
        out = capsys.readouterr().out
        assert "DRIFT machine_zoo:cells." in out and ".verified: 1 -> 0" in out
        assert "DRIFT machine_zoo:summary.machines_covered: 4 -> 3" in out
        assert "DRIFT machine_zoo:summary.workloads_covered: 6 -> 5" in out

    def test_empty_fails(self, tmp_path, capsys):
        doc = _baseline(5)
        cur = copy.deepcopy(doc)
        cur["results"][0]["data"] = {
            "cells": {},
            "summary": {"n_cells": 0, "machines_covered": 0,
                        "workloads_covered": 0},
        }
        assert _run(tmp_path, doc, cur) == 1
        assert "DRIFT machine_zoo:summary.n_cells: 48 -> 0" in capsys.readouterr().out


class TestDriftDiff:
    def test_identical_documents_pass(self, tmp_path, capsys):
        doc = _baseline(0)
        assert _run(tmp_path, doc, doc) == 0
        assert "ok" in capsys.readouterr().out

    def test_drift_beyond_rtol_fails(self, tmp_path, capsys):
        doc = _baseline(0)
        cur = copy.deepcopy(doc)
        _data(cur, "table1")["1M"] *= 1.2
        assert _run(tmp_path, doc, cur) == 1
        assert "DRIFT table1:1M" in capsys.readouterr().out
        assert _run(tmp_path, doc, cur, "--rtol", "0.25") == 0

    def test_wall_clocks_are_never_diffed(self, tmp_path):
        doc = _baseline(1)
        cur = copy.deepcopy(doc)
        _data(cur, "predict_compare")["latency"]["sim_wall_s"] *= 50
        assert _run(tmp_path, doc, cur) == 0

    def test_gate_failure_fails_the_run(self, tmp_path, capsys):
        doc = _baseline(1)
        cur = copy.deepcopy(doc)
        latency = _data(cur, "predict_compare")["latency"]
        latency["predict_wall_s"] = PREDICT_SWEEP_BUDGET_S + 1.0  # undiffed
        assert _run(tmp_path, doc, cur) == 1
        out = capsys.readouterr().out
        assert "FAIL predicted sweep took" in out and "DRIFT" not in out

    def test_zoo_time_and_verified_drift_are_reported(self, tmp_path, capsys):
        """``machine_zoo`` is diffed like every other result: a flipped
        ``verified`` and a changed ``time_ns`` both print as drift."""
        doc = _baseline(5)
        cur = copy.deepcopy(doc)
        label, cell = next(iter(_data(cur, "machine_zoo")["cells"].items()))
        cell["time_ns"] *= 3
        cell["verified"] = 0
        assert _run(tmp_path, doc, cur) == 1
        out = capsys.readouterr().out
        assert f"DRIFT machine_zoo:cells.{label}.time_ns" in out
        assert f"DRIFT machine_zoo:cells.{label}.verified" in out

    def test_regenerated_bench_0_is_exact(self, tmp_path):
        """The exact-equality guard for simulator refactors: BENCH_0's
        three experiments, recomputed with the cache off, reproduce the
        checked-in numbers with no tolerance at all."""
        from repro.__main__ import main

        fresh = tmp_path / "fresh.json"
        argv = ["table1", "fig4", "fig8", "--small", "--no-cache"]
        assert main([*argv, "--json", str(fresh)]) == 0
        baseline = compare.load_results(BENCH_DIR / "BENCH_0.json")
        current = compare.load_results(fresh)
        assert compare.diffed_ids(baseline, current) == ["fig4", "fig8", "table1"]
        assert list(compare.diff_shared(baseline, current, rtol=0)) == []

    @pytest.mark.parametrize("current", [
        {"results": []},  # empty document
        {"results": [{"exp_id": "fig3", "data": {"x": 1.0}}]},  # wrong file
    ])
    def test_nothing_compared_is_a_failure(self, tmp_path, capsys, current):
        assert _run(tmp_path, _baseline(0), current) == 1
        assert "nothing to compare" in capsys.readouterr().out
