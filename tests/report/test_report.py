"""Report/rendering tests plus smoke runs of the experiment harnesses."""

import pytest

from repro.core.experiment import ExperimentRunner
from repro.report import (
    EXPERIMENTS,
    bar_chart,
    breakdown_panel,
    format_table,
    grouped_series,
    per_proc_strip,
)
from repro.report.experiments import table1, tables2_and_3


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[1:]} ) <= 2  # header sep may differ

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5], [0.1234], [12.34]])
        assert "1,234" in text or "1,235" in text
        assert "0.12" in text


class TestFigures:
    def test_bar_chart_scales(self):
        text = bar_chart({"a": 1.0, "bb": 2.0}, title="T", unit="x")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[2].count("#") == 2 * lines[1].count("#")

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="empty") == "empty"

    def test_grouped_series(self):
        text = grouped_series({"g1": {"a": 1.0}, "g2": {"a": 2.0}}, "All")
        assert "-- g1 --" in text and "-- g2 --" in text

    def test_breakdown_panel(self):
        text = breakdown_panel("m", {"BUSY": 5e6, "SYNC": 5e6}, 1e7)
        assert "BUSY" in text and "50.0%" in text

    def test_per_proc_strip(self):
        strip = per_proc_strip([0.0, 5.0, 10.0], "x")
        assert strip.startswith("x[")
        assert len(strip) == len("x[]") + 3


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


SMALL = dict(sizes=["1M"], procs=[16])


class TestHarnesses:
    def test_registry_complete(self):
        expected = {f"fig{i}" for i in range(1, 11)} | {
            "table1", "tables2_and_3", "summary", "predict_compare",
            "machine_zoo",
        }
        assert set(EXPERIMENTS) == expected
        assert {e for e, rec in EXPERIMENTS.items() if rec.gate} == {
            "predict_compare",
        }

    def test_table1(self, runner):
        res = table1(runner, sizes=["1M"])
        assert "1M" in res.data
        assert "paper" in res.text

    def test_figure1(self, runner):
        res = EXPERIMENTS["fig1"].run(runner, **SMALL)
        cell = res.data["1M/16p"]
        assert cell["mpi-new"] > cell["mpi-sgi"]
        assert "Figure 1" in res.text

    def test_figure3(self, runner):
        res = EXPERIMENTS["fig3"].run(runner, **SMALL)
        assert set(res.data["1M/16p"]) == {"shmem", "ccsas", "mpi-new", "ccsas-new"}

    def test_figure4(self, runner):
        res = EXPERIMENTS["fig4"].run(runner, size="1M", n_procs=16)
        assert set(res.data) == {"ccsas", "ccsas-new", "mpi-new", "shmem"}
        for panel in res.data.values():
            assert panel["total_ns"] > 0
            assert len(panel["per_proc_total_ns"]) == 16

    def test_figure5(self, runner):
        res = EXPERIMENTS["fig5"].run(runner, sizes=["1M"], n_procs=16,
                                      values=["gauss", "local"])
        assert res.data["1M"]["gauss"] == pytest.approx(1.0)
        assert res.data["1M"]["local"] < 1.0

    def test_figure6(self, runner):
        res = EXPERIMENTS["fig6"].run(
            runner, sizes=["1M"], n_procs=16, values=range(7, 9)
        )
        assert res.data["1M"]["r=8"] == pytest.approx(1.0)

    def test_tables2_and_3(self, runner):
        t2, t3 = tables2_and_3(
            runner, sizes=["1M"], procs=[16], radix_choices=[8, 11],
            radix_models=["shmem"], sample_models=["ccsas"],
        )
        assert t2.data["radix"]["1M"][16] > 0
        assert t3.data["radix"]["1M"][16] == ("shmem", 8) or \
            t3.data["radix"]["1M"][16] == ("shmem", 11)
        assert "Table 2" in t2.text and "Table 3" in t3.text

    def test_predict_compare_reports_the_true_median(self, runner):
        """An even cell count has two middle errors; the band's median is
        their mean (the one :func:`error_band` definition), not the upper
        one."""
        import statistics

        res = EXPERIMENTS["predict_compare"].run(
            runner, sizes=["1M"], procs=[16, 64]
        )
        rels = sorted(abs(c["rel_err"]) for c in res.data["cells"].values())
        assert len(rels) % 2 == 0
        assert res.data["band"]["median_abs_rel"] == statistics.median(rels)
        assert res.data["band"]["n_cells"] == len(rels)


class TestMachineZoo:
    def test_a_bad_cell_is_flagged_and_the_sweep_finishes(self, monkeypatch):
        """A cell whose output is wrong fails the check path's
        comparison; the zoo records it as ``verified: 0`` and goes on."""
        import dataclasses

        import repro.core.api as api
        from repro.report.experiments import machine_zoo

        real_sort = api.sort

        def corrupting_sort(keys, **kwargs):
            result = real_sort(keys, **kwargs)
            if kwargs["machine"] is not None and kwargs["algorithm"] == "sample":
                return dataclasses.replace(
                    result, sorted_keys=result.sorted_keys[::-1].copy()
                )
            return result

        monkeypatch.setattr(api, "sort", corrupting_sort)
        res = machine_zoo(
            None, n=16 * 64, p=16, machines=["origin2000", "bsp"],
            workloads=["u32"],
        )
        verified = {k: c["verified"] for k, c in res.data["cells"].items()}
        assert verified == {
            "origin2000/u32/radix": 1,
            "origin2000/u32/sample": 1,
            "bsp/u32/radix": 1,
            "bsp/u32/sample": 0,
        }
        assert res.data["summary"]["all_verified"] == 0
        assert "all verified: NO" in res.text


class TestErrorBand:
    def test_even_count(self):
        from repro.predict.calibration import error_band

        assert error_band([0.4, 0.1, 0.3, 0.2]) == {
            "median_abs_rel": pytest.approx(0.25),
            "p95_abs_rel": 0.4,
            "max_abs_rel": 0.4,
            "n_cells": 4,
        }

    def test_nearest_rank_p95(self):
        from repro.predict.calibration import error_band

        band = error_band([i / 100 for i in range(1, 41)])
        assert band["p95_abs_rel"] == 0.38  # rank round(0.95 * 40) = 38
        assert band["median_abs_rel"] == pytest.approx(0.205)


class TestProfile:
    def test_profile_structure(self, runner):
        from repro.core.experiment import RunSpec
        from repro.report import format_profile, profile_by_step, profile_outcome

        out = runner.run(RunSpec("radix", "shmem", 1 << 16, 16, 8))
        profs = profile_outcome(out)
        assert len(profs) == len(out.report.phases)
        # Radix structure: histogram/exchange/barrier steps appear per pass.
        steps = profile_by_step(out)
        for step in ("histogram", "exchange", "barrier"):
            assert step in steps, steps
        for p in profs:
            assert p.max_ns >= p.mean_ns >= 0
            assert p.imbalance >= 1.0 or p.mean_ns == 0

    def test_format_profile(self, runner):
        from repro.core.experiment import RunSpec
        from repro.report import format_profile

        out = runner.run(RunSpec("sample", "ccsas", 1 << 16, 16, 11))
        text = format_profile(out)
        assert "localsort1" in text
        assert "distribute" in text

    def test_min_ns_filter(self, runner):
        from repro.core.experiment import RunSpec
        from repro.report import format_profile

        out = runner.run(RunSpec("radix", "shmem", 1 << 16, 16, 8))
        full = format_profile(out)
        filtered = format_profile(out, min_ns=1e18)
        assert len(filtered.splitlines()) < len(full.splitlines())


class TestSummaryExperiment:
    def test_summary_small(self, runner):
        from repro.report.experiments import summary

        res = summary(runner, sizes=["1M"], procs=[16])
        cell = res.data["1M/16p"]
        assert cell["winner"] in cell["times_ns"]
        assert cell["keys_per_proc"] == (1 << 20) // 16
        assert "best" in res.text
