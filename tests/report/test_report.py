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
from repro.report.experiments import (
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    table1,
    tables2_and_3,
)


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
        res = figure1(runner, **SMALL)
        cell = res.data["1M/16p"]
        assert cell["mpi-new"] > cell["mpi-sgi"]
        assert "Figure 1" in res.text

    def test_figure3(self, runner):
        res = figure3(runner, **SMALL)
        assert set(res.data["1M/16p"]) == {"shmem", "ccsas", "mpi-new", "ccsas-new"}

    def test_figure4(self, runner):
        res = figure4(runner, size="1M", n_procs=16)
        assert set(res.data) == {"ccsas", "ccsas-new", "mpi-new", "shmem"}
        for panel in res.data.values():
            assert panel["total_ns"] > 0
            assert len(panel["per_proc_total_ns"]) == 16

    def test_figure5(self, runner):
        res = figure5(runner, sizes=["1M"], n_procs=16,
                      distributions=["gauss", "local"])
        assert res.data["1M"]["gauss"] == pytest.approx(1.0)
        assert res.data["1M"]["local"] < 1.0

    def test_figure6(self, runner):
        res = figure6(runner, sizes=["1M"], n_procs=16, radix_range=range(7, 9))
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
