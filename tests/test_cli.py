"""CLI (`python -m repro`) tests."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import _parser, main
from repro.report.experiments import EXPERIMENTS

#: ``python -m repro list``'s subcommand lines, word for word.
SUBCOMMAND_LINES = [
    "trace          run one sort on a backend and export its trace",
    "predict        analytic performance prediction (no simulation)",
    "calibrate      fit the analytic predictor against the simulator",
    "check          sanitized differential verification of every backend",
    "cache          stats / clear / gc for the persistent result cache",
    "chaos          seeded fault-injection matrix over both backends",
    "serve          TCP sort-job server on the resilient native pool",
    "loadgen        load/latency harness for a repro.serve endpoint",
    "stream         out-of-core sort of a key stream",
    "tune           probe this host's cost constants for the native planner",
]
SUBCOMMANDS = [line.split()[0] for line in SUBCOMMAND_LINES]

#: Every name the one argparse tree registers: experiment ids, ``all``,
#: ``list`` and the subcommands.
COMMANDS = list(_parser()[1].choices)


class TestCLI:
    def test_list(self, capsys):
        """Every experiment id and then every subcommand is listed, once,
        each with its one-line summary."""
        assert main(["list"]) == 0
        experiments = [
            f"{exp_id:<14} {exp.help}"
            for exp_id, exp in EXPERIMENTS.items()
        ]
        out = capsys.readouterr().out
        assert out.splitlines() == experiments + SUBCOMMAND_LINES

    def test_registry(self):
        assert COMMANDS == [*EXPERIMENTS, "all", "list", *SUBCOMMANDS]

    @pytest.mark.parametrize("name", COMMANDS)
    def test_help(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(
            f"usage: python -m repro {name} "
        )

    def test_root_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^    (\S+)", capsys.readouterr().out, re.M)
        assert listed == [*EXPERIMENTS, *SUBCOMMANDS]

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--machine", "foo"],
            ["check", "--workload", "nope"],
            ["trace", "--distribution", "nope"],
            ["predict", "--distribution", "nope"],
            ["stream", "sort", "--distribution", "nope"],
            ["trace", "--size", "1000", "--procs", "16"],
            ["loadgen"],
        ],
        ids=" ".join,
    )
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: python -m repro {argv[0]} ")
        assert f"python -m repro {argv[0]}: error: " in err

    def test_tune_has_no_quick_mode(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "repro", "tune", "--quick"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert "error: unrecognized arguments: --quick" in done.stderr
        assert "Traceback" not in done.stderr

    def test_stream_has_no_topk_mode(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "stream", "topk"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2
        assert "argument mode: invalid choice: 'topk'" in done.stderr
        assert "Traceback" not in done.stderr
        helped = subprocess.run(
            [sys.executable, "-m", "repro", "stream", "--help"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert helped.returncode == 0
        assert "top-k" not in helped.stdout and "topk" not in helped.stdout

    def test_serve_announces_its_port(self):
        """The first line ``python -m repro serve`` prints carries the
        bound port where scripts parse it (``:(\\d+) ``), and SIGTERM
        stops the server cleanly."""
        src = str(Path(repro.__file__).resolve().parents[1])
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            line = server.stdout.readline()
            assert line.startswith("serving on 127.0.0.1:"), line
            assert int(re.search(r":(\d+) ", line).group(1)) > 0
        finally:
            server.terminate()
            code = server.wait(30)
            server.stdout.close()
        assert code == 0

    def test_stream_sort_prints_the_chunk_plan(self, capsys):
        assert main(["stream", "sort", "--size", "20000", "--workers", "1"]) == 0
        assert "chunk plan sequential x1" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_small_grid_covers_all_experiments(self):
        """Every record's ``--small`` kwargs (and fixed ``params``) are
        parameters of its harness."""
        for exp_id, exp in EXPERIMENTS.items():
            params = inspect.signature(exp.harness).parameters
            assert set(exp.small) <= set(params), exp_id
            assert set(exp.params) <= set(params), exp_id

    def test_run_table1_small(self, capsys):
        assert main(["table1", "--small"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "1M" in out

    def test_run_fig4_small(self, capsys):
        assert main(["fig4", "--small"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "BUSY" in out

    def test_no_args_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCLI:
    def test_trace_sim(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main([
            "trace", "--backend", "sim", "--size", "4096", "--procs", "8",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        stdout = capsys.readouterr().out
        assert "sim/radix" in stdout and "trace events" in stdout

    def test_trace_native(self, tmp_path, capsys):
        out = tmp_path / "native.json"
        assert main([
            "trace", "--backend", "native", "--algorithm", "sample",
            "--size", "20000", "--procs", "2", "--trace-out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"native.sort", "native.phase", "native.task"} <= cats
        assert "native/sample" in capsys.readouterr().out

    def test_experiment_trace_out(self, tmp_path, capsys):
        out = tmp_path / "fig4.json"
        assert main(["fig4", "--small", "--trace-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(
            e.get("cat") == "sim.phase" for e in doc["traceEvents"]
        )
        assert "trace events" in capsys.readouterr().err

    def test_rejects_native_backend_for_grid(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig4", "--small", "--backend", "native"])


class TestCacheCLI:
    def test_stats_empty(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entries" in out

    def test_populate_then_stats_clear(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig4", "--small"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "run" in out and "entries        0" not in out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries        0" in capsys.readouterr().out

    def test_gc(self, tmp_path, capsys):
        assert main(["cache", "gc", "--dir", str(tmp_path)]) == 0
        assert "gc removed 0" in capsys.readouterr().out

    def test_bad_action_rejected(self):
        with pytest.raises(SystemExit):
            main(["cache", "frobnicate"])

    def test_no_cache_leaves_dir_empty(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig4", "--small", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "entries        0" in capsys.readouterr().out

    def test_parallel_grid(self, capsys):
        assert main(["fig4", "--small", "--parallel", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "BUSY" in out
