"""The differential oracle: grid construction, clean sweeps, and failure
reporting (a corrupted result or unplugged invariant must flip the exit
code)."""

import io

import numpy as np
import pytest

from repro.core.experiment import RADIX_MODELS, SAMPLE_MODELS
from repro.verify import VerifyError, default_grid, run_check
from repro.verify import differential


def test_default_grid_small_covers_models_and_backends():
    cases = default_grid(small=True)
    dists = {c.distribution for c in cases}
    assert dists == set(differential.SMALL_DISTRIBUTIONS)
    for dist in dists:
        sub = [c for c in cases if c.distribution == dist]
        assert {c.model for c in sub if c.algorithm == "radix" and c.backend == "sim"} \
            == set(RADIX_MODELS)
        assert {c.model for c in sub if c.algorithm == "sample" and c.backend == "sim"} \
            == set(SAMPLE_MODELS)
        assert {c.algorithm for c in sub if c.backend == "native"} \
            == {"radix", "sample"}


def test_default_grid_full_covers_all_paper_distributions():
    from repro.data import PAPER_ORDER

    cases = default_grid(small=False, native=False)
    assert {c.distribution for c in cases} == set(PAPER_ORDER)
    # Positive cells are simulated; the negative cells additionally
    # exercise the predictor's typed rejection of uncalibrated machines.
    assert all(c.backend == "sim" for c in cases if not c.expect_error)


def test_default_grid_covers_zoo_and_workload_axes():
    cases = default_grid(small=True, native=True)
    assert {c.machine for c in cases} == set(differential.ALL_MACHINES)
    assert {c.workload for c in cases} == set(differential.ALL_WORKLOADS)
    # Every new machine runs every workload kind under both algorithms.
    for machine in differential.NEW_MACHINES:
        sub = [c for c in cases if c.machine == machine and not c.expect_error]
        assert {c.workload for c in sub} == set(differential.ALL_WORKLOADS)
        assert {c.algorithm for c in sub} == {"radix", "sample"}
    # The native backend sorts every new workload kind too.
    native = [c for c in cases if c.backend == "native"]
    assert set(differential.NEW_WORKLOADS) <= {c.workload for c in native}
    # Typed-rejection negatives for both error families.
    negatives = {c.expect_error for c in cases if c.expect_error}
    assert negatives == {
        "UnsupportedTransportError", "UncalibratedMachineError",
    }


def test_run_check_small_sim_only_passes():
    out = io.StringIO()
    assert run_check(small=True, native=False, stream=out) == 0
    text = out.getvalue()
    assert "0 failed" in text
    assert "COVERAGE FAILURE" not in text


def test_serial_and_parallel_sweeps_agree():
    """``--parallel 2`` computes the simulated cases in worker processes
    and merges their coverage; it must print what a serial sweep prints
    (case lines, coverage lines, check total), milliseconds aside."""
    import re

    outputs = []
    for parallel in (None, 2):
        out = io.StringIO()
        assert run_check(
            small=True, native=False, stream=out, parallel=parallel
        ) == 0
        outputs.append(re.sub(r" \(\d+ ms\)", "", out.getvalue()))
    serial, parallel = outputs
    assert serial == parallel
    assert "sanitizer evaluated" in serial and "coverage machine:" in serial


def test_run_check_reports_coverage_failure(monkeypatch):
    monkeypatch.setattr(
        differential,
        "REQUIRED_COVERAGE",
        differential.REQUIRED_COVERAGE + ("bogus.never-evaluated",),
    )
    # One distribution is enough to exercise the coverage accounting.
    monkeypatch.setattr(differential, "SMALL_DISTRIBUTIONS", ("gauss",))
    out = io.StringIO()
    assert run_check(small=True, native=False, stream=out) == 1
    assert "bogus.never-evaluated" in out.getvalue()


def test_run_check_flags_wrong_results(monkeypatch):
    def sabotaged(case, backend, oracle, keys):
        raise VerifyError(
            "differential.sorted-permutation", f"{case.label}: sabotaged"
        )

    monkeypatch.setattr(differential, "_run_case", sabotaged)
    monkeypatch.setattr(differential, "SMALL_DISTRIBUTIONS", ("gauss",))
    out = io.StringIO()
    assert run_check(small=True, native=False, stream=out) == 1
    assert "differential.sorted-permutation" in out.getvalue()


def test_run_case_rejects_corrupted_oracle():
    from repro.data import generate
    from repro.data.workloads import Workload

    keys = generate("gauss", 256, 4)
    workload = Workload("u32", keys)
    wrong = Workload("u32", np.sort(keys)[::-1].copy())
    case = differential.CheckCase("sim", "radix", "gauss", 256, 4, "shmem")
    with pytest.raises(VerifyError, match=r"\[differential.sorted-permutation\]"):
        differential._run_case(case, "sim", workload, wrong)


def test_cli_check_small_sim_only(capsys):
    from repro.__main__ import main

    assert main(["check", "--small", "--no-native"]) == 0
    assert "0 failed" in capsys.readouterr().out
