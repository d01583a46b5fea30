"""Correctness and structure tests for the simulated parallel sorts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SimulatedBackend, SortJob
from repro.data import generate
from repro.data.distributions import KEY_BITS
from repro.machine import MachineConfig
from repro.sorts import sequential_radix_sort

MACHINE16 = MachineConfig.origin2000(n_processors=16, scale=1)
RADIX_MODELS = ["ccsas", "ccsas-new", "mpi-new", "mpi-sgi", "shmem"]
SAMPLE_MODELS = ["ccsas", "mpi-new", "mpi-sgi", "shmem"]


def _run(algorithm, keys, model, p, radix, **kw):
    machine = MachineConfig.origin2000(n_processors=p, scale=1)
    kw.setdefault("key_bits", KEY_BITS)
    return SimulatedBackend().run(
        SortJob(keys, algorithm, model, n_procs=p, radix=radix, machine=machine, **kw)
    ).outcome


def run_radix(keys, model, p=16, radix=8, **kw):
    return _run("radix", keys, model, p, radix, **kw)


def run_sample(keys, model, p=16, radix=11, **kw):
    return _run("sample", keys, model, p, radix, **kw)


class TestSequential:
    def test_sorts(self):
        keys = generate("random", 4096, 1)
        res = sequential_radix_sort(keys)
        assert np.array_equal(res.sorted_keys, np.sort(keys))
        assert res.time_ns > 0
        assert len(res.per_pass_ns) == 4  # radix 8, 31-bit keys

    def test_time_scales_with_labeled_size(self):
        keys = generate("gauss", 4096, 1)
        small = sequential_radix_sort(keys, n_labeled=4096)
        big = sequential_radix_sort(keys, n_labeled=4096 * 64)
        assert big.time_ns > 32 * small.time_ns  # at least ~linear

    def test_rejects_bad_labeled(self):
        keys = generate("gauss", 4096, 1)
        with pytest.raises(ValueError):
            sequential_radix_sort(keys, n_labeled=5000)

    def test_empty(self):
        res = sequential_radix_sort(np.empty(0, dtype=np.int64))
        assert res.time_ns == 0.0


class TestRadixCorrectness:
    @pytest.mark.parametrize("model", RADIX_MODELS)
    def test_sorts_gauss(self, model):
        keys = generate("gauss", 16 * 512, 16)
        out = run_radix(keys, model)
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert out.model_name in (model, "mpi-new")
        assert out.time_ns > 0

    @pytest.mark.parametrize(
        "dist", ["random", "zero", "bucket", "stagger", "half", "remote", "local"]
    )
    def test_sorts_every_distribution(self, dist):
        keys = generate(dist, 16 * 256, 16, radix=8)
        out = run_radix(keys, "shmem")
        assert np.array_equal(out.sorted_keys, np.sort(keys))

    @pytest.mark.parametrize("radix", [4, 6, 8, 11, 12])
    def test_sorts_any_radix(self, radix):
        keys = generate("random", 16 * 256, 16)
        out = run_radix(keys, "ccsas", radix=radix)
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert out.passes == -(-31 // radix)

    @given(st.lists(st.integers(0, 2**31 - 1), min_size=16, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_sorts_arbitrary_arrays(self, values):
        n = len(values) - len(values) % 16
        if n == 0:
            return
        keys = np.array(values[:n], dtype=np.int64)
        out = run_radix(keys, "shmem")
        assert np.array_equal(out.sorted_keys, np.sort(keys))

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            run_radix(np.arange(100), "shmem", p=16)

    def test_rejects_bad_radix(self):
        with pytest.raises(ValueError):
            run_radix(generate("gauss", 16 * 64, 16), "shmem", radix=0)

    def test_rejects_bad_labeled_multiple(self):
        keys = generate("gauss", 16 * 64, 16)
        with pytest.raises(ValueError):
            run_radix(keys, "shmem", n_labeled=16 * 64 + 1)


class TestSampleCorrectness:
    @pytest.mark.parametrize("model", SAMPLE_MODELS)
    def test_sorts_gauss(self, model):
        keys = generate("gauss", 16 * 512, 16)
        out = run_sample(keys, model)
        assert np.array_equal(out.sorted_keys, np.sort(keys))

    @pytest.mark.parametrize(
        "dist", ["random", "zero", "bucket", "stagger", "half", "remote", "local"]
    )
    def test_sorts_every_distribution(self, dist):
        keys = generate(dist, 16 * 256, 16, radix=8)
        out = run_sample(keys, "ccsas")
        assert np.array_equal(out.sorted_keys, np.sort(keys))

    def test_all_equal_keys(self):
        keys = np.zeros(16 * 64, dtype=np.int64)
        out = run_sample(keys, "shmem")
        assert np.array_equal(out.sorted_keys, keys)

    @given(st.lists(st.integers(0, 1000), min_size=32, max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_sorts_arbitrary_arrays(self, values):
        n = len(values) - len(values) % 16
        if n < 16:
            return
        keys = np.array(values[:n], dtype=np.int64)
        out = run_sample(keys, "mpi-new")
        assert np.array_equal(out.sorted_keys, np.sort(keys))


class TestReports:
    def test_counters_balance_wallclock(self):
        """Barriers make every processor's stacked time equal the run's
        wall clock (the paper's stacked-bar property)."""
        keys = generate("gauss", 16 * 512, 16)
        out = run_radix(keys, "shmem")
        totals = [c.total_ns for c in out.report.counters]
        assert max(totals) == pytest.approx(min(totals), rel=1e-6)

    def test_categories_nonnegative(self):
        keys = generate("gauss", 16 * 512, 16)
        for model in RADIX_MODELS:
            rep = run_radix(keys, model).report
            for c in rep.counters:
                assert c.busy_ns >= 0 and c.lmem_ns >= 0
                assert c.rmem_ns >= 0 and c.sync_ns >= 0

    def test_phase_records_cover_run(self):
        keys = generate("gauss", 16 * 256, 16)
        out = run_radix(keys, "mpi-new")
        per_phase = sum(rec.max_ns for rec in out.report.phases)
        # Phase maxima overestimate the barrier-aligned wall clock.
        assert per_phase >= out.time_ns * 0.95

    def test_speedup_helper(self):
        keys = generate("gauss", 16 * 512, 16)
        out = run_radix(keys, "shmem")
        assert out.speedup_vs(out.time_ns * 16) == pytest.approx(16)

    def test_messages_counted_for_mpi(self):
        keys = generate("gauss", 16 * 512, 16)
        out = run_radix(keys, "mpi-new")
        assert out.report.merged().messages > 0

    def test_protocol_transactions_counted_for_ccsas(self):
        keys = generate("gauss", 16 * 512, 16)
        out = run_radix(keys, "ccsas")
        assert out.report.merged().protocol_transactions > 0


class TestScaledRuns:
    def test_labeled_scaling_keeps_result(self):
        keys = generate("gauss", 16 * 256, 16)
        out = run_radix(keys, "shmem", n_labeled=16 * 256 * 16)
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert out.n_labeled == 16 * 256 * 16

    def test_labeled_time_grows_with_scale(self):
        """Modeled time follows the labeled size, not the sample size --
        sublinearly at these tiny sizes because per-pass fixed costs
        (collectives, barriers) dominate."""
        keys = generate("gauss", 16 * 256, 16)
        t1 = run_radix(keys, "shmem", n_labeled=len(keys)).time_ns
        t16 = run_radix(keys, "shmem", n_labeled=len(keys) * 16).time_ns
        assert 1.5 * t1 < t16 < 16 * t1
