"""Closed-form predictor tests: formula vs full simulation."""

import pytest

from repro.core.experiment import ExperimentRunner, RunSpec
from repro.machine.costs import DEFAULT_COSTS
from repro.predict import predict_outcome, sequential_time_ns, uniform_stats
from repro.sorts.radix import default_machine


def predict_time(algorithm, model, n, n_procs, radix=None):
    """Uncalibrated closed-form time (ns) for uniform random keys."""
    r = radix if radix is not None else (8 if algorithm == "radix" else 11)
    stats = uniform_stats(algorithm, n, n_procs, r)
    return predict_outcome(
        stats, model, machine=default_machine(n_procs)
    ).time_ns


class TestPredictValidation:
    def test_rejects_bad_algorithm(self):
        with pytest.raises(ValueError):
            predict_time("quick", "shmem", 1 << 16, 16)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            predict_time("radix", "shmem", 100, 16)

    def test_rejects_bad_radix(self):
        with pytest.raises(ValueError):
            predict_time("radix", "shmem", 1 << 16, 16, radix=0)


class TestPredictVsSimulation:
    """The formula should track the full simulation on uniform keys."""

    @pytest.mark.parametrize("model", ["ccsas", "ccsas-new", "mpi-new", "shmem"])
    def test_radix_within_25_percent(self, model):
        n, p = 1 << 20, 16
        runner = ExperimentRunner()
        sim = runner.run(
            RunSpec("radix", model, n, p, 8, "random", max_actual=1 << 16)
        ).time_ns
        pred = predict_time("radix", model, n, p, 8)
        assert pred == pytest.approx(sim, rel=0.25), model

    @pytest.mark.parametrize("model", ["ccsas", "mpi-new", "shmem"])
    def test_sample_within_25_percent(self, model):
        n, p = 1 << 20, 16
        runner = ExperimentRunner()
        sim = runner.run(
            RunSpec("sample", model, n, p, 11, "random", max_actual=1 << 16)
        ).time_ns
        pred = predict_time("sample", model, n, p, 11)
        assert pred == pytest.approx(sim, rel=0.25), model


class TestPredictShapes:
    def test_model_ordering_at_scale(self):
        """The formula reproduces the headline ordering at 64M/64p."""
        n, p = 1 << 26, 64
        t = {
            m: predict_time("radix", m, n, p, 8)
            for m in ("ccsas", "ccsas-new", "mpi-new", "mpi-sgi", "shmem")
        }
        assert t["shmem"] < t["ccsas-new"] < t["mpi-new"] < t["mpi-sgi"] < t["ccsas"]

    def test_speedup_superlinear_at_64m(self):
        seq_ns = sequential_time_ns(1 << 26, 8, DEFAULT_COSTS)
        assert seq_ns / predict_time("radix", "shmem", 1 << 26, 64, 8) > 64

    def test_time_increases_with_n(self):
        t1 = predict_time("radix", "shmem", 1 << 20, 16, 8)
        t2 = predict_time("radix", "shmem", 1 << 24, 16, 8)
        assert t2 > 8 * t1

    def test_more_procs_faster_at_scale(self):
        big = 1 << 26
        t16 = predict_time("radix", "shmem", big, 16, 8)
        t64 = predict_time("radix", "shmem", big, 64, 8)
        assert t64 < t16


class TestPaperHeadlineClaims:
    def test_one_gig_keys_in_about_thirty_seconds(self):
        """Section 4.2.3: 'We can sort the 1G integers using radix 12 in
        30 seconds on our machine.'  The calibrated model predicts ~38 s
        -- within the reproduction's shape tolerance."""
        t_s = predict_time("radix", "shmem", 1 << 30, 64, 12) / 1e9
        assert 20 < t_s < 60
