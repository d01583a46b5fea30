"""Public API tests: the backend-aware ``sort`` and the baseline."""

import numpy as np
import pytest

import repro
from repro import MemoryRecorder, SortResult, sequential_baseline, sort
from repro.data import generate
from repro.verify.differential import RADIX_MODELS, SAMPLE_MODELS


class TestSort:
    def test_sim_backend_default(self):
        keys = generate("gauss", 16 * 256, 16)
        result = sort(keys, n_procs=16)
        assert isinstance(result, SortResult)
        assert result.backend == "sim"
        assert np.array_equal(result.sorted_keys, np.sort(keys))
        assert result.report.total_time_ns > 0
        assert result.trace == ()

    def test_native_backend(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 1 << 24, size=10_000, dtype=np.int64)
        result = sort(keys, algorithm="sample", backend="native", n_procs=2)
        assert result.backend == "native"
        assert np.array_equal(result.sorted_keys, np.sort(keys))
        assert result.report.total_time_ns > 0

    def test_trace_true_fills_trace(self):
        keys = generate("gauss", 8 * 128, 8)
        result = sort(keys, n_procs=8, trace=True)
        assert result.trace
        assert {e.cat for e in result.trace} >= {"sim.phase", "sim.barrier"}

    def test_trace_recorder_instance(self):
        keys = generate("gauss", 8 * 128, 8)
        rec = MemoryRecorder()
        result = sort(keys, n_procs=8, trace=rec)
        assert result.trace == tuple(rec.events)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            sort(np.arange(16), backend="fpga", n_procs=16)


class TestSimulateSort:
    """``sort(..., backend="sim")``: defaults, validation and the
    simulation outcome it carries."""

    def test_radix_default(self):
        keys = generate("gauss", 16 * 256, 16)
        out = sort(keys, backend="sim", n_procs=16).outcome
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert out.algorithm == "radix"
        assert out.radix == 8

    def test_sample_default_radix(self):
        keys = generate("gauss", 16 * 256, 16)
        out = sort(keys, algorithm="sample", backend="sim", n_procs=16)
        assert out.radix == 11
        assert np.array_equal(out.sorted_keys, np.sort(keys))

    @pytest.mark.parametrize("model", ["ccsas", "mpi", "mpi-sgi", "shmem"])
    def test_models_accepted(self, model):
        keys = generate("random", 16 * 64, 16)
        out = sort(keys, backend="sim", model=model, n_procs=16)
        assert np.array_equal(out.sorted_keys, np.sort(keys))

    def test_small_key_range_fewer_passes(self):
        """key_bits follows the actual maximum key (the paper: 'the maximum
        key value determines how many iterations will actually be needed')."""
        keys = np.tile(np.arange(256, dtype=np.int64), 16)
        out = sort(keys, backend="sim", n_procs=16, radix=8).outcome
        assert out.passes == 1

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            sort(np.array([-1] * 16), backend="sim", n_procs=16)

    def test_rejects_floats(self):
        # Floats are handled by the order-preserving transform at the
        # backend seam; dtypes without such a mapping still raise.
        out = sort(np.ones(16) * 2.5, backend="sim", n_procs=16)
        assert np.array_equal(out.sorted_keys, np.full(16, 2.5))
        with pytest.raises(TypeError):
            sort(np.ones(16, dtype=complex), backend="sim", n_procs=16)

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            sort(np.empty(0, dtype=np.int64), backend="sim")
        with pytest.raises(ValueError):
            sort(np.zeros((4, 4), dtype=np.int64), backend="sim")

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            sort(np.arange(16), algorithm="merge", backend="sim", n_procs=16)


class TestSequentialBaseline:
    def test_runs(self):
        keys = generate("gauss", 4096, 1)
        res = sequential_baseline(keys)
        assert res.time_ns > 0
        assert np.array_equal(res.sorted_keys, np.sort(keys))


class TestCompareModels:
    """Comparing programming models is a loop over ``sort(model=...)``."""

    def test_default_model_sets(self):
        keys = generate("gauss", 16 * 128, 16)
        for algorithm, models in (
            ("radix", RADIX_MODELS), ("sample", SAMPLE_MODELS)
        ):
            for model in models:
                out = sort(keys, algorithm, model=model, n_procs=16)
                assert out.model_name == model
                assert np.array_equal(out.sorted_keys, np.sort(keys))

    def test_subset(self):
        """Two models on the same keys give comparable, distinct times:
        the paper's Figure 1 ordering (NEW MPI beats SGI MPI) already
        shows on a tiny radix sort."""
        keys = generate("gauss", 16 * 128, 16)
        t = {
            m: sort(keys, model=m, n_procs=16).time_ns
            for m in ("mpi-new", "mpi-sgi")
        }
        assert 0 < t["mpi-new"] < t["mpi-sgi"]

    def test_shims_are_gone(self):
        for name in ("simulate_sort", "compare_models", "predict_time",
                     "predict_speedup"):
            assert not hasattr(repro, name), name
