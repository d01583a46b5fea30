"""Backend seam tests: resolution, result shape, and sim/native parity."""

import numpy as np
import pytest

from repro.backend import (
    Backend,
    NativeBackend,
    SimulatedBackend,
    SortJob,
    SortResult,
    check_keys,
    get_backend,
    infer_key_bits,
)
from repro.backend.native import report_from_timings
from repro.data import generate
from repro.native.pool import PhaseTiming
from repro.smp.perf import CATEGORIES


class TestRegistry:
    def test_resolution(self):
        assert isinstance(get_backend("sim"), SimulatedBackend)
        assert isinstance(get_backend("simulated"), SimulatedBackend)
        assert isinstance(get_backend("native"), NativeBackend)

    def test_instance_passthrough(self):
        b = SimulatedBackend()
        assert get_backend(b) is b

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")


class TestValidation:
    def test_check_keys(self):
        out = check_keys(np.array([3, 1, 2]))
        assert out.flags["C_CONTIGUOUS"]
        with pytest.raises(ValueError):
            check_keys(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            check_keys(np.empty(0, dtype=np.int64))

    def test_infer_key_bits(self):
        assert infer_key_bits(np.array([0])) == 1
        assert infer_key_bits(np.array([255])) == 8
        assert infer_key_bits(np.array([256])) == 9
        assert infer_key_bits(np.empty(0, dtype=np.int64)) == 1

    def test_simulated_rejects_bad_dtypes(self):
        b = SimulatedBackend()
        with pytest.raises(ValueError):
            b.run(SortJob(keys=np.array([-1] * 16), n_procs=16))
        # Float keys are supported via the order-preserving transform at
        # the seam; dtypes with no such mapping still raise.
        result = b.run(SortJob(keys=np.ones(16) * 0.5, n_procs=16))
        assert np.array_equal(result.sorted_keys, np.full(16, 0.5))
        with pytest.raises(TypeError):
            b.run(SortJob(keys=np.ones(16, dtype=complex), n_procs=16))


class TestSimulatedBackend:
    def test_result_shape(self):
        keys = generate("gauss", 16 * 128, 16)
        result = get_backend("sim").run(SortJob(keys=keys, n_procs=16))
        assert isinstance(result, SortResult)
        assert result.backend == "sim"
        assert np.array_equal(result.sorted_keys, np.sort(keys))
        assert result.outcome is not None
        assert result.report.n_procs == 16
        assert result.time_ns == result.report.total_time_ns > 0
        assert result.radix == 8  # the paper's tuned default for radix sort

    def test_sample_default_radix(self):
        keys = generate("gauss", 16 * 128, 16)
        result = get_backend("sim").run(
            SortJob(keys=keys, algorithm="sample", n_procs=16)
        )
        assert result.radix == 11

    def test_key_bits_override_controls_passes(self):
        keys = np.tile(np.arange(256, dtype=np.int64), 16)
        few = SimulatedBackend().run(SortJob(keys=keys, n_procs=16, radix=8))
        assert few.outcome.passes == 1  # inferred 8-bit keys
        full = SimulatedBackend().run(
            SortJob(keys=keys, n_procs=16, radix=8, key_bits=31)
        )
        assert full.outcome.passes == 4  # pinned to the paper's width


class TestNativeBackend:
    def test_result_shape(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 1 << 30, size=20_000, dtype=np.int64)
        result = get_backend("native").run(SortJob(keys=keys, n_procs=2))
        assert result.backend == "native"
        assert np.array_equal(result.sorted_keys, np.sort(keys))
        assert result.model_name is None
        assert result.wall_time_s is not None and result.wall_time_s > 0
        assert result.report.n_procs == 2
        means = result.report.category_means_ns()
        assert set(means) == set(CATEGORIES)
        assert means["BUSY"] > 0
        assert means["LMEM"] == means["RMEM"] == 0.0

    def test_shared_pool_not_closed(self):
        from repro.native import WorkerPool

        rng = np.random.default_rng(6)
        keys = rng.integers(0, 1 << 20, size=8_000, dtype=np.int64)
        with WorkerPool(2, collect_timings=True) as pool:
            backend = NativeBackend(pool=pool)
            r1 = backend.run(SortJob(keys=keys, algorithm="sample"))
            r2 = backend.run(SortJob(keys=keys, algorithm="radix"))
            # Pool survives both runs, each report only sees its own
            # phases (no leakage across jobs sharing the pool), and the
            # backend took them off the shared list (a sweep's pool would
            # otherwise grow it for the whole run).
            assert pool.timings == []
            assert pool.run_phase(abs, [-1]) == [1]
        assert np.array_equal(r1.sorted_keys, r2.sorted_keys)
        assert {p.name for p in r1.report.phases} != {
            p.name for p in r2.report.phases
        }

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            get_backend("native").run(
                SortJob(keys=np.empty(0, dtype=np.int64))
            )


class TestReportFromTimings:
    def test_busy_sync_split(self):
        timings = [
            PhaseTiming("a", begin=0.0, end=1.0, tasks=((0.0, 0.6), (0.1, 1.0))),
            # 0.5 s parent-side gap, then a second phase.
            PhaseTiming("b", begin=1.5, end=2.0, tasks=((1.5, 2.0), (1.5, 1.6))),
        ]
        report = report_from_timings(timings, wall_s=2.0, label="t")
        assert report.n_procs == 2
        names = [p.name for p in report.phases]
        assert names == ["a", "coordinate", "b"]
        c0, c1 = report.counters
        assert c0.busy_ns == pytest.approx((0.6 + 0.5) * 1e9)
        # sync = (phase walls - busy) + coordinate gap
        assert c0.sync_ns == pytest.approx((0.4 + 0.0 + 0.5) * 1e9)
        assert c1.busy_ns == pytest.approx((0.9 + 0.1) * 1e9)
        assert c1.sync_ns == pytest.approx((0.1 + 0.4 + 0.5) * 1e9)
        # Every worker's total equals the phased region's wall-clock.
        for c in report.counters:
            assert c.total_ns == pytest.approx(2.0 * 1e9)

    def test_degenerate_no_phases(self):
        report = report_from_timings([], wall_s=0.25, label="t")
        assert report.n_procs == 1
        assert report.total_time_ns == pytest.approx(0.25e9)

    def test_uneven_task_counts(self):
        timings = [
            PhaseTiming("a", 0.0, 1.0, ((0.0, 1.0), (0.0, 0.5))),
            PhaseTiming("b", 1.0, 2.0, ((1.0, 2.0),)),
        ]
        report = report_from_timings(timings, wall_s=2.0, label="t")
        assert report.n_procs == 2
        # Worker 1 had no task in phase b: all of it is sync.
        assert report.counters[1].sync_ns == pytest.approx(1.5e9)


@pytest.mark.parametrize("algorithm", ["radix", "sample"])
@pytest.mark.parametrize("distribution", ["gauss", "random", "bucket"])
class TestBackendParity:
    """The acceptance bar: one SortJob, two substrates, identical keys out,
    same report shape."""

    def test_parity(self, algorithm, distribution):
        n_procs = 4
        keys = generate(distribution, n_procs * 2048, n_procs)
        job = SortJob(keys=keys, algorithm=algorithm, n_procs=n_procs)
        results = {
            name: get_backend(name).run(job) for name in ("sim", "native")
        }
        expected = np.sort(keys)
        mats = {}
        for name, result in results.items():
            assert np.array_equal(result.sorted_keys, expected), name
            assert result.algorithm == algorithm
            mat = result.report.category_matrix()
            assert mat.shape[1] == 4
            assert np.isfinite(mat).all() and (mat >= 0).all()
            assert result.report.total_time_ns > 0
            assert result.report.phases, name
            mats[name] = mat
        # Same report vocabulary; per-category means all retrievable.
        assert set(results["sim"].report.category_means_ns()) == set(
            results["native"].report.category_means_ns()
        )
