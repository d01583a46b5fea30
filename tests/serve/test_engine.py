"""SortEngine unit tests: warmup coverage and steady-state accounting.

Warm-up is the pool's own mapping round (``WorkerPool.map_arena``); the
rule that round follows -- one message to each worker, a worker whose
mapping failed asked once more -- is pinned in
``tests/native/test_pool_arena.py::TestMapRound``.  Here: what the engine
makes of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.engine import SortEngine


class TestWarmupCoverage:
    def test_real_engine_warms_in_one_proven_round(self):
        """One message to each worker reaches both: ``warmup`` says
        1, ``stats`` repeats it, a second call has nothing left to map,
        and the very first job attaches nothing."""
        with SortEngine(n_workers=2) as eng:
            assert eng.warmup() == 1
            assert eng.stats()["warmup_rounds"] == 1
            keys = np.random.default_rng(1).integers(0, 1 << 20, 6_000)
            out = eng.run("j0", keys.astype(np.int64), "sample")
            assert np.array_equal(out.sorted_keys, np.sort(keys))
            assert (out.shm_creates, out.shm_attaches) == (0, 0)
            assert eng.warmup() == 0

    def test_real_inline_engine_warms_in_one_round(self):
        # The inline pool maps the slabs in-process: covered at once.
        with SortEngine(n_workers=1) as eng:
            rounds = eng.warmup()
            assert 1 <= rounds <= 2
            keys = np.random.default_rng(0).integers(0, 1 << 20, 5_000)
            out = eng.run("j0", keys.astype(np.int64), "radix")
            assert np.array_equal(out.sorted_keys, np.sort(keys))
            assert out.shm_creates == 0
            assert out.shm_attaches == 0


class TestMixedJobs:
    """Radix and sample jobs interleaved on one engine keep its
    zero-traffic steady state."""

    def test_steady_state_across_algorithms(self):
        rng = np.random.default_rng(21)
        with SortEngine(n_workers=2) as eng:
            eng.warmup()
            for i, (alg, n) in enumerate(
                [("radix", 6_000), ("sample", 6_000), ("radix", 12_000)]
            ):
                keys = rng.integers(0, 1 << 20, n).astype(np.int64)
                out = eng.run(f"k{i}", keys, alg)
                assert np.array_equal(out.sorted_keys, np.sort(keys))
                assert out.shm_creates == 0
                assert out.shm_attaches == 0
            stats = eng.stats()
            assert stats["steady_shm_creates"] == 0
            assert stats["steady_shm_attaches"] == 0


class TestPlannedJobs:
    """``algorithm=None`` asks the planner; the outcome and the
    ``serve.job`` span say what ran next to what was asked for."""

    def test_outcome_and_span_carry_the_plan(self, host_model):
        from repro.native import Plan
        from repro.trace import MemoryRecorder

        recorder = MemoryRecorder()
        keys = np.random.default_rng(31).integers(0, 1 << 20, 8_000)
        with SortEngine(n_workers=2, recorder=recorder) as eng:
            eng.warmup()
            host_model("sample").unlink()  # no artifact: sequential
            planned = eng.run("p0", keys)
            host_model("sample")
            measured = eng.run("p1", keys)
            pinned = eng.run("p2", keys, "radix", 8)
        for out in (planned, measured, pinned):
            assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert planned.plan == Plan("sequential", 1)
        assert measured.plan == Plan("sample", 2)
        assert pinned.plan == Plan("radix", 2, 8)
        spans = {
            e.args["job_id"]: e.args
            for e in recorder.events if e.name == "serve.job"
        }
        assert spans["p0"]["algorithm"] is None
        assert spans["p0"]["plan"] == {
            "algorithm": "sequential", "width": 1, "radix": None,
        }
        assert spans["p1"]["plan"]["algorithm"] == "sample"
        assert spans["p2"]["algorithm"] == "radix"
        assert spans["p2"]["plan"] == {"algorithm": "radix", "width": 2, "radix": 8}

    def test_planned_digit_width_must_fit_a_meta_slab(self, host_model):
        """A model may prefer the widest digits; an engine whose meta
        slabs cannot hold that histogram matrix asks the planner for the
        cheapest width that fits instead of failing the job in the
        arena."""
        from repro.native import Plan
        from repro.native.plan import widest_radix

        host_model("radix")
        keys = np.random.default_rng(32).integers(0, 1 << 20, 8_000)
        with SortEngine(n_workers=2, meta_slab_bytes=256 << 10) as eng:
            eng.warmup()
            assert widest_radix(eng.arena.meta_bytes, 2) == 14
            out = eng.run("m0", keys)
            assert out.plan == Plan("radix", 2, 14)
            assert np.array_equal(out.sorted_keys, np.sort(keys))
            assert eng.arena.in_use() == 0
        with SortEngine(n_workers=2) as eng:
            eng.warmup()
            assert eng.run("m1", keys).plan == Plan("radix", 2, 18)
