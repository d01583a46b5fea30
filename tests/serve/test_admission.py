"""Admission-control verdicts and the retry_after_s backpressure hint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.admission import AdmissionController


def make(queue_depth=4, max_job_bytes=8 << 20, meta_slab_bytes=4 << 20,
         n_workers=4):
    return AdmissionController(
        queue_depth=queue_depth,
        max_job_bytes=max_job_bytes,
        meta_slab_bytes=meta_slab_bytes,
        n_workers=n_workers,
    )


I64 = np.dtype(np.int64)


class TestVerdicts:
    def test_admit_counts(self):
        ctrl = make()
        assert ctrl.check(1000, I64, None, queue_len=0, draining=False) is None
        assert ctrl.stats.accepted == 1

    def test_busy_at_capacity_with_hint(self):
        ctrl = make(queue_depth=2)
        verdict = ctrl.check(1000, I64, None, queue_len=2, draining=False)
        assert verdict is not None and verdict.code == "busy"
        assert verdict.fields["retry_after_s"] > 0
        assert verdict.reply()["error"] == "busy"
        assert "retry_after_s" in verdict.reply()
        assert ctrl.stats.rejected == {"busy": 1}

    def test_below_capacity_admits(self):
        ctrl = make(queue_depth=2)
        assert ctrl.check(1000, I64, None, queue_len=1, draining=False) is None

    def test_too_large(self):
        ctrl = make(max_job_bytes=1 << 10)
        verdict = ctrl.check(1000, I64, None, queue_len=0, draining=False)
        assert verdict is not None and verdict.code == "too-large"
        assert "retry_after_s" not in verdict.fields  # not a load problem

    def test_bad_radix(self):
        ctrl = make(n_workers=4, meta_slab_bytes=1 << 12)
        verdict = ctrl.check(100, I64, 16, queue_len=0, draining=False)
        assert verdict is not None and verdict.code == "bad-radix"
        assert ctrl.check(100, I64, 4, queue_len=0, draining=False) is None

    @pytest.mark.parametrize(
        "p, meta_bytes",
        [(1, 7), (1, 8), (2, 256 << 10), (2, 4 << 20), (3, 1000), (8, 1 << 30)],
    )
    def test_admits_exactly_the_widths_the_engine_plans(self, p, meta_bytes):
        """One rule for "how wide a digit fits a meta slab"
        (``native.plan.widest_radix``): admission refuses a pinned width
        exactly where the engine's planner cap stops planning one, and
        both mean the ``p x 2**r`` int64 histogram's bytes."""
        from repro.native.plan import widest_radix

        cap = widest_radix(meta_bytes, p)
        ctrl = make(n_workers=p, meta_slab_bytes=meta_bytes)
        for radix in range(1, 21):
            admitted = ctrl.check(100, I64, radix, 0, False) is None
            fits = p * (1 << radix) * 8 <= meta_bytes
            assert admitted == fits == (radix <= cap), radix

    def test_draining_wins_over_everything(self):
        ctrl = make(queue_depth=1, max_job_bytes=1)
        verdict = ctrl.check(10**9, I64, 64, queue_len=5, draining=True)
        assert verdict is not None and verdict.code == "draining"


class TestRetryAfter:
    def test_floor_applies_before_any_job_ran(self):
        ctrl = make()
        assert ctrl.retry_after_s(1) >= ctrl.min_retry_after_s

    def test_hint_scales_with_queue_and_tracks_duration(self):
        ctrl = make()
        for _ in range(20):
            ctrl.note_job_duration(2.0)
        short = ctrl.retry_after_s(1)
        long = ctrl.retry_after_s(8)
        assert long > short
        assert long == pytest.approx(2.0 * 8 / 2, rel=0.05)

    def test_ewma_converges(self):
        ctrl = make()
        ctrl.note_job_duration(10.0)
        for _ in range(50):
            ctrl.note_job_duration(0.1)
        assert ctrl.retry_after_s(2) < 0.5
