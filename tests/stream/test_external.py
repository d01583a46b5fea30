"""The external-sort driver end to end: correctness far past the chunk
budget, output sinks, workdir hygiene, key conservation, and the spill
fault family under a live sort."""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultPlan, use_fault_plan
from repro.stream import (
    WORKDIR_PREFIX,
    StreamError,
    external_sort,
)
from repro.verify import VerifyError


def _keys(seed: int, n: int, dtype=np.int64) -> np.ndarray:
    high = min(1 << 40, np.iinfo(dtype).max)
    return np.random.default_rng(seed).integers(
        0, high, size=n, dtype=dtype
    )


def _stream_workdirs() -> set[str]:
    tmp = Path(tempfile.gettempdir())
    return {p.name for p in tmp.glob(WORKDIR_PREFIX + "*")}


class TestCorrectness:
    def test_input_four_times_the_chunk_budget(self):
        """The acceptance-criteria shape: the input is >= 4x the
        configured arena (chunk budget), so the sort cannot shortcut
        through memory -- and the merged stream equals np.sort."""
        n = 1 << 18
        keys = _keys(1, n)
        blocks: list[np.ndarray] = []
        result = external_sort(
            keys, chunk_keys=n // 4, n_workers=1, on_block=blocks.append
        )
        assert result.runs == 4
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))
        assert result.n_keys == n
        assert result.verified

    def test_multi_pass_merge_far_past_the_budget(self):
        n = 96_000
        keys = _keys(2, n)
        blocks: list[np.ndarray] = []
        result = external_sort(
            keys, chunk_keys=n // 12, fan_in=3, n_workers=1,
            frame_keys=1024, on_block=blocks.append,
        )
        assert result.runs == 12
        assert result.merge_passes >= 1
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64])
    def test_other_dtypes(self, dtype):
        keys = _keys(3, 20_000, dtype)
        blocks: list[np.ndarray] = []
        result = external_sort(
            keys, chunk_keys=5_000, n_workers=1, on_block=blocks.append
        )
        out = np.concatenate(blocks)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, np.sort(keys))
        assert result.dtype == np.dtype(dtype).str

    def test_uint64_beyond_int64_range(self):
        """uint64 keys past 2**63-1 are not radix-eligible; whatever the
        chunk plan, they must come out in unsigned order."""
        rng = np.random.default_rng(4)
        keys = rng.integers(
            1 << 62, (1 << 64) - 1, size=10_000, dtype=np.uint64
        )
        blocks: list[np.ndarray] = []
        external_sort(keys, chunk_keys=2_500, n_workers=1,
                      on_block=blocks.append)
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))

    def test_file_roundtrip(self, tmp_path):
        keys = _keys(5, 30_000, np.uint32)
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        keys.astype("<u4").tofile(src)
        result = external_sort(
            src, dtype="<u4", chunk_keys=8_192, n_workers=1, out=dst
        )
        assert result.n_keys == len(keys)
        got = np.fromfile(dst, dtype="<u4")
        assert np.array_equal(got, np.sort(keys))

    def test_file_like_out(self):
        keys = _keys(6, 10_000)
        sink = io.BytesIO()
        external_sort(keys, chunk_keys=2_500, n_workers=1, out=sink)
        got = np.frombuffer(sink.getvalue(), dtype=np.int64)
        assert np.array_equal(got, np.sort(keys))

    def test_empty_source(self):
        result = external_sort(np.empty(0, np.int64), chunk_keys=1_024)
        assert result.n_keys == 0
        assert result.runs == 0

    def test_pooled_sort_matches(self):
        from repro.native.pool import WorkerPool

        n = 64_000
        keys = _keys(7, n)
        blocks: list[np.ndarray] = []
        with WorkerPool(2, supervise=True, phase_timeout_s=30.0) as pool:
            result = external_sort(
                keys, chunk_keys=n // 8, fan_in=4, pool=pool,
                on_block=blocks.append,
            )
        assert result.runs == 8
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    @pytest.mark.parametrize("dtype", ["<i4", "<i8", "<u8"])
    def test_signed_and_full_range_keys(self, dtype, pooled):
        """Negative ``<i4``/``<i8`` keys (a ``ValueError`` from the
        hard-coded radix run formation before the plan was sign-aware)
        and ``<u8`` keys across the whole 64-bit range."""
        from repro.native.pool import WorkerPool

        info = np.iinfo(np.dtype(dtype))
        keys = np.random.default_rng(16).integers(
            info.min, info.max, size=24_000, dtype=np.dtype(dtype), endpoint=True
        )
        keys[:3] = (info.min, info.max, 0)
        blocks: list[np.ndarray] = []
        if pooled:
            with WorkerPool(2, supervise=True, phase_timeout_s=30.0) as pool:
                external_sort(
                    keys, chunk_keys=6_000, fan_in=2, pool=pool,
                    on_block=blocks.append,
                )
        else:
            external_sort(
                keys, chunk_keys=6_000, n_workers=1, on_block=blocks.append
            )
        out = np.concatenate(blocks)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, np.sort(keys))

    @pytest.mark.parametrize(
        "winner, dtype, lo",
        [
            ("sample", "<i8", -(1 << 40)),
            ("sample", "<u4", 0),
            ("radix11", "<i8", 0),
            ("radix8", "<u4", 0),   # unsigned or negative keys: never radix
            ("radix11", "<u8", 0),
            ("radix11", "<i4", -(1 << 30)),
        ],
    )
    def test_parallel_chunk_plans(self, host_model, winner, dtype, lo):
        """With a host model that prices a parallel sort cheapest, run
        formation runs it on the pool -- and reports the plan it ran."""
        from repro.native import Plan
        from repro.native.pool import WorkerPool

        # A per-bucket cost makes the narrowest digit of the fewest
        # passes the cheapest radix: 11 bits for 33-bit keys (three
        # passes), 8 bits for 16-bit keys (two).
        bits = {"sample": 30, "radix11": 33, "radix8": 16}[winner]
        if winner == "sample":
            host_model("sample")
        else:
            host_model("radix", bucket_ns=1.0)
        dt = np.dtype(dtype)
        keys = np.random.default_rng(17).integers(
            lo, 1 << bits, size=40_000, dtype=np.int64
        ).astype(dt)
        blocks: list[np.ndarray] = []
        with WorkerPool(2, supervise=True, phase_timeout_s=30.0) as pool:
            result = external_sort(
                keys, chunk_keys=10_000, fan_in=4, pool=pool,
                on_block=blocks.append,
            )
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))
        if winner == "sample":
            assert result.chunk_plan == Plan("sample", 2)
        elif lo < 0 or dt.kind == "u":
            assert result.chunk_plan == Plan("sequential", 1)
        else:
            assert result.chunk_plan == Plan(
                "radix", 2, int(winner.removeprefix("radix"))
            )

    def test_default_chunk_plan_is_reported(self):
        from repro.native import Plan

        result = external_sort(_keys(18, 8_000), chunk_keys=2_000, n_workers=1)
        assert result.chunk_plan == Plan("sequential", 1)

    def test_own_pool_is_forked_only_when_needed(self, monkeypatch):
        """No ``pool=``: a sequential chunk plan and a merge that fits
        one pass start no worker; intermediate merge passes do."""
        from repro.stream import external

        built: list[int] = []

        class Counting(external.WorkerPool):
            def __init__(self, n_workers, **kwargs):
                built.append(n_workers)
                super().__init__(n_workers, **kwargs)

        monkeypatch.setattr(external, "WorkerPool", Counting)
        keys = _keys(19, 8_000)
        one_pass = external_sort(keys, chunk_keys=2_000, fan_in=4, n_workers=2)
        assert (one_pass.runs, one_pass.merge_passes, built) == (4, 0, [])
        blocks: list[np.ndarray] = []
        multi = external_sort(
            keys, chunk_keys=1_000, fan_in=4, n_workers=2,
            on_block=blocks.append,
        )
        assert (multi.runs, multi.merge_passes, built) == (8, 1, [2])
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))

    def test_chunk_keys_validated(self):
        with pytest.raises(ValueError, match="chunk_keys"):
            external_sort(_keys(8, 16), chunk_keys=2)


class TestWorkdirHygiene:
    def test_workdir_removed_on_success(self):
        before = _stream_workdirs()
        external_sort(_keys(9, 8_000), chunk_keys=2_000, n_workers=1)
        assert _stream_workdirs() == before

    def test_workdir_removed_on_exception(self):
        before = _stream_workdirs()

        def explode(block):
            raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed"):
            external_sort(
                _keys(10, 8_000), chunk_keys=2_000, n_workers=1,
                on_block=explode,
            )
        assert _stream_workdirs() == before

    def test_explicit_workdir_hosts_spills(self, tmp_path):
        external_sort(
            _keys(11, 8_000), chunk_keys=2_000, n_workers=1,
            workdir=tmp_path,
        )
        # The per-sort subdirectory under it is removed afterwards.
        assert list(tmp_path.iterdir()) == []


class TestConservation:
    @pytest.mark.no_sanitize  # under --sanitize this raises VerifyError
    def test_lost_keys_raise_stream_error(self, monkeypatch):
        """If the spilled-run footers disagree with the ingest count the
        sort must fail loudly, not return short output."""
        import repro.stream.external as external_mod

        real = external_mod.run_total_keys
        monkeypatch.setattr(
            external_mod, "run_total_keys", lambda p: real(p) - 1
        )
        with pytest.raises(StreamError, match="conservation"):
            external_sort(_keys(12, 8_000), chunk_keys=2_000, n_workers=1)

    def test_sanitizer_counts_the_check(self, sanitizer):
        external_sort(_keys(13, 8_000), chunk_keys=2_000, n_workers=1)
        assert sanitizer.checks["stream.key-conservation"] == 1
        assert not sanitizer.violations

    def test_sanitizer_records_the_violation(self, monkeypatch, sanitizer):
        import repro.stream.external as external_mod

        real = external_mod.run_total_keys
        monkeypatch.setattr(
            external_mod, "run_total_keys", lambda p: real(p) + 2
        )
        with pytest.raises(VerifyError, match="stream.key-conservation"):
            external_sort(_keys(14, 8_000), chunk_keys=2_000, n_workers=1)
        assert sanitizer.violations


class TestFaultsUnderSort:
    def test_spill_family_recovered_inline(self):
        keys = _keys(15, 32_000)
        plan = FaultPlan.scripted(
            {
                "spill.enospc": [1],
                "spill.short_write": [3],
                "spill.corrupt": [2],
            }
        )
        blocks: list[np.ndarray] = []
        with use_fault_plan(plan):
            result = external_sort(
                keys, chunk_keys=4_000, fan_in=4, frame_keys=1024,
                n_workers=1, on_block=blocks.append,
            )
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))
        stats = result.faults
        for site in ("spill.enospc", "spill.short_write", "spill.corrupt"):
            assert stats.injected.get(site, 0) >= 1, site
        assert stats.all_recovered

    @pytest.mark.chaos
    def test_worker_kill_during_run_formation(self):
        """The default chunk plan on a small host is ``sequential`` and
        touches no worker, so run-formation crash coverage pins a
        parallel chunk sort: a worker killed in the first radix phase is
        absorbed and the run is still sorted."""
        from repro.native import parallel_radix_sort, plan
        from repro.native.pool import WorkerPool
        from repro.stream.external import ExternalSorter

        keys = _keys(19, 16_000)
        fault_plan = FaultPlan.scripted({"pool.worker.crash": [0]})
        blocks: list[np.ndarray] = []
        with use_fault_plan(fault_plan):
            with WorkerPool(2, supervise=True, phase_timeout_s=30.0) as pool:
                pinned = plan(4_000, 2, 40, keys.dtype, "radix")
                sorter = ExternalSorter(
                    lambda c: (parallel_radix_sort(c, pool=pool), pinned),
                    pool=pool,
                )
                try:
                    for lo in range(0, len(keys), 4_000):
                        sorter.add(keys[lo : lo + 4_000])
                    result = sorter.finish(blocks.append)
                finally:
                    sorter.close()
                crashed = [r["phase"] for r in pool.fault_log]
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))
        assert crashed == ["pass0.histogram"]
        assert result.chunk_plan == pinned
        assert result.faults.injected == {"pool.worker.crash": 1}
        assert result.faults.all_recovered

    @pytest.mark.chaos
    def test_chaos_stream_merge_scenario(self):
        """Worker kill pinned to the first merge-phase task plus the
        whole spill family: the canned scenario must pass (output ==
        np.sort, every fault recovered, merge-phase failure absorbed)."""
        from repro.faults.chaos import run_chaos

        out = io.StringIO()
        code = run_chaos(
            seed=0, small=True, stream=out, scenario="stream-merge"
        )
        assert code == 0, out.getvalue()
        assert "stream-merge" in out.getvalue()
