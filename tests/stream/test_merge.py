"""K-way merge invariants: block order, multi-pass reduction, fan-in."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.faults import FaultPlan, use_fault_plan
from repro.stream import (
    RunReader,
    merge_iter,
    merge_to_run,
    reduce_runs,
    run_total_keys,
    write_run,
)


def _spill_runs(tmp_path, seed: int, n_runs: int, run_len: int = 5_000,
                frame_keys: int = 512, high: int = 1 << 40):
    """Write ``n_runs`` sorted runs; returns (paths, all concatenated)."""
    rng = np.random.default_rng(seed)
    paths, everything = [], []
    for i in range(n_runs):
        keys = np.sort(
            rng.integers(0, high, size=run_len + 7 * i, dtype=np.int64)
        )
        path = os.path.join(tmp_path, f"run_{i}.run")
        write_run(path, keys, frame_keys=frame_keys)
        paths.append(path)
        everything.append(keys)
    return paths, np.concatenate(everything)


class TestMergeIter:
    def test_merge_equals_sorted_union(self, tmp_path):
        paths, everything = _spill_runs(tmp_path, 1, 5)
        got = np.concatenate(list(merge_iter(paths)))
        assert np.array_equal(got, np.sort(everything))

    def test_blocks_stream_in_ascending_order(self, tmp_path):
        paths, _ = _spill_runs(tmp_path, 2, 4)
        prev_last = None
        for block in merge_iter(paths):
            assert np.all(block[1:] >= block[:-1])
            if prev_last is not None and len(block):
                assert block[0] >= prev_last
            if len(block):
                prev_last = block[-1]

    def test_duplicate_heavy_runs(self, tmp_path):
        # With only 16 distinct values every frame straddles ties; the
        # take-everything-<=-bound rule must not drop or double-count.
        paths, everything = _spill_runs(tmp_path, 3, 6, high=16)
        got = np.concatenate(list(merge_iter(paths)))
        assert np.array_equal(got, np.sort(everything))

    def test_single_run_passthrough(self, tmp_path):
        paths, everything = _spill_runs(tmp_path, 4, 1)
        got = np.concatenate(list(merge_iter(paths)))
        assert np.array_equal(got, np.sort(everything))

    def test_empty_runs_ignored(self, tmp_path):
        paths, everything = _spill_runs(tmp_path, 5, 2)
        empty = os.path.join(tmp_path, "empty.run")
        write_run(empty, np.empty(0, np.int64))
        got = np.concatenate(list(merge_iter([empty] + paths)))
        assert np.array_equal(got, np.sort(everything))


class TestMergeToRun:
    def test_merge_produces_valid_run(self, tmp_path):
        paths, everything = _spill_runs(tmp_path, 6, 3)
        out = os.path.join(tmp_path, "merged.run")
        bytes_read, bytes_written = merge_to_run(
            paths, out, frame_keys=512, dtype=np.dtype(np.int64)
        )
        assert bytes_read > 0 and bytes_written > 0
        assert run_total_keys(out) == len(everything)
        with RunReader(out) as reader:
            assert np.array_equal(reader.read_all(), np.sort(everything))

    def test_injected_enospc_retries_whole_merge(self, tmp_path):
        paths, everything = _spill_runs(tmp_path, 7, 3, run_len=2_000)
        out = os.path.join(tmp_path, "merged.run")
        plan = FaultPlan.scripted({"spill.enospc": [0]})
        with use_fault_plan(plan):
            merge_to_run(paths, out, frame_keys=512, dtype=np.dtype(np.int64))
        assert plan.stats().recovered == {"spill.enospc": 1}
        with RunReader(out) as reader:
            assert np.array_equal(reader.read_all(), np.sort(everything))
        assert not os.path.exists(out + ".tmp")


class TestReduceRuns:
    def test_multi_pass_reduction(self, tmp_path):
        paths, everything = _spill_runs(tmp_path, 8, 9, run_len=2_000)
        surviving, passes, bytes_read, bytes_written = reduce_runs(
            paths, fan_in=2, workdir=str(tmp_path),
            frame_keys=512, dtype=np.dtype(np.int64),
        )
        # 9 runs at fan-in 2: 9 -> 5 -> 3 -> 2, three passes.
        assert passes == 3
        assert len(surviving) <= 2
        assert bytes_read > 0 and bytes_written > 0
        got = np.concatenate(list(merge_iter(surviving)))
        assert np.array_equal(got, np.sort(everything))
        # Merged inputs are unlinked; only survivors remain on disk.
        remaining = {p for p in os.listdir(tmp_path) if p.endswith(".run")}
        assert remaining == {os.path.basename(p) for p in surviving}

    def test_no_pass_needed_under_fan_in(self, tmp_path):
        paths, _ = _spill_runs(tmp_path, 9, 3)
        surviving, passes, bytes_read, bytes_written = reduce_runs(
            paths, fan_in=4, workdir=str(tmp_path),
            frame_keys=512, dtype=np.dtype(np.int64),
        )
        assert passes == 0
        assert surviving == [os.fspath(p) for p in paths]
        assert bytes_read == bytes_written == 0

    def test_fan_in_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fan_in"):
            reduce_runs(
                [], fan_in=1, workdir=str(tmp_path),
                frame_keys=512, dtype=np.dtype(np.int64),
            )
