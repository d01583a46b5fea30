"""K-way merge invariants: block order, multi-pass reduction, fan-in."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import generate
from repro.faults import FaultPlan, use_fault_plan
from repro.stream import (
    RunReader,
    RunWriter,
    external_sort,
    merge_iter,
    merge_to_run,
    reduce_runs,
    run_total_keys,
    write_run,
)
from repro.stream.overlap import IOThread


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


def _chunk_runs(tmp_path, keys: np.ndarray, n_runs: int, frame_keys: int):
    """Sort ``keys`` in ``n_runs`` equal chunks, one run file each, as run
    formation does; returns the paths."""
    paths = []
    for i, chunk in enumerate(np.array_split(keys, n_runs)):
        path = os.path.join(tmp_path, f"run_{i}.run")
        write_run(path, np.sort(chunk), frame_keys=frame_keys)
        paths.append(path)
    return paths


def _ascending_by_block(blocks: list[np.ndarray]) -> bool:
    full = [b for b in blocks if len(b)]
    return all(np.all(b[1:] >= b[:-1]) for b in full) and all(
        a[-1] <= b[0] for a, b in zip(full, full[1:])
    )


_CASES = {
    "all-equal": lambda: np.full(9_000, 7, np.int64),
    "disjoint": lambda: np.arange(9_000, dtype=np.int64),
    # 40 distinct values in 512-key frames: ties straddle frame ends.
    "straddling-duplicates": lambda: np.random.default_rng(11).integers(
        0, 40, size=9_000, dtype=np.int64
    ),
    "empty-runs": lambda: np.empty(0, np.int64),
    "single-run": lambda: np.random.default_rng(12).integers(
        0, 1 << 40, size=3_000, dtype=np.int64
    ),
}


class TestMergeCases:
    """``merge_iter`` with and without the I/O thread's read-ahead."""

    @pytest.mark.parametrize("read_ahead", [False, True], ids=["inline", "io"])
    @pytest.mark.parametrize("case", list(_CASES))
    def test_sorted_union_ascending_by_block(self, tmp_path, case, read_ahead):
        keys = _CASES[case]()
        n_runs = 1 if case == "single-run" else 3
        paths = _chunk_runs(tmp_path, keys, n_runs, frame_keys=512)
        io = IOThread() if read_ahead else None
        try:
            blocks = list(merge_iter(paths, io))
        finally:
            if io is not None:
                io.close()
        got = np.concatenate(blocks) if blocks else np.empty(0, np.int64)
        assert np.array_equal(got, np.sort(keys))
        assert _ascending_by_block(blocks)


class TestBoundedBlocks:
    """No merge block holds more than the live runs' buffered frames --
    the tail included, where one run is left (it came out whole)."""

    FRAME = 4096

    @pytest.fixture(params=["ascending", "stagger"])
    def keys(self, request) -> np.ndarray:
        if request.param == "ascending":
            return np.arange(400_000, dtype=np.int64)
        return generate("stagger", 400_000, 4).astype(np.int64)

    def _check(self, blocks: list[np.ndarray], paths) -> None:
        lasts = []
        for path in paths:
            with RunReader(path) as reader:
                lasts.append(reader.read_all()[-1])
        assert sum(len(b) for b in blocks) == 400_000
        for block in blocks:
            live = sum(last >= block[0] for last in lasts)
            assert len(block) <= live * self.FRAME, (len(block), live)

    @pytest.mark.parametrize("read_ahead", [False, True], ids=["inline", "io"])
    def test_merge_iter(self, tmp_path, keys, read_ahead):
        paths = _chunk_runs(tmp_path, keys, 4, self.FRAME)
        io = IOThread() if read_ahead else None
        try:
            blocks = list(merge_iter(paths, io))
        finally:
            if io is not None:
                io.close()
        assert _ascending_by_block(blocks)
        self._check(blocks, paths)

    def test_merge_to_run(self, tmp_path, keys, monkeypatch):
        paths = _chunk_runs(tmp_path, keys, 4, self.FRAME)
        written: list[np.ndarray] = []
        real = RunWriter.write

        def write(writer, block):
            written.append(np.array(block))
            real(writer, block)

        monkeypatch.setattr(RunWriter, "write", write)
        out = os.path.join(tmp_path, "merged.run")
        merge_to_run(paths, out, frame_keys=self.FRAME, dtype=np.dtype(np.int64))
        self._check(written, paths)

    def test_external_sort_tail(self):
        blocks: list[np.ndarray] = []
        external_sort(
            np.arange(1_000_000), chunk_keys=100_000, fan_in=16,
            frame_keys=self.FRAME, n_workers=1, on_block=blocks.append,
        )
        assert max(len(b) for b in blocks) <= self.FRAME


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
