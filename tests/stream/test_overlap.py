"""The stream path's I/O thread: write-behind, read-ahead, and what the
external sort does with them (spill errors, fault order, residency)."""

from __future__ import annotations

import io
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.faults import FaultPlan, use_fault_plan
from repro.stream import RunCorrupt, RunReader, external_sort, write_run
from repro.stream.external import ExternalSorter
from repro.stream.overlap import IOThread


# Three sorts of a 32 MiB file in 2 MiB chunks; prints how much the
# parent's resident set grew.
_RESIDENCY_SCRIPT = """
import gc, os, sys
import numpy as np
from repro.stream import external_sort

def rss_mib():
    for line in open("/proc/self/status"):
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024

src, out = sys.argv[1], sys.argv[2]
np.random.default_rng(0).integers(0, 1 << 40, size=16 << 18).tofile(src)
gc.collect()
before = rss_mib()
for _ in range(3):
    r = external_sort(src, dtype="<i8", chunk_keys=1 << 18, fan_in=4,
                      n_workers=1, out=out, workdir=os.path.dirname(out))
    # 16 runs at fan-in 4: one reduce pass, then a final merge of 4 runs
    # with every frame read ahead on the I/O thread.
    assert (r.runs, r.merge_passes) == (16, 1), r
gc.collect()
print(rss_mib() - before)
"""


def _keys(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << 40, size=n, dtype=np.int64)


def _sorted(chunk: np.ndarray):
    from repro.native.plan import SEQUENTIAL

    return np.sort(chunk), SEQUENTIAL


class TestIOThread:
    def test_behind_runs_on_another_thread_in_order(self):
        io_thread = IOThread()
        seen: list[tuple[int, str]] = []
        for i in range(5):
            io_thread.behind(lambda i=i: seen.append((i, threading.current_thread().name)))
        io_thread.wait()
        io_thread.close()
        assert [i for i, _ in seen] == list(range(5))
        assert all(name.startswith("repro-stream-io") for _, name in seen)

    def test_behind_error_surfaces_at_the_next_call(self):
        io_thread = IOThread()

        def fail():
            raise OSError("disk gone")

        io_thread.behind(fail)
        with pytest.raises(OSError, match="disk gone"):
            io_thread.behind(lambda: None)
        io_thread.wait()  # the failed call was consumed by the raise
        io_thread.close()

    def test_close_drops_the_error_in_flight(self):
        io_thread = IOThread()
        io_thread.behind(lambda: 1 / 0)
        io_thread.close()
        io_thread.close()  # idempotent

    def test_ahead_fills_caller_allocated_buffers(self):
        io_thread = IOThread()
        allocated_on: list[str] = []
        filled = iter(range(4))

        def alloc():
            allocated_on.append(threading.current_thread().name)
            return np.empty(2, np.int64)

        def fill(buf):
            i = next(filled, None)
            if i is None:
                return None
            buf[:] = i
            return buf

        got = [int(b[0]) for b in io_thread.ahead(fill, alloc)]
        io_thread.close()
        assert got == [0, 1, 2, 3]
        assert set(allocated_on) == {threading.current_thread().name}

    def test_closing_ahead_early_waits_for_the_fill_in_flight(self):
        io_thread = IOThread()
        started, release = threading.Event(), threading.Event()
        finished: list[int] = []

        def fill(buf):
            if finished:  # the second fill: hold it in flight
                started.set()
                release.wait(5)
            finished.append(1)
            return buf

        frames = io_thread.ahead(fill, lambda: np.empty(1))
        next(frames)
        assert started.wait(5)
        threading.Timer(0.05, release.set).start()
        frames.close()
        assert len(finished) == 2
        io_thread.close()

    def test_wait_s_counts_blocked_time(self):
        io_thread = IOThread()
        t0 = time.perf_counter()
        io_thread.behind(time.sleep, 0.05)
        io_thread.wait()
        elapsed = time.perf_counter() - t0
        io_thread.close()
        assert 0 < io_thread.wait_s <= elapsed


class TestRunReaderInto:
    def test_next_frame_reads_into_the_given_buffer(self, tmp_path):
        keys = np.arange(10, dtype=np.int64)
        write_run(tmp_path / "r.run", keys, frame_keys=4)
        with RunReader(tmp_path / "r.run") as reader:
            buf = np.empty(reader.frame_keys, reader.dtype)
            frame = reader.next_frame(buf)
            assert frame.base is buf or frame.base is buf.base
            assert frame.tolist() == [0, 1, 2, 3]

    def test_frame_larger_than_the_buffer_is_corrupt(self, tmp_path):
        write_run(tmp_path / "r.run", np.arange(8, dtype=np.int64), frame_keys=8)
        with RunReader(tmp_path / "r.run") as reader:
            with pytest.raises(RunCorrupt, match="exceeds"):
                reader.next_frame(np.empty(4, np.int64))


class TestSpillBehind:
    def test_spill_error_surfaces_and_leaves_no_run(self, tmp_path):
        """Exhausted ENOSPC retries on the I/O thread surface in the
        caller (at the next add or at finish) and leave no partial."""
        plan = FaultPlan(0, {"spill.enospc": 1.0})
        sorter = ExternalSorter(_sorted, workdir=tmp_path)
        try:
            with use_fault_plan(plan), pytest.raises(OSError):
                sorter.add(_keys(1, 2_000))
                sorter.add(_keys(2, 2_000))
                sorter.finish(lambda block: None)
        finally:
            sorter.close()
        assert list(tmp_path.iterdir()) == []

    def test_add_returns_before_the_run_is_on_disk(self, tmp_path, monkeypatch):
        import repro.stream.external as external_mod

        gate = threading.Event()
        real = external_mod.write_run

        def gated(*args, **kwargs):
            gate.wait(5)
            return real(*args, **kwargs)

        monkeypatch.setattr(external_mod, "write_run", gated)
        sorter = ExternalSorter(_sorted, workdir=tmp_path)
        try:
            sorter.add(_keys(3, 1_000))
            unpublished = not any(tmp_path.rglob("*.run"))
            gate.set()
            blocks: list[np.ndarray] = []
            result = sorter.finish(blocks.append)
        finally:
            gate.set()
            sorter.close()
        assert unpublished
        assert result.runs == 1
        assert np.array_equal(np.concatenate(blocks), np.sort(_keys(3, 1_000)))

    def test_fault_schedule_is_deterministic(self):
        """Spill probes run on the I/O thread in issue order: the same
        scripted plan fires at the same probes run after run."""
        keys = _keys(4, 24_000)
        events = []
        for _ in range(2):
            plan = FaultPlan.scripted(
                {"spill.enospc": [2], "spill.short_write": [5], "spill.corrupt": [3]}
            )
            with use_fault_plan(plan):
                external_sort(keys, chunk_keys=3_000, fan_in=4, frame_keys=1024, n_workers=1)
            events.append(plan.events)
        assert events[0] == events[1]
        assert {e.site for e in events[0]} == {
            "spill.enospc", "spill.short_write", "spill.corrupt"
        }


class TestFinalMerge:
    def test_emit_error_then_finish_again(self, tmp_path):
        """An ``emit`` that raises mid-merge settles the read in flight;
        a second ``finish`` (the served output run's ENOSPC rewrite)
        still emits every key, on the same threads."""
        keys = _keys(10, 20_000)
        sorter = ExternalSorter(_sorted, frame_keys=512, workdir=tmp_path)
        try:
            for lo in range(0, len(keys), 5_000):
                sorter.add(keys[lo : lo + 5_000])
            seen: list[np.ndarray] = []

            def failing(block):
                if len(seen) == 3:
                    raise OSError("sink full")
                seen.append(block)

            with pytest.raises(OSError, match="sink full"):
                sorter.finish(failing)
            blocks: list[np.ndarray] = []
            result = sorter.finish(blocks.append)
        finally:
            sorter.close()
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))
        assert result.n_keys == len(keys) and result.verified

    def test_close_leaves_no_stream_thread(self, tmp_path):
        def stream_threads():
            return [
                t for t in threading.enumerate() if t.name.startswith("repro-stream")
            ]

        sorter = ExternalSorter(_sorted, frame_keys=512, workdir=tmp_path)
        try:
            for seed in range(3):
                sorter.add(_keys(20 + seed, 3_000))
            sorter.finish(lambda block: None)
            assert stream_threads()
        finally:
            sorter.close()
        assert stream_threads() == []


class TestExternalSortOverlap:
    def test_raw_source_is_sorted_in_place_and_timed(self, tmp_path):
        keys = _keys(5, 40_000)
        src = tmp_path / "in.bin"
        keys.tofile(src)
        sink = io.BytesIO()
        result = external_sort(src, dtype="<i8", chunk_keys=7_000, n_workers=1, out=sink)
        assert np.array_equal(np.frombuffer(sink.getvalue(), np.int64), np.sort(keys))
        assert result.runs == 6
        assert result.sort_s > 0
        assert 0 <= result.io_wait_s < result.elapsed_s

    def test_file_like_without_readinto(self):
        class ReadOnly:
            def __init__(self, data: bytes):
                self._buf = io.BytesIO(data)

            def read(self, n=-1):
                return self._buf.read(min(n, 1_000))  # short reads

        keys = _keys(6, 9_000)
        blocks: list[np.ndarray] = []
        external_sort(
            ReadOnly(keys.tobytes()), dtype="<i8", chunk_keys=2_000,
            n_workers=1, on_block=blocks.append,
        )
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))

    def test_counts_hold_under_a_short_switch_interval(self):
        """The I/O thread adds each spill's bytes while the caller sorts
        the next chunk: with threads switching every microsecond, no
        update may be lost and no chunk mixed up."""
        keys = _keys(9, 100_000)
        blocks: list[np.ndarray] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = external_sort(
                io.BytesIO(keys.tobytes()), dtype="<i8", chunk_keys=500,
                fan_in=256, frame_keys=128, n_workers=1,
                on_block=blocks.append,
            )
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))
        frames = result.runs * 4  # 500 keys in frames of 128
        assert (result.runs, result.merge_passes) == (200, 0)
        assert result.bytes_spilled == keys.nbytes + 8 * frames

    def test_array_source_is_left_untouched(self):
        keys = _keys(7, 10_000)
        before = keys.copy()
        external_sort(keys, chunk_keys=2_500, n_workers=1)
        assert np.array_equal(keys, before)

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmRSS"
    )
    def test_parent_keeps_no_io_thread_memory(self, tmp_path):
        """Buffers the I/O thread fills come from the caller's allocator.
        Allocated on the thread, they were freed into its own malloc
        arena and stayed resident: 8.5 MiB after three sorts here, four
        chunks' worth."""
        script = tmp_path / "residency.py"
        script.write_text(_RESIDENCY_SCRIPT)
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "in.bin"),
             str(tmp_path / "out.bin")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 2.0  # MiB: under one chunk

    def test_spans_split_sort_and_spill(self):
        from repro.trace import MemoryRecorder, use_recorder

        rec = MemoryRecorder()
        with use_recorder(rec):
            external_sort(_keys(8, 8_000), chunk_keys=2_000, n_workers=1)
        runs = [e for e in rec.events if e.name == "stream.run"]
        spills = [e for e in rec.events if e.name == "stream.spill"]
        assert len(runs) == len(spills) == 4
        assert sorted(e.tid for e in spills) == [0, 1, 2, 3]
        assert all(e.args["bytes_spilled"] > 0 for e in spills)
