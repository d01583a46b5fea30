"""Run-file integrity: framing, CRCs, atomic publish, and the three
``spill.*`` fault sites (docs/STREAM.md)."""

from __future__ import annotations

import errno
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.faults import FaultPlan, use_fault_plan
from repro.faults.context import RETRIES
from repro.stream import (
    RunCorrupt,
    RunReader,
    RunTruncated,
    RunWriter,
    StreamError,
    run_total_keys,
    write_run,
)


# Spill a run and stop inside its second frame's payload, half of it
# written and flushed, until the parent kills the process.
_KILLED_WRITER = """
import sys, time
import numpy as np
from repro.stream import runfile

real, frames = runfile._write_all, []

def gated(f, payload):
    frames.append(len(payload))
    if len(frames) == 2:
        f.write(payload[: len(payload) // 2])
        f.flush()
        print("mid-frame", flush=True)
        time.sleep(60)
    real(f, payload)

runfile._write_all = gated
runfile.write_run(sys.argv[1], np.arange(10_000, dtype=np.int64), frame_keys=1024)
"""


def _sorted_keys(seed: int, n: int = 10_000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.integers(0, 1 << 40, size=n, dtype=np.int64))


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        keys = _sorted_keys(1)
        path = tmp_path / "a.run"
        spilled = write_run(path, keys, frame_keys=1024)
        assert spilled >= keys.nbytes
        with RunReader(path) as reader:
            got = reader.read_all()
        assert np.array_equal(got, keys)
        assert reader.total_keys == len(keys)

    @pytest.mark.parametrize("dtype", ["<i4", "<i8", "<u4", "<u8"])
    def test_every_supported_dtype(self, tmp_path, dtype):
        keys = np.sort(
            np.random.default_rng(2).integers(
                0, 100, size=777, dtype=np.dtype(dtype)
            )
        )
        path = tmp_path / "d.run"
        write_run(path, keys, frame_keys=100)
        with RunReader(path) as reader:
            got = reader.read_all()
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, keys)

    def test_frames_reblock_input(self, tmp_path):
        keys = _sorted_keys(3, 2_500)
        path = tmp_path / "f.run"
        with RunWriter(path, keys.dtype, frame_keys=1000) as w:
            # Two writes of awkward sizes still land as 1000-key frames.
            w.write(keys[:1_700])
            w.write(keys[1_700:])
        with RunReader(path) as reader:
            sizes = [len(f) for f in reader.frames()]
        assert sizes == [1000, 1000, 500]

    def test_empty_run(self, tmp_path):
        path = tmp_path / "e.run"
        with RunWriter(path, np.int64) as w:
            pass
        assert run_total_keys(path) == 0
        with RunReader(path) as reader:
            assert len(reader.read_all()) == 0

    def test_run_total_keys_reads_footer(self, tmp_path):
        keys = _sorted_keys(4, 5_000)
        path = tmp_path / "t.run"
        write_run(path, keys, frame_keys=512)
        assert run_total_keys(path) == 5_000

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(StreamError, match="unsupported run dtype"):
            RunWriter(tmp_path / "x.run", np.float64)


class TestIntegrity:
    def test_truncated_run_detected(self, tmp_path):
        keys = _sorted_keys(5)
        path = tmp_path / "trunc.run"
        write_run(path, keys, frame_keys=1024)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 37)
        with pytest.raises((RunTruncated, RunCorrupt)):
            with RunReader(path) as reader:
                reader.read_all()

    def test_truncated_published_run_raises_truncated(self, tmp_path):
        """With no fsync behind the publish, a run cut short on disk is
        still caught by its frame lengths, not merged short."""
        path = tmp_path / "cut.run"
        write_run(path, _sorted_keys(12), frame_keys=1024)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        with pytest.raises(RunTruncated, match="truncated frame payload"):
            with RunReader(path) as reader:
                reader.read_all()

    def test_killed_writer_leaves_only_its_tmp(self, tmp_path):
        """The rename is atomic against the writing process's death: a
        SIGKILL mid-frame leaves ``<path>.tmp`` and no final path."""
        script = tmp_path / "writer.py"
        script.write_text(_KILLED_WRITER)
        path = tmp_path / "killed.run"
        src = str(Path(repro.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, str(script), str(path)], stdout=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": src},
        )
        watchdog = threading.Timer(60, child.kill)  # unblocks readline
        watchdog.start()
        try:
            assert child.stdout.readline().strip() == "mid-frame"
        finally:
            watchdog.cancel()
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "killed.run.tmp", "writer.py"
        ]
        with pytest.raises(RunTruncated):
            with RunReader(tmp_path / "killed.run.tmp") as reader:
                reader.read_all()

    def test_on_disk_bit_flip_detected(self, tmp_path):
        keys = _sorted_keys(6)
        path = tmp_path / "rot.run"
        write_run(path, keys, frame_keys=1024)
        # Flip one bit in the middle of a frame payload on disk: the
        # CRC fails, the seek-back re-read sees the same rot, and the
        # reader must raise rather than merge garbage.
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) // 2)
            byte = f.read(1)[0]
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte ^ 0x10]))
        with pytest.raises(RunCorrupt, match="CRC mismatch"):
            with RunReader(path) as reader:
                reader.read_all()

    def test_corrupt_footer_detected(self, tmp_path):
        keys = _sorted_keys(7, 100)
        path = tmp_path / "foot.run"
        write_run(path, keys)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.seek(size - 10)  # inside the u64 total_keys
            f.write(b"\xff")
        with pytest.raises(RunCorrupt):
            run_total_keys(path)
        with pytest.raises(RunCorrupt, match="footer"):
            with RunReader(path) as reader:
                reader.read_all()

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(RunCorrupt, match="bad magic"):
            RunReader(path)

    def test_abort_leaves_no_file(self, tmp_path):
        path = tmp_path / "gone.run"
        w = RunWriter(path, np.int64)
        w.write(_sorted_keys(8, 100))
        w.abort()
        assert list(tmp_path.iterdir()) == []

    def test_exception_in_context_drops_tmp(self, tmp_path):
        path = tmp_path / "ctx.run"
        with pytest.raises(RuntimeError, match="boom"):
            with RunWriter(path, np.int64) as w:
                w.write(_sorted_keys(9, 100))
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_publish_is_atomic(self, tmp_path):
        """The final path must not exist until the footer is sealed."""
        path = tmp_path / "atomic.run"
        w = RunWriter(path, np.int64, frame_keys=64)
        w.write(_sorted_keys(10, 1_000))
        assert not path.exists()
        assert path.with_suffix(".run.tmp").exists()
        w.close()
        assert path.exists()
        assert not path.with_suffix(".run.tmp").exists()


class TestSpillFaults:
    def test_injected_enospc_is_retried(self, tmp_path):
        keys = _sorted_keys(11)
        plan = FaultPlan.scripted({"spill.enospc": [0]})
        with use_fault_plan(plan):
            write_run(tmp_path / "r.run", keys, frame_keys=1024)
        stats = plan.stats()
        assert stats.total_injected == 1
        assert stats.recovered == {"spill.enospc": 1}
        with RunReader(tmp_path / "r.run") as reader:
            assert np.array_equal(reader.read_all(), keys)
        # The retried attempt left no partial .tmp behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.run"]

    def test_persistent_enospc_exhausts_retries(self, tmp_path):
        keys = _sorted_keys(12, 1_000)
        plan = FaultPlan.scripted({"spill.enospc": [0, 1, 2, 3]})
        with use_fault_plan(plan):
            with pytest.raises(OSError) as excinfo:
                write_run(tmp_path / "never.run", keys)
        assert excinfo.value.errno == errno.ENOSPC
        assert plan.injected["spill.enospc"] == RETRIES + 1
        assert list(tmp_path.iterdir()) == []  # no orphan partials

    def test_injected_short_write_absorbed(self, tmp_path):
        keys = _sorted_keys(13)
        plan = FaultPlan.scripted({"spill.short_write": [0]})
        with use_fault_plan(plan):
            write_run(tmp_path / "s.run", keys, frame_keys=1024)
        stats = plan.stats()
        assert stats.total_injected == 1
        assert stats.recovered == {"spill.short_write": 1}
        with RunReader(tmp_path / "s.run") as reader:
            assert np.array_equal(reader.read_all(), keys)

    def test_injected_corrupt_read_recovers_on_reread(self, tmp_path):
        keys = _sorted_keys(14)
        write_run(tmp_path / "c.run", keys, frame_keys=1024)
        plan = FaultPlan.scripted({"spill.corrupt": [0]})
        with use_fault_plan(plan):
            with RunReader(tmp_path / "c.run") as reader:
                got = reader.read_all()
        assert np.array_equal(got, keys)
        stats = plan.stats()
        assert stats.total_injected == 1
        assert stats.recovered == {"spill.corrupt": 1}
