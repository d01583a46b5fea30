"""Structured-trace layer tests: recorders, ambient install, Chrome export."""

import json

import pytest

from repro.trace import (
    NULL_RECORDER,
    MemoryRecorder,
    PID_NATIVE,
    PID_SIM,
    TraceEvent,
    current_recorder,
    to_chrome_trace,
    use_recorder,
    write_chrome_trace,
)


class TestRecorders:
    def test_null_by_default(self):
        rec = current_recorder()
        assert not rec.enabled
        rec.complete("x", "cat", 0.0, 1.0)  # silently dropped
        rec.instant("y", "cat", 0.0)
        rec.counter("z", "cat", 0.0, {"v": 1.0})

    def test_use_recorder_installs_and_restores(self):
        rec = MemoryRecorder()
        assert current_recorder() is NULL_RECORDER
        with use_recorder(rec):
            assert current_recorder() is rec
            with use_recorder(None):  # None keeps the current one
                assert current_recorder() is rec
        assert current_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_error(self):
        rec = MemoryRecorder()
        with pytest.raises(RuntimeError):
            with use_recorder(rec):
                raise RuntimeError("boom")
        assert current_recorder() is NULL_RECORDER

    def test_memory_recorder_collects(self):
        rec = MemoryRecorder()
        rec.complete("phase", "sim.phase", ts_us=1.0, dur_us=2.0, tid=3)
        rec.instant("msg", "sim.msg", ts_us=4.0)
        rec.counter("bytes", "model", ts_us=5.0, values={"b": 7.0})
        assert len(rec) == 3
        assert [e for e in rec.events if e.cat == "sim.msg"] == [rec.events[1]]
        assert [e for e in rec.events if e.name == "phase"][0].dur_us == 2.0
        assert (rec.events[0].ts_us, rec.events[0].dur_us) == (1.0, 2.0)

    def test_memory_recorder_cap_drops(self):
        rec = MemoryRecorder(max_events=2)
        for i in range(5):
            rec.instant(f"e{i}", "c", ts_us=float(i))
        assert len(rec) == 2
        assert rec.n_dropped == 3
        rec.clear()
        assert len(rec) == 0 and rec.n_dropped == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            MemoryRecorder(max_events=0)

    def test_verbose_flag(self):
        assert not MemoryRecorder().verbose
        assert MemoryRecorder(verbose=True).verbose
        assert not NULL_RECORDER.enabled


class TestChromeExport:
    def _events(self):
        return [
            TraceEvent("span", "sim.phase", 10.0, 5.0, pid=PID_SIM, tid=1),
            TraceEvent("mark", "sim.msg", 12.0, ph="i", pid=PID_SIM, tid=2,
                       args={"bytes": 64}),
            TraceEvent("ctr", "native", 1.0, ph="C", pid=PID_NATIVE,
                       args={"v": 3.0}),
        ]

    def test_structure(self):
        doc = to_chrome_trace(self._events())
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        evs = doc["traceEvents"]
        meta = [e for e in evs if e["ph"] == "M"]
        # Both pids present -> both process_name metadata records.
        assert {m["pid"] for m in meta} == {PID_SIM, PID_NATIVE}
        span = next(e for e in evs if e["name"] == "span")
        assert span["ph"] == "X" and span["dur"] == 5.0 and span["ts"] == 10.0
        mark = next(e for e in evs if e["name"] == "mark")
        assert mark["ph"] == "i" and mark["s"] == "t" and mark["args"] == {"bytes": 64}
        ctr = next(e for e in evs if e["name"] == "ctr")
        assert ctr["ph"] == "C"

    def test_json_serializable_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), self._events())
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 3 + 2  # events + 2 metadata

    def test_recorder_input_reports_drops(self):
        rec = MemoryRecorder(max_events=1)
        rec.instant("a", "c", 0.0)
        rec.instant("b", "c", 0.0)
        doc = to_chrome_trace(rec)
        assert doc["otherData"]["droppedEvents"] == 1

    def test_thread_names(self):
        doc = to_chrome_trace(
            self._events(), thread_names={(PID_SIM, 1): "proc 1"}
        )
        tn = [e for e in doc["traceEvents"]
              if e["ph"] == "M" and e["name"] == "thread_name"]
        assert tn and tn[0]["args"]["name"] == "proc 1"


class TestLayerIntegration:
    def test_simulated_run_emits_phases(self):
        import repro

        keys = repro.data.generate("gauss", 8 * 256, 8)
        rec = MemoryRecorder()
        repro.sort(keys, backend="sim", n_procs=8, trace=rec)
        phases = [e for e in rec.events if e.cat == "sim.phase"]
        assert phases, "Team phases should be traced"
        assert any(e.cat == "model.exchange" for e in rec.events), (
            "model layer should mark exchanges")
        assert any(e.cat == "sim.barrier" for e in rec.events), (
            "barriers should be traced")
        # Timestamps are virtual-us and non-negative; spans have duration.
        assert all(e.ts_us >= 0 and e.dur_us > 0 for e in phases)
        # Every simulated processor appears as a track.
        assert {e.tid for e in phases} == set(range(8))

    def test_verbose_adds_messages_and_processes(self):
        import repro

        keys = repro.data.generate("gauss", 8 * 256, 8)
        quiet = MemoryRecorder()
        repro.sort(keys, backend="sim", model="mpi-new", n_procs=8, trace=quiet)
        assert not any(e.cat == "sim.msg" for e in quiet.events)

        verbose = MemoryRecorder(verbose=True)
        repro.sort(keys, backend="sim", model="mpi-new", n_procs=8, trace=verbose)
        assert any(e.cat == "sim.msg" for e in verbose.events), (
            "verbose traces carry message instants")
        assert any(e.cat == "sim.process" for e in verbose.events), (
            "verbose traces carry DES spans")

    def test_native_run_emits_pool_phases(self):
        import numpy as np

        import repro

        keys = np.random.default_rng(0).integers(
            0, 1 << 20, size=20_000, dtype=np.int64
        )
        rec = MemoryRecorder()
        repro.sort(keys, algorithm="sample", backend="native", n_procs=2,
                   trace=rec)
        assert any(e.cat == "native.sort" for e in rec.events)
        phase_names = {e.name for e in rec.events if e.cat == "native.phase"}
        assert phase_names == {"local-sort", "merge"}
        assert any(e.cat == "native.task" for e in rec.events)
