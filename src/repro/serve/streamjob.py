"""The streaming job class: external sorts that span many pool phases.

A regular serve job is one frame in, one frame out, bounded by the frame
cap and the arena.  A *stream* is a long-lived server-side session that
lifts both limits: the client pushes key frames (each under the cap),
the server forms sorted spill runs on the shared engine as chunks fill,
``stream-close`` kicks off the k-way merge as a background task on the
engine lane, the client polls ``stream-status`` for progress, and
``stream-fetch`` drains the merged output in sequential capped frames.

The heavy work (chunk sorts, merge passes) runs on the server's
single-lane engine executor, interleaved with regular jobs -- a stream
is many short engine occupancies, never one long lock-out.  Spill state
lives in a per-session ``repro_stream_*`` tempdir of ``repro_run_*``
files (the same checksummed run format as :mod:`repro.stream`), removed
when the fetch cursor hits EOF, on abort, and on server close.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import uuid
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any

import numpy as np

from ..faults.context import use_fault_plan
from ..stream.external import _sort_chunk
from ..stream.merge import merge_iter_over, reduce_runs
from ..stream.runfile import (
    RunReader,
    StreamError,
    run_total_keys,
    write_run,
)
from ..trace import PID_STREAM, current_recorder, use_recorder

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SortEngine

#: Keys per spilled run frame inside serve streams (256 Ki keys = 2 MiB
#: of int64 per read-ahead buffer).
STREAM_FRAME_KEYS = 256 * 1024

#: Session phases, in lifecycle order.
PHASES = ("ingest", "merging", "done", "failed")


class StreamSession:
    """One server-side external sort in flight.

    Methods suffixed ``_on_engine`` are the heavy bodies: the server
    always invokes them through its single-lane executor so every pool
    interaction stays on the engine thread (same rule as regular jobs).
    """

    def __init__(
        self,
        engine: "SortEngine",
        dtype: np.dtype,
        chunk_keys: int,
        fan_in: int,
        workdir_root: str | None = None,
    ):
        self.stream_id = uuid.uuid4().hex[:12]
        self.engine = engine
        self.dtype = dtype
        self.chunk_keys = int(chunk_keys)
        self.fan_in = int(fan_in)
        self.phase = "ingest"
        self.error: str | None = None
        self.message = ""
        self.created_at = time.perf_counter()
        self.keys_ingested = 0
        self.keys_merged = 0
        self.runs = 0
        self.merge_passes = 0
        self.bytes_spilled = 0
        self.workdir = tempfile.mkdtemp(
            prefix="repro_stream_", dir=workdir_root
        )
        self._run_paths: list[str] = []
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        self._out_path = os.path.join(self.workdir, "repro_run_out.run")
        self._fetch_reader: RunReader | None = None
        self._fetch_seq = 0
        self._fetch_leftover: np.ndarray | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Ingest (buffering happens on the loop thread; sorts on the engine)
    # ------------------------------------------------------------------
    def buffer_keys(self, keys: np.ndarray) -> list[np.ndarray]:
        """Append pushed keys; returns the full chunks now ready to
        sort (each exactly ``chunk_keys`` long)."""
        if self.phase != "ingest":
            raise StreamError(f"stream is {self.phase}, not accepting keys")
        keys = np.ascontiguousarray(keys, dtype=self.dtype)
        self.keys_ingested += len(keys)
        if len(keys):
            self._buffer.append(keys)
            self._buffered += len(keys)
        ready: list[np.ndarray] = []
        while self._buffered >= self.chunk_keys:
            pool = (
                np.concatenate(self._buffer)
                if len(self._buffer) > 1
                else self._buffer[0]
            )
            ready.append(pool[: self.chunk_keys])
            rest = pool[self.chunk_keys :]
            self._buffer = [rest] if len(rest) else []
            self._buffered = len(rest)
        return ready

    def drain_buffer(self) -> list[np.ndarray]:
        """The final (partial) chunk at close time, if any."""
        if not self._buffered:
            return []
        pool = (
            np.concatenate(self._buffer)
            if len(self._buffer) > 1
            else self._buffer[0]
        )
        self._buffer, self._buffered = [], 0
        return [pool]

    def _engine_ctx(self):
        plan = self.engine._plan
        return (
            use_recorder(self.engine._recorder),
            use_fault_plan(plan) if plan is not None else nullcontext(),
        )

    def form_run_on_engine(self, chunk: np.ndarray) -> None:
        """Sort one chunk on the shared pool and spill it as a run."""
        rec_ctx, plan_ctx = self._engine_ctx()
        t0 = time.perf_counter()
        with rec_ctx, plan_ctx:
            bufs = self.engine.arena.buffers()
            try:
                sorted_chunk = _sort_chunk(
                    chunk, self.engine.pool, 11, None, buffers=bufs
                )
            finally:
                bufs.release_all()  # idempotent: the sort releases too
            path = os.path.join(
                self.workdir, f"repro_run_{self.runs:04d}.run"
            )
            spilled = write_run(path, sorted_chunk, frame_keys=STREAM_FRAME_KEYS)
            self._run_paths.append(path)
            self.runs += 1
            self.bytes_spilled += spilled
            rec = current_recorder()
            if rec.enabled:
                rec.complete(
                    "stream.run",
                    cat="stream.run",
                    ts_us=t0 * 1e6,
                    dur_us=(time.perf_counter() - t0) * 1e6,
                    pid=PID_STREAM,
                    args={
                        "stream_id": self.stream_id,
                        "keys": int(len(sorted_chunk)),
                        "bytes_spilled": spilled,
                    },
                )

    # ------------------------------------------------------------------
    # Merge (background task body, on the engine thread)
    # ------------------------------------------------------------------
    def finalize_on_engine(self) -> None:
        """Merge every run into the output run; verify conservation."""
        rec_ctx, plan_ctx = self._engine_ctx()
        with rec_ctx, plan_ctx:
            in_runs = sum(run_total_keys(p) for p in self._run_paths)
            paths, passes, _read, _written = reduce_runs(
                self._run_paths,
                fan_in=self.fan_in,
                workdir=self.workdir,
                frame_keys=STREAM_FRAME_KEYS,
                dtype=self.dtype,
                pool=self.engine.pool,
            )
            self.merge_passes = passes
            merged = 0
            if paths:
                readers = [RunReader(p) for p in paths]
                try:
                    from ..stream.runfile import RunWriter

                    writer = RunWriter(
                        self._out_path, self.dtype, STREAM_FRAME_KEYS
                    )
                    try:
                        prev_last = None
                        for block in merge_iter_over(readers):
                            if len(block) and (
                                np.any(block[1:] < block[:-1])
                                or (
                                    prev_last is not None
                                    and block[0] < prev_last
                                )
                            ):
                                raise StreamError(
                                    "merge emitted an out-of-order block"
                                )
                            if len(block):
                                prev_last = block[-1]
                            merged += len(block)
                            writer.write(block)
                        writer.close()
                    except BaseException:
                        writer.abort()
                        raise
                finally:
                    for r in readers:
                        r.close()
            else:
                from ..stream.runfile import RunWriter

                with RunWriter(
                    self._out_path, self.dtype, STREAM_FRAME_KEYS
                ):
                    pass
            self.keys_merged = merged
            if not self.keys_ingested == in_runs == merged:
                raise StreamError(
                    f"stream key conservation violated: "
                    f"{self.keys_ingested} ingested, {in_runs} in runs, "
                    f"{merged} merged"
                )

    # ------------------------------------------------------------------
    # Fetch (loop thread: sequential frame-sized reads of the output)
    # ------------------------------------------------------------------
    def fetch_block(self, max_keys: int) -> tuple[np.ndarray | None, int]:
        """The next output block of at most ``max_keys`` keys, with its
        sequence number; ``(None, seq)`` at EOF (session cleaned up)."""
        if self.phase != "done":
            raise StreamError(f"stream is {self.phase}, output not ready")
        if self._fetch_reader is None:
            if self._closed:
                return None, self._fetch_seq
            self._fetch_reader = RunReader(self._out_path)
        parts: list[np.ndarray] = []
        got = 0
        if self._fetch_leftover is not None and len(self._fetch_leftover):
            take = min(max_keys, len(self._fetch_leftover))
            parts.append(self._fetch_leftover[:take])
            self._fetch_leftover = (
                self._fetch_leftover[take:]
                if take < len(self._fetch_leftover)
                else None
            )
            got += take
        while got < max_keys:
            frame = self._fetch_reader.next_frame()
            if frame is None:
                break
            take = min(max_keys - got, len(frame))
            parts.append(frame[:take])
            if take < len(frame):
                self._fetch_leftover = frame[take:]
            got += take
        seq = self._fetch_seq
        if not parts:
            self.cleanup()
            return None, seq
        self._fetch_seq += 1
        block = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return block, seq

    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Drop spill state; idempotent, runs on every exit path."""
        if self._closed:
            return
        self._closed = True
        if self._fetch_reader is not None:
            self._fetch_reader.close()
            self._fetch_reader = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def public(self) -> dict[str, Any]:
        out = {
            "stream_id": self.stream_id,
            "phase": self.phase,
            "dtype": self.dtype.str,
            "chunk_keys": self.chunk_keys,
            "fan_in": self.fan_in,
            "keys_ingested": self.keys_ingested,
            "runs": self.runs,
            "merge_passes": self.merge_passes,
            "bytes_spilled": self.bytes_spilled,
        }
        if self.phase == "done":
            out["keys_merged"] = self.keys_merged
        if self.error is not None:
            out["error"] = self.error
            out["message"] = self.message
        return out

