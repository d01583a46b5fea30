"""The streaming job class: the library's external sort, fed by frames.

A regular serve job is one frame in, one frame out, bounded by the frame
cap and the arena.  A *stream* is a long-lived server-side session that
lifts both limits: the client pushes key frames (each under the cap),
``stream-close`` starts the merge as a background task, the client polls
``stream-status`` for progress, and ``stream-fetch`` drains the merged
output in sequential capped frames.

A session is an :class:`~repro.stream.external.ExternalSorter` -- the
same run formation, merge passes, verified final merge, key conservation
and spill retry :func:`~repro.stream.external_sort` runs -- whose chunk
sort is the engine's arena-leased sort, plus the wire-facing state:
the phase, the re-blocking of pushed frames into chunks, and the fetch
cursor over the output run.  The session owns its phase machine
(``ingest -> merging -> done | failed``): it refuses, as a
:class:`~.protocol.Refused`, every op its phase does not take, and an
error in its engine work or its fetch fails it.

The heavy work (chunk sorts, merge passes) runs on the server's one
engine lane, interleaved with regular jobs in arrival order -- a stream
is many short engine occupancies, never one long lock-out.  Spill state
lives in the sorter's ``repro_stream_*`` workdir, removed when the fetch
cursor hits EOF, on abort, on failure and on server close.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from ..stream.external import ExternalSorter
from ..stream.ingest import Reblocker
from ..stream.runfile import RunReader, StreamError, spill_run
from .protocol import Refused

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SortEngine

#: Keys per spilled run frame inside serve streams (256 Ki keys = 2 MiB
#: of int64 per read-ahead buffer).
STREAM_FRAME_KEYS = 256 * 1024


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
    ):
        self.stream_id = uuid.uuid4().hex[:12]
        self.engine = engine
        self.dtype = dtype
        self.chunk_keys = int(chunk_keys)
        self.fan_in = int(fan_in)
        self.phase = "ingest"
        self.error: str | None = None
        self.message = ""
        self.sorter = ExternalSorter(
            engine.sort,
            dtype=dtype,
            fan_in=self.fan_in,
            frame_keys=STREAM_FRAME_KEYS,
            pool=engine.pool,
            span_args={"stream_id": self.stream_id},
        )
        self.keys_ingested = 0
        self._pushed = Reblocker()
        self._out_path = os.path.join(self.sorter.workdir, "repro_run_out.run")
        self._fetch_reader: RunReader | None = None
        self._fetch_seq = 0
        self._fetched = Reblocker()

    # ------------------------------------------------------------------
    # The phase machine (loop thread)
    # ------------------------------------------------------------------
    def check_push(self) -> None:
        if self.phase != "ingest":
            raise Refused("bad-phase", f"stream is {self.phase}, not accepting keys")

    def start_merge(self) -> None:
        """``ingest -> merging``; the server then schedules
        :meth:`finish_on_engine`."""
        if self.phase != "ingest":
            raise Refused("bad-phase", f"stream is {self.phase}, already closed")
        self.phase = "merging"

    def check_fetch(self) -> None:
        if self.phase == "failed":
            raise Refused("stream-failed", f"{self.error}: {self.message}")
        if self.phase != "done":
            raise Refused("not-ready", **self.public())

    @contextmanager
    def _failing(self, kind: type[Exception] = Exception) -> Iterator[None]:
        """A ``kind`` error in the block fails the session (``-> failed``,
        spills dropped) and is raised as its ``stream-failed`` refusal."""
        try:
            yield
        except kind as err:
            self.phase = "failed"
            self.error = type(err).__name__
            self.message = str(err)
            self.cleanup()
            raise Refused(
                "stream-failed", f"{self.error}: {self.message}",
                stream_id=self.stream_id,
            ) from err

    # ------------------------------------------------------------------
    # Engine-thread bodies
    # ------------------------------------------------------------------
    def push_on_engine(self, keys: np.ndarray) -> None:
        """Queue pushed keys; sort and spill every chunk they complete
        (each exactly ``chunk_keys`` long).  A run spills behind the
        next chunk's sort, and the last one is on disk before this
        returns: the engine's fault plan and recorder, installed only
        around the body, must cover every spill."""
        with self._failing():
            self.keys_ingested += len(keys)
            self._pushed.push(np.ascontiguousarray(keys, dtype=self.dtype))
            with self.engine.ambient():
                for chunk in self._pushed.full_blocks(self.chunk_keys):
                    self.sorter.add(chunk)
                self.sorter.io.wait()

    def finish_on_engine(self) -> None:
        """Spill the final partial chunk, then merge every run into the
        output run -- rewritten whole on ``ENOSPC``, like any spill --
        and go ``done``."""
        with self._failing(), self.engine.ambient():
            if self._pushed.pending:
                self.sorter.add(self._pushed.take(self._pushed.pending))
            spill_run(
                self._out_path, self.dtype, STREAM_FRAME_KEYS,
                lambda writer: self.sorter.finish(writer.write),
            )
        self.phase = "done"

    # ------------------------------------------------------------------
    # Fetch (loop thread: sequential frame-sized reads of the output)
    # ------------------------------------------------------------------
    def fetch_block(self, max_keys: int) -> tuple[np.ndarray | None, int]:
        """The next output block of at most ``max_keys`` keys, with its
        sequence number; ``(None, seq)`` at EOF, which cleans the session
        up (the server pops it).  Only after :meth:`check_fetch`."""
        with self._failing(StreamError):
            if self._fetch_reader is None:
                self._fetch_reader = RunReader(self._out_path)
            while self._fetched.pending < max_keys:
                frame = self._fetch_reader.next_frame()
                if frame is None:
                    break
                self._fetched.push(frame)
            seq = self._fetch_seq
            if not self._fetched.pending:
                self.cleanup()
                return None, seq
            self._fetch_seq += 1
            return self._fetched.take(max_keys), seq

    def cleanup(self) -> None:
        """Drop spill state; idempotent, runs on every exit path."""
        if self._fetch_reader is not None:
            self._fetch_reader.close()
            self._fetch_reader = None
        self.sorter.close()

    def public(self) -> dict[str, Any]:
        result = self.sorter.result
        out = {
            "stream_id": self.stream_id,
            "phase": self.phase,
            "dtype": self.dtype.str,
            "chunk_keys": self.chunk_keys,
            "fan_in": self.fan_in,
            "keys_ingested": self.keys_ingested,
            "runs": result.runs,
            "merge_passes": result.merge_passes,
            "bytes_spilled": result.bytes_spilled,
            "algorithm": None,  # a stream's run formation is always planned
            "chunk_plan": (
                None if result.chunk_plan is None else result.chunk_plan.public()
            ),
        }
        if self.phase == "done":
            out["keys_merged"] = result.n_keys
        if self.error is not None:
            out["error"] = self.error
            out["message"] = self.message
        return out
