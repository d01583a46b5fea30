"""K-way merge over sorted run files with bounded read-ahead.

The merge is *vectorized by block* rather than key-at-a-time through a
heap: each input run keeps one frame buffered (bounded read-ahead), and
every step computes the safe bound -- the minimum over active runs of
the *last* buffered key -- takes each run's prefix ``<=`` that bound (a
``searchsorted``), and emits their sorted concatenation as one block.
Every unread key in any run is ``>=`` its run's buffered tail ``>=`` the
bound, so the block really is the next stretch of the global order; and
the run whose tail *is* the bound drains its whole frame, so each step
consumes at least one full frame.  On heavily interleaved inputs (the
common case) that is ~``fan_in`` frames sorted per step, where a
head-vs-head prefix rule would degenerate to a key or two per step.

When the number of runs exceeds ``fan_in`` the merge goes multi-pass:
runs are grouped into at most ``fan_in``-wide groups and each group is
merged into an intermediate run file.  Intermediate groups are
independent, so they run as one supervised :class:`WorkerPool` phase
(``stream.merge.passN``) -- a worker crash mid-merge is absorbed by the
pool's rebuild/retry machinery, and the group task is idempotent (it
spills to a fresh ``.tmp`` and atomically renames, so a re-run after a
kill simply overwrites).  The final pass always merges in the parent,
streaming verified output chunks to the caller; given the sorter's I/O
thread (:mod:`repro.stream.overlap`) it reads each run's next frame
ahead on it while the parent sorts the current block.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from ..trace import PID_STREAM, wall_span
from .overlap import IOThread
from .runfile import RunReader, RunWriter, StreamError, spill_run

#: Default fan-in cap: how many runs one merge pass reads at once.  Each
#: open run costs one frame of read-ahead, so fan-in bounds merge memory.
DEFAULT_FAN_IN = 16


class _BufferedRun:
    """One merge input: a run's frames with a single one buffered."""

    __slots__ = ("frames", "buf", "pos")

    def __init__(self, frames: Iterator[np.ndarray]):
        self.frames = frames
        self.buf: np.ndarray | None = None
        self.pos = 0
        self._refill()

    def _refill(self) -> None:
        for frame in self.frames:
            if len(frame):
                self.buf = frame
                self.pos = 0
                return
        self.buf = None

    @property
    def exhausted(self) -> bool:
        return self.buf is None

    def tail(self):
        """Largest buffered key (the buffer is a sorted-run slice)."""
        return self.buf[-1]

    def take_leq(self, bound) -> list[np.ndarray]:
        """Take every buffered key ``<= bound``, refilling across frame
        boundaries."""
        out: list[np.ndarray] = []
        while self.buf is not None:
            hi = int(np.searchsorted(self.buf, bound, side="right"))
            if hi <= self.pos:
                break
            out.append(self.buf[self.pos : hi])
            if hi == len(self.buf):
                self._refill()
            else:
                self.pos = hi
                break
        return out

    def take_frame(self) -> np.ndarray:
        """The rest of the buffered frame (a view), then refill."""
        rest = self.buf[self.pos :]
        self._refill()
        return rest


def _merge_blocks(runs: list[_BufferedRun]) -> Iterator[np.ndarray]:
    """The core block merge (see module doc)."""
    active = [r for r in runs if not r.exhausted]
    while len(active) > 1:
        # Safe bound: every unread key of any run is >= that run's
        # buffered tail >= the min tail, so the <=bound prefixes across
        # all runs are exactly the next stretch of the global order.
        bound = min(r.tail() for r in active)
        parts: list[np.ndarray] = []
        for r in active:
            parts.extend(r.take_leq(bound))
        if len(parts) == 1:
            # A single contributing slice is already sorted; don't sort
            # in place -- it may be a view into a live buffer.
            yield parts[0]
        elif parts:
            block = np.concatenate(parts)
            # The default sort, not timsort: a block concatenates up to
            # fan_in runs, and timsort only wins at two (16 sorted runs of
            # 32 Ki keys: 2.0-2.1x slower; docs/PERF.md, "Sample sort in
            # two phases").
            block.sort()
            yield block
        active = [r for r in active if not r.exhausted]
    # The last run's frames are the rest of the order as they stand:
    # yield them one by one, uncopied, so no tail block outgrows a frame.
    for r in active:
        while not r.exhausted:
            yield r.take_frame()


@contextmanager
def _merging(run_paths: Sequence[str | os.PathLike], io: IOThread | None):
    """Open the runs and merge them, each run's next frame read ahead on
    ``io`` when given; yields ``(readers, blocks)``.  Every read in
    flight is settled before its reader closes."""
    readers: list[RunReader] = []
    frames: list[Iterator[np.ndarray]] = []
    try:
        for p in run_paths:
            readers.append(RunReader(p))
        frames = [
            r.frames() if io is None
            else io.ahead(r.next_frame, partial(np.empty, r.frame_keys, r.dtype))
            for r in readers
        ]
        yield readers, _merge_blocks([_BufferedRun(f) for f in frames])
    finally:
        for f in frames:
            f.close()
        for r in readers:
            r.close()


def merge_iter(
    run_paths: Sequence[str | os.PathLike], io: IOThread | None = None
) -> Iterator[np.ndarray]:
    """Single-pass merge: yield sorted blocks over the given runs.

    The concatenation of the yielded blocks is the sorted union of the
    runs' keys.  Read-ahead is one frame per run; with ``io``, a second
    one is read (and CRC-checked) on that thread while the caller works
    on the current block.
    """
    with _merging(run_paths, io) as (_readers, blocks):
        yield from blocks


def merge_to_run(
    run_paths: Sequence[str | os.PathLike],
    out_path: str | os.PathLike,
    *,
    frame_keys: int,
    dtype: np.dtype,
) -> tuple[int, int]:
    """Merge runs into a new run file (atomic publish); returns
    ``(bytes_read, bytes_written)``.  ``ENOSPC`` mid-merge drops the
    partial ``.tmp``, backs off and remerges
    (:func:`~repro.stream.runfile.spill_run`, as for ``write_run``).
    No I/O thread: a merge pass already runs one group per core."""

    def merge_into(writer: RunWriter) -> int:
        with _merging(run_paths, None) as (readers, blocks):
            for block in blocks:
                writer.write(block)
            return sum(r.bytes_read for r in readers)

    return spill_run(out_path, dtype, frame_keys, merge_into)


def _merge_group_task(args) -> tuple[int, int]:
    """Pool task: merge one group of runs into an intermediate run.

    Module-level so it pickles; idempotent under supervised re-execution
    because :class:`RunWriter` spills to ``.tmp`` and atomically renames
    (a re-run after a worker kill overwrites the orphaned partial).
    """
    run_paths, out_path, frame_keys, dtype_str = args
    return merge_to_run(
        run_paths, out_path, frame_keys=frame_keys, dtype=np.dtype(dtype_str)
    )


def reduce_runs(
    run_paths: Sequence[str],
    *,
    fan_in: int = DEFAULT_FAN_IN,
    workdir: str,
    frame_keys: int,
    dtype: np.dtype,
    pool=None,
) -> tuple[list[str], int, int, int]:
    """Merge passes until at most ``fan_in`` runs remain.

    Returns ``(surviving_paths, merge_passes, bytes_read, bytes_written)``.
    Intermediate passes run as supervised pool phases when a pool is
    given (each group one task); otherwise they merge inline.
    """
    if fan_in < 2:
        raise ValueError("fan_in must be >= 2")
    paths = [os.fspath(p) for p in run_paths]
    passes = 0
    bytes_read = 0
    bytes_written = 0
    gen = 0
    while len(paths) > fan_in:
        passes += 1
        gen += 1
        groups = [paths[i : i + fan_in] for i in range(0, len(paths), fan_in)]
        # A trailing singleton group would be a pointless copy: pass it
        # through to the next generation untouched.
        passthrough = []
        if len(groups[-1]) == 1:
            passthrough = groups.pop()
        tasks = []
        outs = []
        for g, group in enumerate(groups):
            out = os.path.join(workdir, f"repro_run_g{gen}_{g:04d}.run")
            outs.append(out)
            tasks.append((tuple(group), out, frame_keys, dtype.str))
        begin = time.perf_counter()
        if pool is not None:
            results = pool.run_phase(
                _merge_group_task, tasks, name=f"stream.merge.pass{passes}"
            )
        else:
            results = [_merge_group_task(t) for t in tasks]
        pass_read = sum(r for r, _w in results)
        pass_written = sum(w for _r, w in results)
        bytes_read += pass_read
        bytes_written += pass_written
        wall_span(
            f"stream.merge.pass{passes}", "stream.merge", begin, pid=PID_STREAM,
            args={
                "fan_in": fan_in,
                "runs_in": len(paths),
                "runs_out": len(outs) + len(passthrough),
                "bytes_read": pass_read,
                "bytes_written": pass_written,
            },
        )
        for group in groups:
            for p in group:
                try:
                    os.unlink(p)
                except FileNotFoundError:
                    pass
        paths = outs + passthrough
        if passes > 64:  # pragma: no cover - defensive
            raise StreamError("merge failed to converge")
    return paths, passes, bytes_read, bytes_written
