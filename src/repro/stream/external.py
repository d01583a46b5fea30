"""The external-sort pipeline: ingest -> spill runs -> k-way merge.

:class:`ExternalSorter` is the pipeline, fed one chunk at a time;
:func:`external_sort` feeds it from any :func:`iter_chunks` source and a
serve stream session (:mod:`repro.serve.streamjob`) feeds it from pushed
frames.  It sorts a key stream of any size in bounded memory:
the only full-width allocations are one ingest chunk (``chunk_keys``
keys -- the out-of-core path's "arena") plus whatever the chunk sort
borrows.  Each chunk is sorted the way the planner says
(:mod:`repro.native.plan`: one ``np.sort`` below this host's crossover,
the persistent supervised :class:`~repro.native.pool.WorkerPool` above
it -- run formation), spilled as a checksummed run file, and the runs
are k-way merged -- multi-pass under a ``fan_in`` cap, intermediate
passes as supervised pool phases, final pass streaming verified sorted
blocks to the caller.

Run formation and the final merge keep the caller's thread for the
sorting; their disk I/O runs on one background thread
(:class:`~repro.stream.overlap.IOThread`): a raw source's next chunk is
read ahead, each run is spilled *behind* the next chunk's sort, and the
final merge reads every run's next frame ahead -- so on two cores the
I/O and the sorting overlap.

Everything is threaded through the existing seams:

- ``repro.trace``: ``stream.ingest`` / ``stream.run`` / ``stream.merge``
  spans on the :data:`~repro.trace.PID_STREAM` track;
- ``repro.faults``: ``spill.*`` probes in the run file layer, worker
  crash/hang/slow absorbed by the supervised merge phases, and a
  :class:`~repro.faults.plan.FaultStats` delta on the result;
- ``repro.verify``: key conservation (ingested == in runs == merged out,
  with the run-side count re-read from sealed footers) is checked always
  and reported to the ambient sanitizer when one is installed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..faults.context import fault_window
from ..faults.plan import FaultStats
from ..native import Plan, plan_keys, run_plan
from ..native.pool import WorkerPool, workers_available
from ..trace import PID_STREAM, current_recorder, wall_span
from ..verify.context import current_sanitizer
from .ingest import iter_chunks
from .merge import DEFAULT_FAN_IN, merge_iter, reduce_runs
from .overlap import IOThread
from .runfile import (
    DEFAULT_FRAME_KEYS,
    StreamError,
    run_total_keys,
    write_run,
)

#: Default chunk budget: 4 Mi keys (32 MiB of int64) per in-memory chunk.
DEFAULT_CHUNK_KEYS = 4 << 20

WORKDIR_PREFIX = "repro_stream_"


@dataclass
class StreamResult:
    """What one external sort did (returned by :func:`external_sort`)."""

    n_keys: int = 0
    dtype: str = "<i8"
    runs: int = 0
    merge_passes: int = 0
    bytes_spilled: int = 0
    bytes_merge_read: int = 0
    elapsed_s: float = 0.0
    verified: bool = False
    #: How run formation sorted a chunk (the first, full-sized one).
    chunk_plan: Plan | None = None
    #: Seconds the caller spent in the chunk sorts, and blocked on the
    #: I/O thread -- the reads and spills the overlap with the sorting
    #: did not hide.
    sort_s: float = 0.0
    io_wait_s: float = 0.0
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def mb_sorted(self) -> float:
        return self.n_keys * np.dtype(self.dtype).itemsize / 1e6

    @property
    def throughput_mb_s(self) -> float:
        return self.mb_sorted / self.elapsed_s if self.elapsed_s > 0 else 0.0


class ExternalSorter:
    """The incremental external sort: :meth:`add` chunks, :meth:`finish`.

    Owns the spill workdir (a fresh ``repro_stream_*`` directory under
    ``workdir``, removed by :meth:`close`), the run paths and every
    counter of the :class:`StreamResult`.  ``sort`` -- order one chunk
    of any supported dtype, returning it with the
    :class:`~repro.native.plan.Plan` that ran -- is the only
    substrate-specific input: :func:`external_sort` passes the planned
    pool path, a serve stream session the engine's arena-leased sort.
    ``pool`` runs the intermediate merge passes; ``span_args`` is merged
    into every span's args (a session's ``stream_id``).

    ``io`` is the sorter's I/O thread.  A run is spilled on it while the
    caller moves on, so :meth:`add` returns before its run is on disk and
    a spill error surfaces at the next :meth:`add`, at ``io.wait()`` or
    in :meth:`finish`.  The sorted chunk ``sort`` returns must be the
    sorter's to keep (a fresh array, as every planned sort returns).
    """

    def __init__(
        self,
        sort: Callable[[np.ndarray], tuple[np.ndarray, Plan]],
        *,
        dtype: np.dtype | type | str | None = None,
        fan_in: int = DEFAULT_FAN_IN,
        frame_keys: int = DEFAULT_FRAME_KEYS,
        workdir: str | os.PathLike | None = None,
        pool: WorkerPool | None = None,
        span_args: dict | None = None,
    ):
        self._sort = sort
        self.dtype = np.dtype(dtype if dtype is not None else np.int64)
        self.fan_in = fan_in
        self.frame_keys = frame_keys
        self.pool = pool
        self._span_args = dict(span_args or {})
        self._faults = fault_window()
        self._t0 = self._t_idle = time.perf_counter()
        self.ingested = 0
        self.run_paths: list[str] = []
        self.result = StreamResult()
        self.io = IOThread()
        self.workdir = tempfile.mkdtemp(
            prefix=WORKDIR_PREFIX,
            dir=os.fspath(workdir) if workdir is not None else None,
        )

    def add(self, chunk: np.ndarray) -> None:
        """Ingest one chunk: sort it, and spill it as a run behind the
        caller's next step (once the previous run's spill is done).

        The ``stream.ingest`` span covers the wait for the chunk (since
        the previous :meth:`add` returned), ``stream.run`` the sort, and
        ``stream.spill`` -- on the I/O thread -- the spill.
        """
        res = self.result
        self.dtype = chunk.dtype
        self.ingested += len(chunk)
        tracing = current_recorder().enabled
        if tracing:
            wall_span(
                "stream.ingest", "stream.ingest", self._t_idle, pid=PID_STREAM,
                args={**self._span_args, "keys": len(chunk), "bytes": chunk.nbytes},
            )
        t_run = time.perf_counter()
        sorted_chunk, chosen = self._sort(chunk)
        res.sort_s += time.perf_counter() - t_run
        if res.chunk_plan is None:
            res.chunk_plan = chosen
        if tracing:
            wall_span(
                "stream.run", "stream.run", t_run, pid=PID_STREAM, tid=res.runs,
                args={**self._span_args, "keys": len(sorted_chunk)},
            )
        path = os.path.join(self.workdir, f"repro_run_{res.runs:04d}.run")
        self.io.behind(self._spill, path, sorted_chunk, res.runs)
        self.run_paths.append(path)
        res.runs += 1
        self._t_idle = time.perf_counter()

    def _spill(self, path: str, keys: np.ndarray, index: int) -> None:
        """Write one sorted chunk as run ``index`` (on the I/O thread)."""
        t0 = time.perf_counter()
        spilled = write_run(path, keys, frame_keys=self.frame_keys)
        self.result.bytes_spilled += spilled
        if current_recorder().enabled:
            wall_span(
                "stream.spill", "stream.run", t0, pid=PID_STREAM, tid=index,
                args={**self._span_args, "keys": len(keys), "bytes_spilled": spilled},
            )

    def finish(
        self, emit: Callable[[np.ndarray], None], verify: bool = True
    ) -> StreamResult:
        """Merge the runs, handing ascending blocks to ``emit``.

        Merge passes run until one final pass fits ``fan_in``; that pass
        streams from the parent, each run's next frame read ahead on the
        I/O thread.  ``verify`` checks each block is
        ascending and none starts below its predecessor's last key; key
        conservation (ingested == run footers == merged out) is enforced
        always, through the ambient sanitizer when one is installed.

        May be called again after ``emit`` raised (a sink that can start
        over, like the served output run on ``ENOSPC``): the passes
        already made are kept and only the final pass reruns.
        """
        res = self.result
        res.dtype = self.dtype.str
        self.io.wait()  # every run is sealed before its footer is read

        # Independent run-side count: what the sealed footers say landed
        # on disk (not what we think we wrote).
        in_runs = sum(run_total_keys(p) for p in self.run_paths)

        self.run_paths, passes, m_read, m_written = reduce_runs(
            self.run_paths,
            fan_in=self.fan_in,
            workdir=self.workdir,
            frame_keys=self.frame_keys,
            dtype=self.dtype,
            pool=self.pool,
        )
        res.merge_passes += passes
        res.bytes_spilled += m_written
        res.bytes_merge_read += m_read

        t_final = time.perf_counter()
        merged = 0
        final_read = 0
        prev_last = None
        for block in merge_iter(self.run_paths, self.io):
            merged += len(block)
            final_read += int(block.nbytes)
            if verify and len(block):
                if np.any(block[1:] < block[:-1]) or (
                    prev_last is not None and block[0] < prev_last
                ):
                    raise StreamError(
                        "merge emitted an out-of-order block "
                        f"(after {merged - len(block)} keys)"
                    )
                prev_last = block[-1]
            emit(block)
        res.bytes_merge_read += final_read
        wall_span(
            "stream.merge.final", "stream.merge", t_final, pid=PID_STREAM,
            args={
                **self._span_args,
                "fan_in": len(self.run_paths),
                "runs_in": len(self.run_paths),
                "bytes_read": final_read,
                "keys": merged,
            },
        )

        san = current_sanitizer()
        if san is not None:
            san.on_stream_conservation(
                self.ingested, in_runs, merged, "external_sort"
            )
        elif not self.ingested == in_runs == merged:
            raise StreamError(
                f"key conservation violated: {self.ingested} ingested, "
                f"{in_runs} in runs, {merged} merged out"
            )
        res.n_keys = merged
        res.verified = bool(verify)
        res.io_wait_s = self.io.wait_s
        res.elapsed_s = time.perf_counter() - self._t0
        res.faults = self._faults() or res.faults
        return res

    def close(self) -> None:
        """Stop the I/O thread (a spill in flight is waited out, its
        error dropped) and drop the spill workdir; idempotent, for every
        exit path."""
        self.io.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def external_sort(
    source,
    *,
    chunk_keys: int = DEFAULT_CHUNK_KEYS,
    dtype: np.dtype | type | str | None = None,
    fan_in: int = DEFAULT_FAN_IN,
    frame_keys: int = DEFAULT_FRAME_KEYS,
    workdir: str | os.PathLike | None = None,
    pool: WorkerPool | None = None,
    n_workers: int | None = None,
    out=None,
    on_block: Callable[[np.ndarray], None] | None = None,
    verify: bool = True,
) -> StreamResult:
    """Externally sort ``source`` (any :func:`iter_chunks` source).

    Sorted output streams out in ascending blocks: ``on_block`` is
    called with each block, and/or ``out`` (a path or binary file-like)
    receives the raw little-endian key bytes.  Spill files live in a
    fresh ``repro_stream_*`` directory under ``workdir`` (default: the
    system temp dir) and are removed on every path, including errors.

    ``verify=True`` checks each output block is ascending and no block
    starts below the previous block's last key; key conservation
    (ingested == spilled-run footers == merged out) is enforced always
    and reported to the ambient sanitizer when one is installed.
    """
    if chunk_keys < 4:
        raise ValueError("chunk_keys must be >= 4")

    width = workers_available(pool, n_workers)
    own_pool: WorkerPool | None = None

    def workers() -> WorkerPool | None:
        """The caller's pool, else one of our own forked on first need:
        a sequential chunk plan and a merge that fits one pass never
        start a worker."""
        nonlocal own_pool
        if pool is None and own_pool is None and width > 1:
            own_pool = WorkerPool(width, supervise=True, phase_timeout_s=60.0)
        return pool if pool is not None else own_pool

    # A raw source's chunks are fresh arrays of our own, read ahead on
    # the I/O thread: sort them where they lie (an array's chunks are the
    # caller's views, an iterable's parts its producer's).
    raw = isinstance(source, (str, os.PathLike)) or hasattr(source, "read")

    def sort_chunk(keys: np.ndarray) -> tuple[np.ndarray, Plan]:
        chosen = plan_keys(keys, width)
        if raw and chosen.algorithm == "sequential":
            keys.sort()
            return keys, chosen
        on = workers() if chosen.width > 1 else None
        return run_plan(keys, chosen, pool=on), chosen

    sorter = ExternalSorter(
        sort_chunk, dtype=dtype, fan_in=fan_in, frame_keys=frame_keys,
        workdir=workdir, pool=pool,
    )
    out_file = None
    try:
        if out is not None:
            out_file = out if hasattr(out, "write") else open(os.fspath(out), "wb")
        for chunk in iter_chunks(source, chunk_keys, dtype, sorter.io):
            sorter.add(chunk)
        if len(sorter.run_paths) > fan_in:
            sorter.pool = workers()  # intermediate merge passes

        def emit(block: np.ndarray) -> None:
            if out_file is not None:
                out_file.write(np.ascontiguousarray(block))  # no bytes copy
            if on_block is not None:
                on_block(block)

        return sorter.finish(emit, verify)
    finally:
        sorter.close()
        if own_pool is not None:
            own_pool.close()
        if out_file is not None and out_file is not out:
            out_file.close()
