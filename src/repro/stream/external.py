"""The external-sort driver: ingest -> spill runs -> k-way merge.

:func:`external_sort` sorts a key stream of any size in bounded memory:
the only full-width allocations are one ingest chunk (``chunk_keys``
keys -- the out-of-core path's "arena") plus the shared sort buffers the
chunk sort borrows.  Each chunk is sorted on the persistent supervised
:class:`~repro.native.pool.WorkerPool` through the engineered kernel
seam (run formation), spilled as a checksummed run file, and the runs
are k-way merged -- multi-pass under a ``fan_in`` cap, intermediate
passes as supervised pool phases, final pass streaming verified sorted
blocks to the caller.

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

from ..faults.context import current_fault_plan
from ..faults.plan import FaultStats
from ..native.pool import WorkerPool, default_workers
from ..native.radix import parallel_radix_sort
from ..native.shm import SortBuffers
from ..trace import PID_STREAM, current_recorder
from ..verify.context import current_sanitizer
from .ingest import iter_chunks
from .merge import DEFAULT_FAN_IN, merge_iter, reduce_runs
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
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def mb_sorted(self) -> float:
        return self.n_keys * np.dtype(self.dtype).itemsize / 1e6

    @property
    def throughput_mb_s(self) -> float:
        return self.mb_sorted / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _sort_chunk(
    chunk: np.ndarray,
    pool: WorkerPool | None,
    radix: int,
    kernel: str | None,
    buffers: SortBuffers | None = None,
) -> np.ndarray:
    """Run formation: sort one chunk on the pool via the kernel seam.

    The radix kernels are signed-int64 shared-memory paths; unsigned
    chunks ride them through a value-preserving int64 round trip, except
    uint64 keys past ``2**63 - 1`` which fall back to ``np.sort``.
    ``buffers`` (the serve arena's lease) replaces per-sort shared-memory
    segments, as in :func:`~repro.native.radix.parallel_radix_sort`.
    """
    widen = chunk.dtype.kind == "u"
    if (
        widen
        and chunk.dtype.itemsize == 8
        and len(chunk)
        and int(chunk.max()) > np.iinfo(np.int64).max
    ):
        return np.sort(chunk)
    out = parallel_radix_sort(
        chunk.astype(np.int64) if widen else chunk,
        pool=pool, radix=radix, buffers=buffers, kernel=kernel,
    )
    return out.astype(chunk.dtype) if widen else out


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
    radix: int = 11,
    kernel: str | None = None,
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
    rec = current_recorder()
    plan = current_fault_plan()
    faults_before = plan.stats() if plan is not None else None
    t0 = time.perf_counter()

    own_pool: WorkerPool | None = None
    own_out = False
    out_file = None
    if out is not None:
        if hasattr(out, "write"):
            out_file = out
        else:
            out_file = open(os.fspath(out), "wb")
            own_out = True

    work = tempfile.mkdtemp(
        prefix=WORKDIR_PREFIX,
        dir=os.fspath(workdir) if workdir is not None else None,
    )
    result = StreamResult()
    try:
        # ------------------------------------------------------ ingest +
        # run formation: sort each chunk on the pool, spill it as a run.
        run_paths: list[str] = []
        ingested = 0
        key_dtype: np.dtype | None = None
        for chunk in iter_chunks(source, chunk_keys, dtype):
            t_chunk = time.perf_counter()
            if key_dtype is None:
                key_dtype = chunk.dtype
                width = (
                    pool.n_workers
                    if pool is not None
                    else (n_workers if n_workers is not None else default_workers())
                )
                if pool is None and width > 1 and chunk_keys // 4 > 1:
                    own_pool = pool = WorkerPool(
                        width, supervise=True, phase_timeout_s=60.0
                    )
            ingested += len(chunk)
            if rec.enabled:
                rec.complete(
                    "stream.ingest",
                    cat="stream.ingest",
                    ts_us=t_chunk * 1e6,
                    dur_us=(time.perf_counter() - t_chunk) * 1e6,
                    pid=PID_STREAM,
                    args={"keys": len(chunk), "bytes": int(chunk.nbytes)},
                )
            t_run = time.perf_counter()
            sorted_chunk = _sort_chunk(chunk, pool, radix, kernel)
            path = os.path.join(work, f"repro_run_{len(run_paths):04d}.run")
            spilled = write_run(path, sorted_chunk, frame_keys=frame_keys)
            run_paths.append(path)
            result.bytes_spilled += spilled
            if rec.enabled:
                rec.complete(
                    "stream.run",
                    cat="stream.run",
                    ts_us=t_run * 1e6,
                    dur_us=(time.perf_counter() - t_run) * 1e6,
                    pid=PID_STREAM,
                    tid=len(run_paths) - 1,
                    args={"keys": len(sorted_chunk), "bytes_spilled": spilled},
                )
        if key_dtype is None:
            key_dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.int64)
        result.runs = len(run_paths)
        result.dtype = key_dtype.str

        # Independent run-side count: what the sealed footers say landed
        # on disk (not what we think we wrote).
        in_runs = sum(run_total_keys(p) for p in run_paths)

        # --------------------------------------------------- merge passes
        paths, passes, m_read, m_written = reduce_runs(
            run_paths,
            fan_in=fan_in,
            workdir=work,
            frame_keys=frame_keys,
            dtype=key_dtype,
            pool=pool,
        )
        result.merge_passes = passes
        result.bytes_spilled += m_written

        # ------------------------------------------------------ final pass
        t_final = time.perf_counter()
        merged = 0
        final_read = 0
        prev_last = None
        verified = True
        for block in merge_iter(paths):
            merged += len(block)
            final_read += int(block.nbytes)
            if verify and len(block):
                if np.any(block[1:] < block[:-1]) or (
                    prev_last is not None and block[0] < prev_last
                ):
                    verified = False
                    raise StreamError(
                        "merge emitted an out-of-order block "
                        f"(after {merged - len(block)} keys)"
                    )
                prev_last = block[-1]
            if out_file is not None:
                out_file.write(np.ascontiguousarray(block).tobytes())
            if on_block is not None:
                on_block(block)
        result.bytes_merge_read = m_read + final_read
        if rec.enabled:
            rec.complete(
                "stream.merge.final",
                cat="stream.merge",
                ts_us=t_final * 1e6,
                dur_us=(time.perf_counter() - t_final) * 1e6,
                pid=PID_STREAM,
                args={
                    "fan_in": len(paths),
                    "runs_in": len(paths),
                    "bytes_read": final_read,
                    "keys": merged,
                },
            )

        # ------------------------------------------------ conservation
        san = current_sanitizer()
        if san is not None:
            san.on_stream_conservation(ingested, in_runs, merged, "external_sort")
        elif not ingested == in_runs == merged:
            raise StreamError(
                f"key conservation violated: {ingested} ingested, "
                f"{in_runs} in runs, {merged} merged out"
            )
        result.n_keys = merged
        result.verified = bool(verify and verified)
        result.elapsed_s = time.perf_counter() - t0
        if plan is not None and faults_before is not None:
            result.faults = plan.stats().since(faults_before)
        return result
    finally:
        if own_pool is not None:
            own_pool.close()
        if own_out and out_file is not None:
            out_file.close()
        shutil.rmtree(work, ignore_errors=True)
