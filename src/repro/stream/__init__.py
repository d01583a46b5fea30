"""Out-of-core sorting: chunked ingest, spill runs, k-way merge.

The paper's algorithms (and the native pool) assume the key array fits
the shared-memory arena; this subsystem opens the workload class beyond
it.  :func:`external_sort` sorts streams of any size in bounded memory
-- chunks are sorted as the native planner says (one ``np.sort``, or the
supervised :class:`~repro.native.pool.WorkerPool` where this host's
model prices it cheaper), spilled as framed, checksummed run files, and
k-way merged (multi-pass under a fan-in cap, intermediate passes as
supervised pool phases).  See ``docs/STREAM.md``.
"""

from .external import (
    DEFAULT_CHUNK_KEYS,
    StreamResult,
    WORKDIR_PREFIX,
    external_sort,
)
from .ingest import iter_chunks
from .merge import DEFAULT_FAN_IN, merge_iter, merge_to_run, reduce_runs
from .runfile import (
    DEFAULT_FRAME_KEYS,
    RunCorrupt,
    RunReader,
    RunTruncated,
    RunWriter,
    StreamError,
    run_total_keys,
    write_run,
)

__all__ = [
    "DEFAULT_CHUNK_KEYS",
    "DEFAULT_FAN_IN",
    "DEFAULT_FRAME_KEYS",
    "RunCorrupt",
    "RunReader",
    "RunTruncated",
    "RunWriter",
    "StreamError",
    "StreamResult",
    "WORKDIR_PREFIX",
    "external_sort",
    "iter_chunks",
    "merge_iter",
    "merge_to_run",
    "reduce_runs",
    "run_total_keys",
    "write_run",
]
