"""Per-layer probes shared by several workloads.

Each probe times direct calls into one layer's public functions on the
workload's own keys and returns ``{metric name: value}``.  Nothing is
instrumented inside ``src/``: phase ledgers are computed from the
``PhaseTiming`` records a ``collect_timings`` pool already returns.
"""

from __future__ import annotations

import time

import numpy as np

from harness import N_WORKERS, median, median_time
from repro.native import (
    SharedArray,
    WorkerPool,
    parallel_radix_sort,
    parallel_sample_sort,
    resolve_kernel,
)
from repro.native import shm

#: The digit width ``parallel_radix_sort`` defaults to.
RADIX = 11

SORTS = {"radix": parallel_radix_sort, "sample": parallel_sample_sort}


def noop(_task) -> None:
    """The empty pool task behind the phase-floor probes and set-up."""


def engine_style_pool() -> WorkerPool:
    """A pool built the way ``SortEngine`` builds its own."""
    return WorkerPool(
        N_WORKERS, collect_timings=True, supervise=True, phase_timeout_s=10.0,
        initializer=shm.enable_attach_cache,
    )


# ----------------------------------------------------------------------
def host_memcpy(keys: np.ndarray) -> dict[str, float]:
    """``np.copyto`` bandwidth at the workload's array size (payload bytes
    per second: each byte is read once and written once)."""
    dst = np.empty_like(keys)
    secs = median_time(lambda: np.copyto(dst, keys), 15)
    return {"host.memcpy_gb_s": keys.nbytes / secs / 1e9}


def native_kernels(keys: np.ndarray, memcpy_gb_s: float) -> dict[str, float]:
    """The three hot-path primitives of the resolved kernel, on the whole
    key array in one call (what one worker does to its slice)."""
    kern = resolve_kernel()
    n = len(keys)
    mask = (1 << RADIX) - 1
    minmax = median_time(lambda: kern.minmax(keys), 5)
    hist = median_time(lambda: kern.histogram(keys, 0, mask), 5)
    counts = kern.histogram(keys, 0, mask)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    dst = np.empty_like(keys)
    scatter = median_time(lambda: kern.scatter(keys, dst, starts.copy(), 0, mask), 3)
    # Computed bytes: every key is read once and written once (16 B/key).
    memcpy_floor = 16 * n / (memcpy_gb_s * 1e9)
    return {
        "native.kernels.minmax_ns_per_key": minmax / n * 1e9,
        "native.kernels.histogram_ns_per_key": hist / n * 1e9,
        "native.kernels.scatter_ns_per_key": scatter / n * 1e9,
        "native.kernels.scatter_over_memcpy": scatter / memcpy_floor,
    }


def _phase_floor_us(pool: WorkerPool, reps: int) -> float:
    tasks = range(N_WORKERS)
    pool.run_phase(noop, tasks)
    return median_time(lambda: pool.run_phase(noop, tasks), reps) * 1e6


def native_pool(reps: int) -> dict[str, float]:
    """Start-up and the no-op phase floor, plain and as the engine runs."""
    startups, floors = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        with WorkerPool(N_WORKERS) as pool:
            pool.run_phase(noop, range(N_WORKERS))
            startups.append(time.perf_counter() - t0)
            floors.append(_phase_floor_us(pool, reps))
    with engine_style_pool() as pool:
        supervised = _phase_floor_us(pool, reps)
    return {
        "native.pool.startup_ms": median(startups) * 1e3,
        "native.pool.phase_floor_us": median(floors),
        "native.pool.phase_floor_supervised_us": supervised,
    }


def native_shm(keys: np.ndarray, algorithm: str, reps: int) -> dict[str, float]:
    """One key-sized segment's life (create, first-touch copy-in, unlink)
    and the segment traffic of one sort of this size."""
    copy_in, alloc_release = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        sa = SharedArray(keys.shape, keys.dtype)
        t1 = time.perf_counter()
        sa.array[...] = keys
        t2 = time.perf_counter()
        sa.close()
        t3 = time.perf_counter()
        copy_in.append(t2 - t1)
        alloc_release.append((t1 - t0) + (t3 - t2))
    with WorkerPool(N_WORKERS, collect_timings=True) as pool:
        creates_before = shm.create_count()
        SORTS[algorithm](keys, pool=pool)
        creates = shm.create_count() - creates_before
        attaches = sum(sum(t.attaches) for t in pool.timings)
    return {
        "native.shm.copy_in_ms": median(copy_in) * 1e3,
        "native.shm.alloc_release_ms": median(alloc_release) * 1e3,
        "native.shm.creates_per_sort": creates,
        "native.shm.attaches_per_sort": attaches,
    }


# ----------------------------------------------------------------------
def phase_ledger(wall_s: float, timings) -> dict[str, float]:
    """Split one sort's wall clock by the pool's own phase records.

    ``task`` is the sum over phases of the longest task span, ``sync``
    the rest of each phase (dispatch, barrier, skew), ``serial`` what the
    parent did between phases: ``task + sync + serial == wall``."""
    task = sync = 0.0
    imbalance = 1.0
    for t in timings:
        spans = [end - begin for begin, end in t.tasks]
        longest = max(spans)
        task += longest
        sync += t.elapsed_s - longest
        mean = sum(spans) / len(spans)
        if mean > 0:
            imbalance = max(imbalance, longest / mean)
    return {
        "wall_ms": wall_s * 1e3,
        "phases": len(timings),
        "task_ms": task * 1e3,
        "sync_ms": sync * 1e3,
        "serial_ms": (wall_s - task - sync) * 1e3,
        "task_imbalance": imbalance,
    }


def native_sort_ledgers(keys: np.ndarray, reps: int) -> dict[str, float]:
    """``native.radix.*`` and ``native.sample.*``: the ledger of the sort
    whose wall clock is the median of ``reps`` timed-pool sorts."""
    out = {}
    with WorkerPool(N_WORKERS, collect_timings=True) as pool:
        for name, sort in SORTS.items():
            sort(keys, pool=pool)  # warm the workers' page tables
            runs = []
            for _ in range(reps):
                pool.timings.clear()
                t0 = time.perf_counter()
                sort(keys, pool=pool)
                runs.append((time.perf_counter() - t0, list(pool.timings)))
            runs.sort(key=lambda r: r[0])
            wall, timings = runs[len(runs) // 2]
            for key, value in phase_ledger(wall, timings).items():
                out[f"native.{name}.{key}"] = value
    return out
