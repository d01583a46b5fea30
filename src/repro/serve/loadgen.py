"""Load/latency harness for the job server.

Spins up N client threads, each with its own connection and its own
seeded RNG, submitting sort jobs of random sizes and algorithms (pinned
radix, pinned sample, or left to the server's planner) for a fixed
duration.  Every completed result is verified against ``np.sort``
of the submitted keys -- the harness is a correctness check that happens
to measure latency, not the other way round.  Backpressure rejections
are first-class: a ``busy`` reply makes the client sleep the server's
``retry_after_s`` hint and resubmit, and the rejection is counted, not
treated as an error.

The metrics dict holds jobs/sec, p50/p99 latency (submit-to-result wall
time seen by the client), the rejection tally, and the server's
steady-state shared-memory counters -- the pair of numbers that must be
zero for the arena to be doing its job (:func:`loadgen_ok` is the gate).
Wall-clock trends are tracked by the ledger benchmark's ``serve_*``
workloads (``benchmarks/ledger``), not by this harness.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .client import ServeClient, ServeError, ServeRejected

#: Job sizes drawn by the generator (kept under the default 8 MiB data
#: slab: 1M int64 keys = 8 MB exactly, so the ceiling is 768k).
SIZE_CHOICES = (1_000, 10_000, 50_000, 200_000, 768_000)


@dataclass
class ClientTally:
    """One worker thread's counters and latency samples."""

    completed: int = 0
    incorrect: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)

    def merge(self, other: "ClientTally") -> None:
        self.completed += other.completed
        self.incorrect += other.incorrect
        for code, n in other.rejected.items():
            self.rejected[code] = self.rejected.get(code, 0) + n
        self.errors.extend(other.errors)
        self.latencies_s.extend(other.latencies_s)


def _client_loop(
    host: str,
    port: int,
    seed: int,
    duration_s: float,
    tally: ClientTally,
    stop: threading.Event,
) -> None:
    rng = np.random.default_rng(seed)
    deadline = time.perf_counter() + duration_s
    try:
        with ServeClient(host, port) as client:
            while time.perf_counter() < deadline and not stop.is_set():
                n = int(rng.choice(SIZE_CHOICES))
                # A third of the jobs name no algorithm: planned traffic.
                algorithm = (None, "radix", "sample")[int(rng.integers(3))]
                keys = rng.integers(0, 1 << 48, size=n, dtype=np.int64)
                t0 = time.perf_counter()
                try:
                    out = client.sort(keys, algorithm)
                except ServeRejected as rej:
                    tally.rejected[rej.code] = tally.rejected.get(rej.code, 0) + 1
                    time.sleep(min(rej.retry_after_s or 0.05, 1.0))
                    continue
                except ServeError as err:
                    tally.errors.append(f"{algorithm}/{n}: {err}")
                    continue
                tally.latencies_s.append(time.perf_counter() - t0)
                tally.completed += 1
                if not np.array_equal(out, np.sort(keys)):
                    tally.incorrect += 1
                    tally.errors.append(
                        f"{algorithm}/{n}: result differs from np.sort"
                    )
    except Exception as err:  # connection-level failure kills the thread
        tally.errors.append(f"client died: {type(err).__name__}: {err}")


def run_loadgen(
    host: str,
    port: int,
    *,
    clients: int = 4,
    duration_s: float = 10.0,
    seed: int = 0,
) -> dict[str, Any]:
    """Drive the server; returns the metrics dict (see module docstring)."""
    if clients < 1:
        raise ValueError("need at least one client")
    tallies = [ClientTally() for _ in range(clients)]
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(host, port, seed * 10_000 + i, duration_s, tallies[i], stop),
            name=f"loadgen-{i}",
        )
        for i in range(clients)
    ]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=duration_s + 120.0)
    stop.set()
    wall_s = time.perf_counter() - t_start

    total = ClientTally()
    for t in tallies:
        total.merge(t)
    lat = np.asarray(total.latencies_s, dtype=np.float64)
    percentile = (
        (lambda q: float(np.percentile(lat, q))) if lat.size else (lambda q: None)
    )
    steady: dict[str, Any] = {}
    try:
        with ServeClient(host, port) as client:
            steady = client.stats().get("engine") or {}
    except OSError:
        pass
    return {
        "jobs": {
            "completed": total.completed,
            "incorrect": total.incorrect,
            "rejected": dict(sorted(total.rejected.items())),
            "errors": len(total.errors),
            "error_samples": total.errors[:10],
        },
        "throughput": {
            "wall_s": wall_s,
            "jobs_per_s": total.completed / wall_s if wall_s > 0 else 0.0,
        },
        "latency": {
            "p50_s": percentile(50),
            "p99_s": percentile(99),
            "max_s": percentile(100),
        },
        "steady_state": {
            "shm_creates": steady.get("steady_shm_creates"),
            "shm_attaches": steady.get("steady_shm_attaches"),
            "warmup_rounds": steady.get("warmup_rounds"),
        },
    }


def loadgen_ok(metrics: dict[str, Any]) -> bool:
    """The pass/fail gate the CLI and CI use."""
    jobs = metrics["jobs"]
    steady = metrics["steady_state"]
    return (
        jobs["completed"] > 0
        and jobs["incorrect"] == 0
        and jobs["errors"] == 0
        and steady["shm_creates"] == 0
        and steady["shm_attaches"] == 0
    )
