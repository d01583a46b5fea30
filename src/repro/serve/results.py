"""Bounded results store with per-job lifecycle.

One :class:`JobRecord` tracks a job from submit to pickup:
``queued -> running -> done | failed | expired`` (plus ``evicted`` once
the bounded store reclaims its bytes).  The queue is the server's engine
lane, so ``running`` (and ``started_s``) is stamped on the engine thread
when the lane reaches the job, and the terminal status on the asyncio
loop; every connection handler reads, so mutation is lock-guarded.  A
blocking ``wait`` awaits the job's task in the server, not the store.

Capacity is bounded two ways -- record count and stored result bytes --
and eviction prefers delivered results, then the oldest finished ones;
queued/running records are never evicted (they are the server's ground
truth for in-flight work).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

#: Terminal statuses.
TERMINAL = ("done", "failed", "expired")


@dataclass
class JobRecord:
    job_id: str
    #: The algorithm the submit named, or ``None`` (planned).
    algorithm: str | None
    n_keys: int
    dtype: str
    radix: int | None
    deadline_s: float | None
    submitted_s: float = field(default_factory=time.perf_counter)
    status: str = "queued"
    started_s: float | None = None
    finished_s: float | None = None
    error: str | None = None
    message: str | None = None
    sorted_bytes: bytes | None = None
    #: The plan that ran: ``{"algorithm", "width", "radix"}`` once done.
    plan: dict[str, Any] | None = None
    faults: dict[str, Any] | None = None
    shm_creates: int = 0
    shm_attaches: int = 0
    delivered: bool = False

    @property
    def queue_wait_s(self) -> float | None:
        if self.started_s is None:
            return None
        return self.started_s - self.submitted_s

    @property
    def wall_s(self) -> float | None:
        if self.finished_s is None or self.started_s is None:
            return None
        return self.finished_s - self.started_s

    def expired_at(self, now: float) -> bool:
        return (
            self.deadline_s is not None
            and now - self.submitted_s > self.deadline_s
        )

    def public(self) -> dict[str, Any]:
        """The status dict shipped to clients (no payload bytes)."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "algorithm": self.algorithm,
            "plan": self.plan,
            "n_keys": self.n_keys,
            "dtype": self.dtype,
            "error": self.error,
            "message": self.message,
            "queue_wait_s": self.queue_wait_s,
            "wall_s": self.wall_s,
            "faults": self.faults,
            "shm_creates": self.shm_creates,
            "shm_attaches": self.shm_attaches,
        }


class ResultStore:
    """Bounded job-record store (see module docstring)."""

    def __init__(self, max_records: int = 256, max_result_bytes: int = 256 << 20):
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.max_records = max_records
        self.max_result_bytes = max_result_bytes
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}  # insertion-ordered
        self._seq = 0
        self.evicted = 0
        #: Result bytes the records hold: kept by ``set_done`` and eviction,
        #: never recounted under the lock.
        self.stored_bytes = 0

    # ------------------------------------------------------------------
    def new_job(self, **fields) -> JobRecord:
        with self._lock:
            self._seq += 1
            rec = JobRecord(job_id=f"j{self._seq:06d}", **fields)
            self._records[rec.job_id] = rec
            self._evict_locked()
            return rec

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    # ------------------------------------------------------------------
    def _finish_locked(self, rec: JobRecord, status: str) -> None:
        rec.status = status
        rec.finished_s = time.perf_counter()

    def mark_running(self, job_id: str) -> None:
        with self._lock:
            rec = self._records[job_id]
            rec.status = "running"
            rec.started_s = time.perf_counter()

    def set_done(
        self,
        job_id: str,
        sorted_bytes: bytes,
        *,
        plan: dict | None = None,
        faults: dict | None = None,
        shm_creates: int = 0,
        shm_attaches: int = 0,
    ) -> None:
        with self._lock:
            rec = self._records[job_id]
            self.stored_bytes += len(sorted_bytes) - len(rec.sorted_bytes or b"")
            rec.sorted_bytes = sorted_bytes
            rec.plan = plan
            rec.faults = faults
            rec.shm_creates = shm_creates
            rec.shm_attaches = shm_attaches
            self._finish_locked(rec, "done")
            self._evict_locked()

    def set_failed(self, job_id: str, error: str, message: str) -> None:
        with self._lock:
            rec = self._records[job_id]
            rec.error = error
            rec.message = message
            self._finish_locked(rec, "failed")

    def set_expired(self, job_id: str) -> None:
        with self._lock:
            rec = self._records[job_id]
            rec.error = "deadline"
            rec.message = (
                f"job exceeded its {rec.deadline_s:g}s deadline before a "
                "worker picked it up"
            )
            self._finish_locked(rec, "expired")

    def mark_delivered(self, job_id: str) -> None:
        with self._lock:
            rec = self._records.get(job_id)
            if rec is not None:
                rec.delivered = True

    # ------------------------------------------------------------------
    def _evict_locked(self) -> None:
        """Reclaim delivered-first, oldest-first among finished records."""

        def evictable(prefer_delivered: bool):
            for job_id, rec in self._records.items():
                if rec.status in TERMINAL and (rec.delivered or not prefer_delivered):
                    yield job_id

        def over_budget() -> bool:
            return len(self._records) > self.max_records or (
                self.stored_bytes > self.max_result_bytes
            )

        for prefer_delivered in (True, False):
            while over_budget():
                victim = next(iter(evictable(prefer_delivered)), None)
                if victim is None:
                    break
                rec = self._records.pop(victim)
                self.stored_bytes -= len(rec.sorted_bytes or b"")
                rec.sorted_bytes = None
                self.evicted += 1

    def stats(self) -> dict[str, Any]:
        with self._lock:
            by_status: dict[str, int] = {}
            for rec in self._records.values():
                by_status[rec.status] = by_status.get(rec.status, 0) + 1
            return {
                "records": len(self._records),
                "evicted": self.evicted,
                "by_status": by_status,
                "stored_bytes": self.stored_bytes,
            }
