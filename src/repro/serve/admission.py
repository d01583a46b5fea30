"""Admission control and backpressure for the job server.

Every submit passes through :meth:`AdmissionController.check` before it
touches the queue.  A rejection is a *structured* answer -- an error code
plus, for backpressure, a ``retry_after_s`` hint derived from the queue
depth and an exponentially-weighted estimate of recent job durations --
so a well-behaved client backs off instead of hammering, and an
overloaded server degrades to bounded latency instead of an unbounded
queue (the paper measures one sort on an idle machine; a service must
decide what happens to sort number seventeen).

Codes (mirrored in docs/SERVE.md):

``busy``       the queue is at ``queue_depth``; retry after the hint
``too-large``  the job's buffers exceed the arena's largest slab, or its
               result would not fit one reply frame
``bad-radix``  the radix digit width would overflow a meta slab
``draining``   the server is completing in-flight work and takes no more
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..native.plan import widest_radix
from .protocol import MAX_FRAME, Refused, frame_keys

#: The shortest ``retry_after_s`` hint a rejection carries.
MIN_RETRY_AFTER_S = 0.05


@dataclass
class AdmissionStats:
    accepted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)


class AdmissionController:
    """Accept/reject verdicts plus the duration estimate behind the
    ``retry_after_s`` hint.  Thread-safe: the asyncio loop checks, the
    engine thread reports durations."""

    def __init__(
        self,
        queue_depth: int,
        max_job_bytes: int,
        meta_slab_bytes: int,
        n_workers: int,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.queue_depth = queue_depth
        self.max_job_bytes = max_job_bytes
        self.meta_slab_bytes = meta_slab_bytes
        self.n_workers = n_workers
        self.stats = AdmissionStats()
        self._lock = threading.Lock()
        self._ewma_job_s: float | None = None

    # ------------------------------------------------------------------
    def note_job_duration(self, seconds: float) -> None:
        with self._lock:
            if self._ewma_job_s is None:
                self._ewma_job_s = seconds
            else:
                self._ewma_job_s = 0.8 * self._ewma_job_s + 0.2 * seconds

    def retry_after_s(self, queue_len: int) -> float:
        """How long a rejected client should wait: roughly the time for
        half the queue ahead of it to drain."""
        with self._lock:
            est = self._ewma_job_s if self._ewma_job_s is not None else 0.05
        return max(MIN_RETRY_AFTER_S, est * max(1, queue_len) / 2.0)

    # ------------------------------------------------------------------
    def check(
        self,
        n_keys: int,
        dtype: np.dtype,
        radix: int | None,
        queue_len: int,
        draining: bool,
        max_frame: int = MAX_FRAME,
    ) -> Refused | None:
        """``None`` = admit; otherwise the structured rejection.  A job
        is at most :func:`~.protocol.frame_keys` long, so its result
        always fits one ``max_frame`` reply."""
        if draining:
            verdict = Refused("draining", "server is draining; submit elsewhere")
        elif n_keys * dtype.itemsize > self.max_job_bytes:
            verdict = Refused(
                "too-large",
                f"{n_keys} x {dtype.str} keys need "
                f"{n_keys * dtype.itemsize} bytes; the arena's data slabs "
                f"hold {self.max_job_bytes}",
            )
        elif n_keys > frame_keys(max_frame, dtype.itemsize):
            verdict = Refused(
                "too-large",
                f"{n_keys} x {dtype.str} keys would not come back in one "
                f"{max_frame}-byte frame (at most "
                f"{frame_keys(max_frame, dtype.itemsize)} keys)",
            )
        elif radix is not None and radix > widest_radix(
            self.meta_slab_bytes, self.n_workers
        ):
            verdict = Refused(
                "bad-radix",
                f"radix {radix} needs a {self.n_workers}x{1 << radix} "
                f"histogram, over the {self.meta_slab_bytes}-byte meta slab",
            )
        elif queue_len >= self.queue_depth:
            verdict = Refused(
                "busy",
                f"queue is at its {self.queue_depth}-job cap",
                retry_after_s=round(self.retry_after_s(queue_len), 4),
            )
        else:
            self.stats.accepted += 1
            return None
        rejected = self.stats.rejected
        rejected[verdict.code] = rejected.get(verdict.code, 0) + 1
        return verdict
