"""A tiny in-memory span recorder owned by the benchmark.

A span is ``(id, name, start, end, parent, op, args)``: ``parent`` is the
span that caused it, ``op`` an identifier shared by every span of one
benchmark operation.  Spans are recorded from *outside* the program --
around calls into each layer's public functions, or synthesised from the
timings those functions already return (``pool.timings``) -- kept in
memory, and written out once when the workload ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (children may overlap each other: the two tasks of
a pool phase run in parallel, so coverage is the union of the child
intervals, clipped to the parent).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: Any
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; thread-safe (the serve workloads run two clients)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        op: Any = None,
        **args: Any,
    ) -> int:
        """Record a finished span (times are ``time.perf_counter()``
        seconds, possibly stamped by another process); returns its id."""
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, op, args)
            self.spans.append(span)
            return span.id

    @contextmanager
    def span(self, name: str, *, op: Any = None, **args: Any) -> Iterator[Span]:
        """Time the enclosed block; nests under the innermost open span of
        this thread and inherits its ``op`` unless one is given."""
        if not hasattr(self._stack, "open"):
            self._stack.open = []
        stack: list[Span] = self._stack.open
        outer = stack[-1] if stack else None
        with self._lock:
            span = Span(
                len(self.spans), name, 0.0, 0.0,
                outer.id if outer is not None else None,
                op if op is not None else (outer.op if outer is not None else None),
                args,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Every span's duration minus the union of the child intervals
        inside it, keyed by span id."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(kids.get(span.id, ()), key=lambda s: s.start):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span.id] = span.duration - covered
        return out

    def dump(self, path) -> None:
        """Write every span, with its self time, as one JSON document."""
        self_s = self.self_times()
        doc = {
            "clock": "time.perf_counter seconds (CLOCK_MONOTONIC, host-wide)",
            "spans": [{**asdict(s), "self_s": self_s[s.id]} for s in self.spans],
        }
        with open(path, "w") as f:
            json.dump(doc, f)
