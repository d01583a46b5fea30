"""Trace recorders and the ambient current-recorder mechanism.

The default recorder is a null object whose methods are no-ops and whose
``enabled`` flag is ``False``; instrumented code guards every emission
with ``if rec.enabled`` so that tracing costs one attribute check when
off.  Host-side code measures ``time.perf_counter()`` seconds and emits
through :func:`wall_span` / :func:`wall_instant`, which hold that guard
and the conversion to trace microseconds (a hot call site whose
arguments cost something to build still checks ``enabled`` first); only
the simulator's virtual-time sites call the recorder directly.  High-volume
instrumentation (per-message DES events, per-process spans) additionally
checks ``rec.verbose`` so that default traces stay at phase granularity.

Recorders are installed ambiently rather than threaded through every call
signature::

    rec = MemoryRecorder()
    with use_recorder(rec):
        result = backend.run(job)
    write_chrome_trace("trace.json", rec.events)

The ambient slot is intentionally process-global (not a contextvar): the
native backend forks worker processes, and only the parent records.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from .events import (
    PH_COUNTER,
    PH_INSTANT,
    PID_SIM,
    TraceEvent,
)


class TraceRecorder:
    """Base recorder; also the null recorder (drops everything)."""

    #: Instrumented code skips emission entirely when this is False.
    enabled: bool = False
    #: Gates high-volume events (per-message sends, DES process spans).
    verbose: bool = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - no-op
        pass

    # ------------------------------------------------------------------
    # Convenience constructors used by the instrumentation sites
    # ------------------------------------------------------------------
    def complete(
        self,
        name: str,
        cat: str,
        ts_us: float,
        dur_us: float,
        pid: int = PID_SIM,
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.emit(TraceEvent(name, cat, ts_us, dur_us, pid=pid, tid=tid, args=args))

    def instant(
        self,
        name: str,
        cat: str,
        ts_us: float,
        pid: int = PID_SIM,
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.emit(
            TraceEvent(name, cat, ts_us, ph=PH_INSTANT, pid=pid, tid=tid, args=args)
        )

    def counter(
        self,
        name: str,
        cat: str,
        ts_us: float,
        values: dict[str, float],
        pid: int = PID_SIM,
        tid: int = 0,
    ) -> None:
        self.emit(
            TraceEvent(name, cat, ts_us, ph=PH_COUNTER, pid=pid, tid=tid, args=values)
        )


class MemoryRecorder(TraceRecorder):
    """Collects events in memory, up to a safety cap.

    Beyond ``max_events`` further events are counted but dropped
    (``n_dropped``), so a runaway trace degrades instead of exhausting
    memory; the Chrome exporter reports the drop count in metadata.
    """

    enabled = True

    def __init__(self, verbose: bool = False, max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.verbose = verbose
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.n_dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.n_dropped += 1
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.n_dropped = 0


#: The shared do-nothing instance installed by default.
NULL_RECORDER = TraceRecorder()

_current: TraceRecorder = NULL_RECORDER


def current_recorder() -> TraceRecorder:
    """The ambiently installed recorder (the null recorder by default)."""
    return _current


def wall_span(
    name: str,
    cat: str,
    t0: float,
    t1: float | None = None,
    *,
    pid: int,
    tid: int = 0,
    args: dict[str, Any] | None = None,
) -> None:
    """Emit a span from ``time.perf_counter()`` seconds ``t0`` to ``t1``
    (default: now) on the ambient recorder; nothing when it is off."""
    rec = _current
    if rec.enabled:
        end = time.perf_counter() if t1 is None else t1
        rec.complete(name, cat, t0 * 1e6, (end - t0) * 1e6, pid=pid, tid=tid, args=args)


def wall_instant(
    name: str,
    cat: str,
    *,
    pid: int,
    tid: int = 0,
    args: dict[str, Any] | None = None,
    recorder: TraceRecorder | None = None,
) -> None:
    """Emit an instant at ``time.perf_counter()`` now on ``recorder``
    (default: the ambient one); nothing when it is off."""
    rec = _current if recorder is None else recorder
    if rec.enabled:
        rec.instant(name, cat, time.perf_counter() * 1e6, pid=pid, tid=tid, args=args)


@contextmanager
def use_recorder(recorder: TraceRecorder | None) -> Iterator[TraceRecorder]:
    """Install ``recorder`` as the ambient recorder for the duration.

    ``None`` keeps whatever is currently installed (so call sites can
    accept an optional recorder without branching).
    """
    global _current
    if recorder is None:
        yield _current
        return
    previous = _current
    _current = recorder
    try:
        yield recorder
    finally:
        _current = previous
