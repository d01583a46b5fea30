"""Structured event tracing shared by every execution substrate.

One trace vocabulary (:class:`TraceEvent`), one ambient recorder slot
(:func:`use_recorder` / :func:`current_recorder`), and one exporter
(:func:`write_chrome_trace`) cover the discrete-event simulator, the
simulated SPMD phase runtime, the programming-model message layers, and
the native multiprocessing backend.  The default recorder is a null
object; tracing costs one attribute check when off.
"""

from .events import (
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    PID_FAULTS,
    PID_GRID,
    PID_NATIVE,
    PID_SERVE,
    PID_SIM,
    PID_STREAM,
    TraceEvent,
)
from .recorder import (
    NULL_RECORDER,
    MemoryRecorder,
    TraceRecorder,
    current_recorder,
    use_recorder,
    wall_instant,
    wall_span,
)
from .chrome import to_chrome_trace, write_chrome_trace

__all__ = [
    "MemoryRecorder",
    "NULL_RECORDER",
    "PH_COMPLETE",
    "PH_COUNTER",
    "PH_INSTANT",
    "PID_FAULTS",
    "PID_GRID",
    "PID_NATIVE",
    "PID_SERVE",
    "PID_SIM",
    "PID_STREAM",
    "TraceEvent",
    "TraceRecorder",
    "current_recorder",
    "to_chrome_trace",
    "use_recorder",
    "wall_instant",
    "wall_span",
    "write_chrome_trace",
]
