"""Structured trace events.

One event type serves every layer of the runtime: simulated phases (whose
timestamps live in virtual nanoseconds, exported as microseconds), DES
processes and messages, and the native backend's wall-clock phase spans.
The field names deliberately mirror the Chrome trace format
(``chrome://tracing`` / Perfetto) so exporting is a direct mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: Track-group ("pid" in Chrome traces) for events measured in simulated
#: virtual time on the modeled DSM machine.
PID_SIM = 0
#: Track-group for events measured in host wall-clock time by the native
#: multiprocessing backend.
PID_NATIVE = 1
#: Track-group for the experiment grid runner's per-cell progress spans
#: (host wall-clock time; one span per grid cell, serial or parallel).
PID_GRID = 2
#: Track-group for injected faults and the recoveries that absorb them
#: (``repro.faults``): one ``fault.<site>`` instant per fired probe and
#: one ``fault.<site>.recovered`` instant per recovery, plus the pool's
#: ``fault.pool.{retry,shrink}`` instants and ``fault.pool.recovered:``
#: phase spans.  Timestamps are host wall-clock, except virtual time for
#: the simulated channel sites.
PID_FAULTS = 3
#: Track-group for the sort job server (``repro.serve``): one span per
#: accepted job (queue wait + execution, with shared-memory create/attach
#: counts in ``args``) plus admission-rejection instants.  Host wall-clock.
PID_SERVE = 4
#: Track-group for the out-of-core streaming sorter (``repro.stream``):
#: ``stream.ingest`` spans per chunk (bytes read), ``stream.run`` spans
#: per chunk sort and ``stream.spill`` spans per spilled run (bytes
#: spilled), and ``stream.merge`` spans per merge pass (fan-in, runs
#: in/out, bytes read).  Host wall-clock.
PID_STREAM = 5

#: Event phases (the Chrome trace ``ph`` field).
PH_COMPLETE = "X"  # a span: ts + dur
PH_INSTANT = "i"  # a point in time
PH_COUNTER = "C"  # a sampled counter value


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped record.

    ``ts_us``/``dur_us`` are microseconds: virtual microseconds for
    ``pid == PID_SIM`` tracks, host wall-clock microseconds for
    ``pid == PID_NATIVE`` tracks.  ``tid`` identifies the (simulated
    processor | native worker) within the track group.
    """

    name: str
    cat: str
    ts_us: float
    dur_us: float = 0.0
    ph: str = PH_COMPLETE
    pid: int = PID_SIM
    tid: int = 0
    args: Mapping[str, Any] | None = field(default=None, compare=False)
