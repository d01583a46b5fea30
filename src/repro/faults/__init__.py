"""Deterministic fault injection and the resilience machinery it proves.

The paper's sorts are bulk-synchronous: one dead or slow worker stalls
every barrier.  This package supplies the missing failure story:

- :class:`FaultPlan` -- a seeded, fully deterministic fault schedule
  (rate knobs per named site, scripted schedules for regression tests),
  installed ambiently with :func:`use_fault_plan`;
- instrumented fault *sites* across the runtime: worker crash/hang/
  slowdown in :mod:`repro.native.pool`, shared-memory create/attach
  failures in :mod:`repro.native.shm`, cache corruption and I/O errors
  in :mod:`repro.core.gridcache`, message delay/drop in
  :mod:`repro.sim.resources`, spill write/read faults in
  :mod:`repro.stream.runfile`;
- the recovery machinery those sites exercise: supervised pool phases
  (timeout, bounded retry, dead-worker replacement, graceful shrink),
  allocation and spill retry (one ``retry``), degrade-to-recompute,
  late retransmit;
- the **chaos harness** (:func:`run_chaos`, exposed as
  ``python -m repro chaos``) -- a seeded fault matrix asserting every
  sort still equals ``np.sort`` with nonzero recovery counters.

Every site probes through :mod:`repro.faults.context`'s ``fire`` and
notes what it absorbed with its ``recovered``, so every injected fault
is a ``fault.<site>`` instant and every recovery a
``fault.<site>.recovered`` instant on the ``PID_FAULTS`` trace track,
and both are counted in ``SortResult.faults`` (``fault_window``).
The site catalogue lives in ``docs/FAULTS.md``.
"""

from .context import current_fault_plan, use_fault_plan
from .plan import (
    CACHE_SITES,
    CHANNEL_SITES,
    POOL_SITES,
    SHM_SITES,
    SITES,
    SPILL_SITES,
    FaultEvent,
    FaultPlan,
    FaultStats,
    pool_directives,
)

__all__ = [
    "CACHE_SITES",
    "CHANNEL_SITES",
    "POOL_SITES",
    "SHM_SITES",
    "SITES",
    "SPILL_SITES",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
    "current_fault_plan",
    "pool_directives",
    "run_chaos",
    "use_fault_plan",
]


def __getattr__(name: str):
    # The chaos harness imports the backends; load it lazily to keep the
    # fault-site modules (pool/shm/gridcache/resources) cycle-free.
    if name == "run_chaos":
        from .chaos import run_chaos

        return run_chaos
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
