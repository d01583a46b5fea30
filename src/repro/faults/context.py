"""The ambient fault-plan slot and the one way runtime code touches it.

Mirrors :mod:`repro.trace.recorder` and :mod:`repro.verify.context`: the
instrumented fault sites look the current plan up instead of having one
threaded through every call signature.  The default is ``None``, so
fault injection costs one ``None`` check when off.

Runtime code never probes the plan or notes a recovery by hand.  It
calls :func:`fire` at a fault site (which also puts a ``fault.<site>``
instant on the ``PID_FAULTS`` trace track), :func:`recovered` where the
runtime absorbed a fault (``fault.<site>.recovered``), :func:`retry`
for the one bounded retry-with-backoff (:data:`RETRIES`,
:data:`BACKOFF_S`), and :func:`fault_window` for the faults of one run.

Unlike the trace recorder's slot, this one is **owner-pid guarded**: the
native backend forks worker processes that inherit the parent's module
globals, but all fault decisions must be drawn in the parent (a single
deterministic probe stream; worker-side faults are shipped to workers as
explicit per-task directives).  :func:`current_fault_plan` therefore
returns ``None`` in any process other than the one that installed the
plan.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar

from ..trace import PID_FAULTS, current_recorder, wall_instant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import FaultPlan, FaultStats

#: The one bounded-retry policy (:func:`retry`): attempts after the
#: first, and the first backoff, doubled per retry.
RETRIES = 2
BACKOFF_S = 0.005

_T = TypeVar("_T")

_current: "FaultPlan | None" = None
_owner_pid: int | None = None


def current_fault_plan() -> "FaultPlan | None":
    """The ambiently installed plan, or ``None`` when injection is off
    (including in forked children of the installing process)."""
    if _current is None or os.getpid() != _owner_pid:
        return None
    return _current


@contextmanager
def use_fault_plan(plan: "FaultPlan | None") -> Iterator["FaultPlan | None"]:
    """Install ``plan`` as the ambient fault plan for the duration."""
    global _current, _owner_pid
    previous, previous_pid = _current, _owner_pid
    _current = plan
    _owner_pid = os.getpid() if plan is not None else None
    try:
        yield plan
    finally:
        _current, _owner_pid = previous, previous_pid


def _mark(
    name: str, cat: str, ts_us: float | None, args: dict[str, Any] | None
) -> None:
    if ts_us is None:
        wall_instant(name, cat, pid=PID_FAULTS, args=args)
        return
    rec = current_recorder()
    if rec.enabled:
        rec.instant(name, cat, ts_us, pid=PID_FAULTS, args=args)


def fire(
    site: str, *, ts_us: float | None = None, args: dict[str, Any] | None = None
) -> bool:
    """Probe ``site`` on the ambient plan; a fired fault is a
    ``fault.<site>`` instant (``fault.inject``) at ``ts_us`` -- a
    simulated site's virtual time -- or now on the wall clock."""
    plan = current_fault_plan()
    if plan is None or not plan.should(site):
        return False
    _mark(f"fault.{site}", "fault.inject", ts_us, args)
    return True


def recovered(site: str, n: int = 1, *, ts_us: float | None = None) -> None:
    """Note that the runtime absorbed ``n`` faults at ``site``: counted on
    the ambient plan, and a ``fault.<site>.recovered`` instant
    (``fault.recovery``) at ``ts_us`` or now."""
    plan = current_fault_plan()
    if plan is not None:
        plan.note_recovered(site, n)
    _mark(f"fault.{site}.recovered", "fault.recovery", ts_us, {"n": n})


def retry(attempt: Callable[[], _T], site: str, errno: int | None = None) -> _T:
    """``attempt()``, retried up to :data:`RETRIES` times on an
    ``OSError`` (only one with ``errno``, when given) after an
    exponential backoff from :data:`BACKOFF_S`; the failures a later
    attempt absorbed are :func:`recovered` at ``site``.  The last
    failure propagates."""
    failures = 0
    while True:
        try:
            result = attempt()
        except OSError as err:
            if failures == RETRIES or (errno is not None and err.errno != errno):
                raise
            time.sleep(BACKOFF_S * 2.0**failures)
            failures += 1
            continue
        if failures:
            recovered(site, failures)
        return result


def fault_window() -> Callable[[], "FaultStats | None"]:
    """Open a window on the ambient plan: the returned call gives the
    faults injected and recovered since, or ``None`` with no plan."""
    plan = current_fault_plan()
    if plan is None:
        return lambda: None
    before = plan.stats()
    return lambda: plan.stats().since(before)
