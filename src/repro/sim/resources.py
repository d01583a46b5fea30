"""Queued resources and channels for the DES kernel.

:class:`Resource` models mutual exclusion with FIFO queueing (e.g. a node's
hub controller or a network link).  :class:`Channel` models a bounded
message buffer -- with ``capacity=1`` it is exactly the lock-free 1-deep
per-processor-pair buffer of the paper's MPICH-derived MPI, whose occupancy
stalls explain MPI's elevated SYNC time (Section 4.2).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..faults.context import current_fault_plan, fire, recovered
from .engine import Event, SimError, Simulator


class Resource:
    """A server pool with FIFO queueing.

    Every acquire request takes a monotonically increasing ticket; grants
    must happen in ticket order (strict FIFO).  The runtime sanitizer
    (:mod:`repro.verify`) audits this ordering, slot occupancy against
    capacity, and that only held slots are released.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise SimError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[tuple[Event, int]] = deque()
        self.total_acquisitions = 0
        self._next_ticket = 0  # next request number to hand out
        self._next_grant = 0  # request number that must be granted next

    def _grant(self, ticket: int) -> None:
        self.total_acquisitions += 1
        san = self.sim.sanitizer
        if san is not None:
            san.on_grant(self, ticket)
        self._next_grant = ticket + 1

    def acquire(self) -> Event:
        """An event that triggers when a slot is granted."""
        ev = self.sim.event(f"{self.name}.acquire")
        ticket = self._next_ticket
        self._next_ticket += 1
        if self.in_use < self.capacity:
            self.in_use += 1
            self._grant(ticket)
            ev.succeed(self)
        else:
            self._waiters.append((ev, ticket))
        return ev

    def release(self) -> None:
        san = self.sim.sanitizer
        if san is not None:
            san.on_release(self)
        if self.in_use <= 0:
            raise SimError(f"release of idle resource {self.name}")
        if self._waiters:
            ev, ticket = self._waiters.popleft()
            self._grant(ticket)
            ev.succeed(self)  # slot handed over directly
        else:
            self.in_use -= 1

    def use(self, hold_time: float):
        """A generator usable as ``yield from resource.use(t)``: acquire,
        hold for ``hold_time``, release."""
        yield self.acquire()
        try:
            yield self.sim.timeout(hold_time)
        finally:
            self.release()


class Channel:
    """A bounded FIFO message buffer between two parties."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise SimError("channel capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._getters: deque[Event] = deque()
        self.messages_passed = 0

    def put(self, item: Any) -> Event:
        """An event that triggers when the item has been deposited.

        When an ambient fault plan (:mod:`repro.faults`) fires the
        ``channel.delay`` / ``channel.drop`` site for this message, the
        deposit is deferred by the plan's extra virtual latency (a drop
        modeling the original send lost and a retransmission paying the
        longer retransmit delay).  Either way the message is eventually
        delivered in order relative to later puts on this channel only
        after its delay -- the sender simply observes a slower deposit,
        which the surrounding SPMD accounting books as wait time.
        """
        san = self.sim.sanitizer
        if san is not None:
            san.on_channel(self)
        ev = self.sim.event(f"{self.name}.put")
        plan = current_fault_plan()
        site = None
        if plan is not None:
            now_us = (self.sim.trace_offset_ns + self.sim.now) / 1e3
            for site, extra_ns in (
                ("channel.drop", plan.drop_retransmit_ns),
                ("channel.delay", plan.channel_delay_ns),
            ):
                args = {"channel": self.name, "extra_ns": extra_ns}
                if fire(site, ts_us=now_us, args=args):
                    break
            else:
                site = None
        if site is None:
            self._deposit(ev, item)
            return ev
        if san is not None:
            san.on_recoverable(
                site,
                f"channel {self.name!r}: message deferred {extra_ns:g}ns",
            )

        def _deliver(_ignored: Any = None, _site: str = site) -> None:
            self._deposit(ev, item)
            recovered(_site, ts_us=(self.sim.trace_offset_ns + self.sim.now) / 1e3)

        if extra_ns > 0:
            self.sim.timeout(extra_ns).add_callback(_deliver)
        else:  # no extra latency: deposited at once, as with no fault
            _deliver()
        return ev

    def _deposit(self, ev: Event, item: Any) -> None:
        """Land ``item`` in the buffer (or a waiting getter); succeeds
        ``ev`` once the deposit completes."""
        if self._getters:
            getter = self._getters.popleft()
            self.messages_passed += 1
            getter.succeed(item)
            ev.succeed(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))

    def get(self) -> Event:
        """An event that triggers with the next item."""
        san = self.sim.sanitizer
        if san is not None:
            san.on_channel(self)
        ev = self.sim.event(f"{self.name}.get")
        if self._items:
            item = self._items.popleft()
            self.messages_passed += 1
            ev.succeed(item)
            if self._putters:
                put_ev, pending = self._putters.popleft()
                self._items.append(pending)
                put_ev.succeed(None)
        else:
            self._getters.append(ev)
        return ev

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def blocked_senders(self) -> int:
        return len(self._putters)
