"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` decides, at named *sites* threaded through the
runtime, whether a fault fires.  Decisions come from a counter-indexed
hash of ``(seed, site, probe index)`` -- no ambient randomness -- so the
same plan replayed over the same execution injects the identical fault
schedule, and two plans with the same seed agree probe for probe.  Rate
knobs set the per-probe firing probability per site; per-site caps bound
how many faults a run can absorb; :meth:`FaultPlan.scripted` pins faults
to exact probe indices for regression tests.

The catalogue of sites (see ``docs/FAULTS.md``):

========================  ====================================================
site                      what fires there
========================  ====================================================
``pool.worker.crash``     a native pool worker dies (SIGKILL) at task start
``pool.worker.hang``      a worker sleeps past the supervised phase timeout
``pool.worker.slow``      a straggler: the worker sleeps, then runs the task
``shm.create``            ``SharedArray`` creation raises ENOSPC
``shm.attach``            a worker's ``shm.resolve`` / ``attach`` raises EACCES
``cache.corrupt``         a grid-cache read decodes as corrupt (recompute)
``cache.enospc``          a grid-cache store hits ENOSPC (store dropped)
``cache.eacces``          a grid-cache store hits EACCES (store dropped)
``channel.delay``         a simulated message is delivered late
``channel.drop``          a simulated message is dropped, then retransmitted
``spill.enospc``          a run-file frame write raises ENOSPC mid-run
``spill.corrupt``         a run-file frame read decodes as corrupt (re-read)
``spill.short_write``     a run-file frame write lands only partially
========================  ====================================================

The plan also does the bookkeeping the chaos harness asserts on:
``injected`` counts faults that fired, ``recovered`` counts faults the
runtime absorbed (noted by the recovery machinery at each site), and
``events`` records the exact schedule for replay comparison.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .context import current_fault_plan, fire

#: Every injectable site, grouped by subsystem.
POOL_SITES = ("pool.worker.crash", "pool.worker.hang", "pool.worker.slow")
SHM_SITES = ("shm.create", "shm.attach")
CACHE_SITES = ("cache.corrupt", "cache.enospc", "cache.eacces")
CHANNEL_SITES = ("channel.delay", "channel.drop")
SPILL_SITES = ("spill.enospc", "spill.corrupt", "spill.short_write")
SITES = POOL_SITES + SHM_SITES + CACHE_SITES + CHANNEL_SITES + SPILL_SITES


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: which site, at which per-site probe index."""

    site: str
    index: int


@dataclass(frozen=True)
class FaultStats:
    """Snapshot of a plan's injection/recovery bookkeeping."""

    injected: Mapping[str, int] = field(default_factory=dict)
    recovered: Mapping[str, int] = field(default_factory=dict)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def kinds(self) -> tuple[str, ...]:
        """Distinct sites that injected at least one fault."""
        return tuple(sorted(k for k, v in self.injected.items() if v))

    @property
    def all_recovered(self) -> bool:
        """Every injected fault was absorbed by the runtime."""
        return all(
            self.recovered.get(site, 0) >= n for site, n in self.injected.items()
        )

    def since(self, before: "FaultStats") -> "FaultStats":
        """The delta accumulated after the ``before`` snapshot."""
        return FaultStats(
            injected={
                k: v - before.injected.get(k, 0)
                for k, v in self.injected.items()
                if v - before.injected.get(k, 0)
            },
            recovered={
                k: v - before.recovered.get(k, 0)
                for k, v in self.recovered.items()
                if v - before.recovered.get(k, 0)
            },
        )


def _validate_sites(names: Iterable[str]) -> None:
    unknown = sorted(set(names) - set(SITES))
    if unknown:
        raise ValueError(
            f"unknown fault site(s) {unknown}; choose from {sorted(SITES)}"
        )


class FaultPlan:
    """A deterministic fault schedule (see module docstring).

    Parameters
    ----------
    seed:
        Drives every probabilistic decision; two plans with equal seed,
        rates and caps fire identically.
    rates:
        Per-site probability in ``[0, 1]`` that a probe fires.  Sites not
        named never fire.
    hang_s / slow_s:
        Durations shipped with ``pool.worker.hang`` / ``pool.worker.slow``
        directives (``hang_s`` must exceed the supervised phase timeout
        for the hang to be observed as one).
    channel_delay_ns / drop_retransmit_ns:
        Extra virtual latency a delayed / dropped-and-retransmitted
        simulated message pays before deposit.
    max_per_site:
        Cap on fired faults per site (an int for all sites or a per-site
        mapping); probes beyond the cap never fire.  Keeps a chaos run
        recoverable by construction (e.g. fewer crashes than retries).
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Mapping[str, float] | None = None,
        *,
        hang_s: float = 60.0,
        slow_s: float = 0.05,
        channel_delay_ns: float = 500.0,
        drop_retransmit_ns: float = 2_000.0,
        max_per_site: int | Mapping[str, int] | None = None,
    ):
        rates = dict(rates or {})
        _validate_sites(rates)
        for site, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {site!r} must be in [0, 1], got {rate}")
        if isinstance(max_per_site, Mapping):
            _validate_sites(max_per_site)
        self.seed = int(seed)
        self.rates = rates
        self.hang_s = float(hang_s)
        self.slow_s = float(slow_s)
        self.channel_delay_ns = float(channel_delay_ns)
        self.drop_retransmit_ns = float(drop_retransmit_ns)
        self._max_per_site = max_per_site
        self._scripted: dict[str, frozenset[int]] = {}
        self._counters: Counter[str] = Counter()
        self.injected: Counter[str] = Counter()
        self.recovered: Counter[str] = Counter()
        self.events: list[FaultEvent] = []

    @classmethod
    def scripted(
        cls, schedule: Mapping[str, Iterable[int]], seed: int = 0, **kwargs
    ) -> "FaultPlan":
        """A plan that fires exactly at the given per-site probe indices
        (and nowhere else) -- for deterministic regression tests."""
        _validate_sites(schedule)
        plan = cls(seed, {}, **kwargs)
        plan._scripted = {
            site: frozenset(int(i) for i in idxs) for site, idxs in schedule.items()
        }
        return plan

    # ------------------------------------------------------------------
    def _cap(self, site: str) -> int | None:
        if self._max_per_site is None:
            return None
        if isinstance(self._max_per_site, Mapping):
            return self._max_per_site.get(site)
        return int(self._max_per_site)

    def _draw(self, site: str, index: int) -> float:
        """Uniform in [0, 1), a pure function of (seed, site, index)."""
        h = hashlib.sha256(f"{self.seed}:{site}:{index}".encode()).digest()
        return int.from_bytes(h[:8], "big") / 2.0**64

    def should(self, site: str) -> bool:
        """Probe ``site``: advance its counter and decide whether the
        fault fires here.  Fired faults are recorded in ``injected`` and
        ``events``."""
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r}; choose from {sorted(SITES)}"
            )
        index = self._counters[site]
        self._counters[site] += 1
        if site in self._scripted:
            fire = index in self._scripted[site]
        else:
            rate = self.rates.get(site, 0.0)
            fire = rate > 0.0 and self._draw(site, index) < rate
        if fire:
            cap = self._cap(site)
            if cap is not None and self.injected[site] >= cap:
                fire = False
        if fire:
            self.injected[site] += 1
            self.events.append(FaultEvent(site, index))
        return fire

    def note_recovered(self, site: str, n: int = 1) -> None:
        """Record that the runtime absorbed ``n`` faults at ``site``.
        Called by the recovery machinery (phase retry success, allocation
        retry success, cache degrade-to-recompute, late delivery)."""
        if n > 0:
            self.recovered[site] += n

    # ------------------------------------------------------------------
    def probes(self, site: str) -> int:
        """How many times ``site`` has been probed so far."""
        return self._counters[site]

    def stats(self) -> FaultStats:
        """Immutable snapshot of the injection/recovery counters."""
        return FaultStats(dict(self.injected), dict(self.recovered))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlan seed={self.seed} rates={self.rates} "
            f"injected={dict(self.injected)}>"
        )


def pool_directives(
    n_tasks: int,
    *,
    allow_process_faults: bool,
    allow_task_faults: bool = True,
) -> tuple[list[tuple[str, float | None] | None], list[str]]:
    """Per-task fault directives for one pool phase attempt, drawn from
    the ambient plan.

    All decisions are drawn in the calling (parent) process so the probe
    stream stays deterministic; workers merely execute the directive
    shipped with their task.  ``allow_process_faults`` gates the
    crash/hang/slow family (only safe under a supervised, non-inline
    pool); ``allow_task_faults`` gates in-task faults (``shm.attach``)
    that surface as ordinary task exceptions.

    Returns ``(directives, issued)`` where ``issued`` lists the site of
    every fault scheduled for this attempt (for recovery bookkeeping).
    """
    directives: list[tuple[str, float | None] | None] = [None] * n_tasks
    issued: list[str] = []
    plan = current_fault_plan()
    if plan is None:
        return directives, issued
    for i in range(n_tasks):
        if allow_process_faults and fire("pool.worker.crash"):
            directives[i] = ("crash", None)
            issued.append("pool.worker.crash")
        elif allow_process_faults and fire("pool.worker.hang"):
            directives[i] = ("hang", plan.hang_s)
            issued.append("pool.worker.hang")
        elif allow_process_faults and fire("pool.worker.slow"):
            directives[i] = ("slow", plan.slow_s)
            issued.append("pool.worker.slow")
        elif allow_task_faults and fire("shm.attach"):
            directives[i] = ("attach-fail", None)
            issued.append("shm.attach")
    return directives, issued
