"""NUMA memory system: turns access patterns into stall time.

:class:`MemorySystem` composes the analytic cache and TLB models with the
machine's NUMA latencies, and attributes the resulting stall time to LMEM
(local memory) or RMEM (remote memory) exactly as the paper's per-processor
breakdowns do (Section 4: "CPU stall time waiting for local cache misses
(LMEM), CPU stall time for communicating remote data (RMEM)").
"""

from __future__ import annotations

from dataclasses import dataclass

from .access import AccessPattern
from .cache import AnalyticCache, MissStats
from .config import MachineConfig
from .costs import CostModel, DEFAULT_COSTS
from .tlb import AnalyticTLB, TLBStats
from .topology import average_remote_latency_ns


@dataclass(frozen=True)
class HomeLocation:
    """Where the data of a region lives relative to the accessing processor.

    ``remote_fraction`` of the region's pages are homed on other nodes, at
    an average uncontended latency of ``remote_ns``.
    """

    remote_fraction: float = 0.0
    remote_ns: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise ValueError("remote_fraction must be within [0, 1]")
        if self.remote_fraction > 0.0 and self.remote_ns <= 0.0:
            raise ValueError("remote accesses need a positive remote latency")

    @classmethod
    def local(cls) -> "HomeLocation":
        return cls(0.0, 0.0)

    @classmethod
    def partitioned(cls, machine: MachineConfig, src: int = 0) -> "HomeLocation":
        """A region partitioned evenly across all processors' nodes, as the
        key arrays are: all but the local node's share is remote."""
        remote_fraction = 1.0 - machine.procs_per_node / machine.n_processors
        return cls(remote_fraction, average_remote_latency_ns(machine, src))

    @classmethod
    def remote(cls, machine: MachineConfig, src: int = 0) -> "HomeLocation":
        """A region homed entirely on other nodes (average distance)."""
        return cls(1.0, average_remote_latency_ns(machine, src))


@dataclass(frozen=True)
class MemTime:
    """Stall-time outcome of one access pattern (plus diagnostics)."""

    lmem_ns: float = 0.0
    rmem_ns: float = 0.0
    l2_misses: float = 0.0
    tlb_misses: float = 0.0
    writebacks: float = 0.0
    bytes_missed: float = 0.0

    def __add__(self, other: "MemTime") -> "MemTime":
        return MemTime(
            self.lmem_ns + other.lmem_ns,
            self.rmem_ns + other.rmem_ns,
            self.l2_misses + other.l2_misses,
            self.tlb_misses + other.tlb_misses,
            self.writebacks + other.writebacks,
            self.bytes_missed + other.bytes_missed,
        )

    @property
    def total_ns(self) -> float:
        return self.lmem_ns + self.rmem_ns


ZERO_MEMTIME = MemTime()


class MemorySystem:
    """Per-processor view of the machine's memory hierarchy."""

    def __init__(self, machine: MachineConfig, costs: CostModel = DEFAULT_COSTS):
        self.machine = machine
        self.costs = costs
        self._l2 = AnalyticCache(machine.l2)
        self._tlb = AnalyticTLB(machine.tlb)
        # Patterns and homes are frozen dataclasses; SPMD phases evaluate
        # the same (pattern, home) once per processor, so memoize.
        self._cache: dict[tuple, MemTime] = {}

    # ------------------------------------------------------------------
    def pattern_time(
        self, pattern: AccessPattern, home: HomeLocation | None = None
    ) -> MemTime:
        """Stall time for one access pattern against data homed at ``home``
        (default: all local)."""
        home = home or HomeLocation.local()
        key = (pattern, home)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        cache: MissStats = self._l2.misses(pattern)
        tlb: TLBStats = self._tlb.misses(pattern)
        result = self._combine(cache, tlb, home)
        result = result + self._scatter_penalty(pattern, home)
        self._cache[key] = result
        return result

    def _scatter_penalty(
        self, pattern: AccessPattern, home: HomeLocation
    ) -> MemTime:
        """Capacity-gated extra misses for scattered bucket appends whose
        destination span exceeds the L2 cache (see CostModel docs)."""
        from .access import BucketedAppend

        if not isinstance(pattern, BucketedAppend) or pattern.n_elems == 0:
            return ZERO_MEMTIME
        l2 = self.machine.l2.size_bytes
        ramp = (pattern.span_bytes - l2 / 2) / l2
        ramp = min(1.0, max(0.0, ramp))
        if ramp == 0.0:
            return ZERO_MEMTIME
        pressure = min(
            1.0,
            pattern.n_buckets * self.machine.line_bytes / self.machine.l1.size_bytes,
        )
        extra = (
            self.costs.scatter_capacity_miss_rate
            * pattern.n_elems
            * (1.0 - pattern.locality)
            * ramp
            * pressure
        )
        stall = extra * self.machine.local_read_ns
        local = 1.0 - home.remote_fraction
        return MemTime(
            lmem_ns=stall * local,
            rmem_ns=extra * home.remote_fraction * (home.remote_ns or 0.0),
            l2_misses=extra,
        )

    def _combine(
        self, cache: MissStats, tlb: TLBStats, home: HomeLocation
    ) -> MemTime:
        m = self.machine
        c = self.costs
        local_misses = cache.misses * (1.0 - home.remote_fraction)
        remote_misses = cache.misses * home.remote_fraction
        lmem = (
            local_misses * m.local_read_ns
            + tlb.weighted_misses * c.tlb_miss_ns
            + cache.writebacks * c.writeback_ns
        )
        rmem = remote_misses * home.remote_ns
        return MemTime(
            lmem_ns=lmem,
            rmem_ns=rmem,
            l2_misses=cache.misses,
            tlb_misses=tlb.misses,
            writebacks=cache.writebacks,
            bytes_missed=cache.misses * m.line_bytes,
        )
