"""Per-processor performance accounting.

Reproduces the paper's measurement methodology (Section 4): execution time
is divided into BUSY (instruction execution), LMEM (stalls on local cache
misses), RMEM (stalls communicating remote data) and SYNC (synchronization
waits).  For CC-SAS the paper's tools could not separate LMEM from RMEM --
:meth:`PerfCounters.mem_ns` provides the combined MEM category used in its
Figure 4(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CATEGORIES = ("BUSY", "LMEM", "RMEM", "SYNC")


@dataclass
class PerfCounters:
    """Accumulated time of one simulated processor (all nanoseconds)."""

    busy_ns: float = 0.0
    lmem_ns: float = 0.0
    rmem_ns: float = 0.0
    sync_ns: float = 0.0
    # Diagnostics (not part of the paper's four categories)
    l2_misses: float = 0.0
    tlb_misses: float = 0.0
    messages: float = 0.0
    bytes_sent: float = 0.0
    protocol_transactions: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.busy_ns + self.lmem_ns + self.rmem_ns + self.sync_ns

    @property
    def mem_ns(self) -> float:
        """LMEM + RMEM combined (the CC-SAS 'MEM' category)."""
        return self.lmem_ns + self.rmem_ns

    def add(self, other: "PerfCounters") -> None:
        self.busy_ns += other.busy_ns
        self.lmem_ns += other.lmem_ns
        self.rmem_ns += other.rmem_ns
        self.sync_ns += other.sync_ns
        self.l2_misses += other.l2_misses
        self.tlb_misses += other.tlb_misses
        self.messages += other.messages
        self.bytes_sent += other.bytes_sent
        self.protocol_transactions += other.protocol_transactions

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.busy_ns, self.lmem_ns, self.rmem_ns, self.sync_ns)


@dataclass
class PhaseRecord:
    """Aggregate accounting of one named phase (for breakdowns by phase)."""

    name: str
    per_proc_ns: np.ndarray

    @property
    def max_ns(self) -> float:
        return float(self.per_proc_ns.max())


@dataclass
class PerfReport:
    """Result of one simulated parallel run."""

    n_procs: int
    counters: list[PerfCounters]
    phases: list[PhaseRecord] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.counters) != self.n_procs:
            raise ValueError(
                f"{len(self.counters)} counters for {self.n_procs} processors"
            )

    # ------------------------------------------------------------------
    @property
    def total_time_ns(self) -> float:
        """Wall-clock of the run: the slowest processor's accumulated time.

        Because every barrier charges faster processors the wait for the
        slowest, all per-processor totals agree at run end (up to the final
        unbarriered phase); the max is the honest wall-clock.
        """
        return max(c.total_ns for c in self.counters)

    @property
    def total_time_us(self) -> float:
        return self.total_time_ns / 1000.0

    def category_matrix(self) -> np.ndarray:
        """(n_procs, 4) matrix of BUSY/LMEM/RMEM/SYNC times in ns."""
        return np.array([c.as_tuple() for c in self.counters])

    def category_means_ns(self) -> dict[str, float]:
        mat = self.category_matrix()
        return dict(zip(CATEGORIES, mat.mean(axis=0)))

    def category_fractions(self) -> dict[str, float]:
        means = self.category_means_ns()
        total = sum(means.values()) or 1.0
        return {k: v / total for k, v in means.items()}

    def speedup_vs(self, sequential_ns: float) -> float:
        if self.total_time_ns <= 0:
            raise ValueError("run has no accumulated time")
        return sequential_ns / self.total_time_ns

    def merged(self) -> PerfCounters:
        total = PerfCounters()
        for c in self.counters:
            total.add(c)
        return total
