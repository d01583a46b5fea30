"""Machine configuration for the simulated CC-NUMA multiprocessor.

The reference machine is the SGI Origin2000 used in the paper (Section 2):
64 MIPS R10000 processors at 195 MHz organized as 32 two-processor nodes,
two nodes per router, 16 routers connected in a hypercube.  Each processor
has a 4 MB two-way set-associative unified L2 cache with 128-byte lines;
the default page size is 16 KB.  Uncontended read latencies are 313 ns
(local), 796 ns (machine-wide average) and 1010 ns (furthest), growing by
roughly 100 ns per router hop.  Peak point-to-point link bandwidth is
1.6 GB/s total in both directions.

Because the reproduction runs data sets scaled down by a uniform factor
(DESIGN.md Section 2), :meth:`MachineConfig.origin2000` accepts a ``scale``
argument that shrinks every *capacity* (cache sizes, TLB reach, page size)
by the same factor while leaving latencies, bandwidths and the cache line
size untouched.  Capacity-induced effects -- the superlinear speedups and
the distribution-dependent TLB behavior the paper analyzes -- are functions
of the ratio of working-set size to capacity, so they occur at the same
*labeled* data-set sizes as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


#: Cost-model families a :class:`MachineConfig` can describe.  "ccdsm" is
#: the paper's directory-based CC-NUMA machine; the other kinds are the
#: machine-model zoo (see docs/MACHINES.md and :mod:`repro.machine.zoo`).
MACHINE_KINDS = ("ccdsm", "multicore", "bsp", "ap1000")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} is not a whole number of "
                f"{self.associativity}-way sets of {self.line_bytes}-byte lines"
            )
        if not _is_pow2(self.line_bytes):
            raise ValueError("cache line size must be a power of two")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the data TLB (fully associative, LRU)."""

    entries: int
    page_bytes: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.page_bytes <= 0:
            raise ValueError("TLB geometry values must be positive")
        if not _is_pow2(self.page_bytes):
            raise ValueError("page size must be a power of two")

    @property
    def reach_bytes(self) -> int:
        """Total bytes mapped when every entry is in use."""
        return self.entries * self.page_bytes


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of a simulated CC-NUMA machine.

    All times are nanoseconds, all sizes bytes, bandwidths bytes/ns (= GB/s).
    """

    n_processors: int = 64
    procs_per_node: int = 2
    nodes_per_router: int = 2

    cpu_mhz: float = 195.0
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 128, 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024 * 1024, 128, 2)
    )
    tlb: TLBConfig = field(default_factory=lambda: TLBConfig(64, 16 * 1024))

    #: Uncontended latency of a read miss satisfied by local memory.
    local_read_ns: float = 313.0
    #: Fixed extra latency of any remote access (crossing the node boundary),
    #: before per-hop costs.  Chosen so that the furthest access on the
    #: 64-processor machine (4 hypercube hops) costs 1010 ns as reported.
    remote_base_ns: float = 297.0
    #: Additional latency per router hop.
    hop_ns: float = 100.0
    #: Peak point-to-point bandwidth per link, both directions combined.
    link_bw_bytes_per_ns: float = 1.6
    #: Occupancy of a node's coherence/memory controller per protocol
    #: transaction it handles (request, intervention, invalidation, ack,
    #: writeback).  Serialization at the home controller is the paper's
    #: explanation for the CC-SAS radix collapse.
    ctrl_occupancy_ns: float = 40.0

    #: Capacity scale factor actually applied (bookkeeping only).
    scale: int = 1
    #: NUMA page-placement policy for partition-private data
    #: ("first-touch" or "round-robin"; see repro.machine.placement).
    placement: str = "first-touch"

    #: Cost-model family (see :data:`MACHINE_KINDS`).  "ccdsm" machines
    #: use the full directory/interconnect simulation; "multicore" shares
    #: one LLC with uniform memory and no directory traffic; "bsp" maps
    #: every phase onto (g, L) superstep accounting; "ap1000" forbids
    #: remote loads entirely (channels only).
    kind: str = "ccdsm"
    #: BSP gap: communication cost per byte of the largest per-processor
    #: h-relation, in ns/byte.  Only meaningful when ``kind == "bsp"``.
    bsp_g_ns_per_byte: float = 1.0
    #: BSP barrier/latency parameter L, charged once per superstep
    #: (barrier), in ns.  Only meaningful when ``kind == "bsp"``.
    bsp_l_ns: float = 10_000.0

    def __post_init__(self) -> None:
        if self.n_processors <= 0:
            raise ValueError("n_processors must be positive")
        if self.procs_per_node <= 0 or self.nodes_per_router <= 0:
            raise ValueError("machine shape values must be positive")
        if self.n_processors % self.procs_per_node != 0:
            raise ValueError(
                f"{self.n_processors} processors do not divide into nodes of "
                f"{self.procs_per_node}"
            )
        if self.n_nodes % self.nodes_per_router != 0:
            raise ValueError(
                f"{self.n_nodes} nodes do not divide into routers of "
                f"{self.nodes_per_router}"
            )
        if not _is_pow2(self.n_routers):
            raise ValueError(
                f"router count {self.n_routers} must be a power of two to "
                "form a hypercube"
            )
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        if self.local_read_ns <= 0 or self.link_bw_bytes_per_ns <= 0:
            raise ValueError("latency and bandwidth values must be positive")
        if self.placement not in ("first-touch", "round-robin"):
            raise ValueError(
                f"unknown page placement {self.placement!r}; choose "
                "'first-touch' or 'round-robin'"
            )
        if self.kind not in MACHINE_KINDS:
            raise ValueError(
                f"unknown machine kind {self.kind!r}; choose from "
                f"{MACHINE_KINDS}"
            )
        if self.kind == "bsp" and (
            self.bsp_g_ns_per_byte <= 0 or self.bsp_l_ns <= 0
        ):
            raise ValueError("a BSP machine needs positive g and L")

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.n_processors // self.procs_per_node

    @property
    def n_routers(self) -> int:
        return self.n_nodes // self.nodes_per_router

    @property
    def hypercube_dim(self) -> int:
        return self.n_routers.bit_length() - 1

    @property
    def line_bytes(self) -> int:
        return self.l2.line_bytes

    @property
    def page_bytes(self) -> int:
        return self.tlb.page_bytes

    def node_of(self, proc: int) -> int:
        """Node index hosting processor ``proc``."""
        if not 0 <= proc < self.n_processors:
            raise ValueError(f"processor {proc} out of range")
        return proc // self.procs_per_node

    def router_of_node(self, node: int) -> int:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
        return node // self.nodes_per_router

    def router_of(self, proc: int) -> int:
        return self.router_of_node(self.node_of(proc))

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def origin2000(
        cls,
        n_processors: int = 64,
        scale: int = 64,
        page_bytes: int | None = None,
    ) -> "MachineConfig":
        """A (possibly capacity-scaled) SGI Origin2000.

        ``scale`` divides every capacity: L1/L2 size, TLB entries and page
        size, so that a labeled data set of N keys exercises the scaled
        machine exactly as N*scale keys would exercise the real one.  The
        cache line size stays at 128 bytes (scaling it would change the
        spatial-locality granularity the paper's analysis relies on).

        ``page_bytes`` overrides the (scaled) page size; the paper tunes the
        page size per data-set size (64 KB for 1M-64M keys, 256 KB for 256M).
        """
        if scale <= 0 or not _is_pow2(scale):
            raise ValueError("scale must be a positive power of two")
        line = 128

        def scaled(size: int, minimum: int) -> int:
            return max(size // scale, minimum)

        default_page = scaled(64 * 1024, 4 * line)
        page = default_page if page_bytes is None else page_bytes
        procs_per_node = min(2, n_processors)
        n_nodes = n_processors // procs_per_node
        # The R10000 data TLB has 64 dual entries = 128 page mappings; the
        # reach scales with the (possibly scaled) page size.
        return cls(
            n_processors=n_processors,
            procs_per_node=procs_per_node,
            nodes_per_router=min(2, n_nodes),
            l1=CacheConfig(scaled(32 * 1024, 4 * line * 2), line, 2),
            l2=CacheConfig(scaled(4 * 1024 * 1024, 16 * line * 2), line, 2),
            tlb=TLBConfig(128, page),
            scale=scale,
        )

    @classmethod
    def multicore(cls, n_processors: int = 16) -> "MachineConfig":
        """A modern shared-LLC multicore: one node, uniform memory.

        Every processor lives on the same node, so partitioned data has a
        remote fraction of zero, no directory protocol traffic is charged,
        and all misses pay the (fast, uniform) local DRAM latency.  The
        LLC is one large shared cache; lines are the x86-typical 64 bytes.
        """
        line = 64
        return cls(
            n_processors=n_processors,
            procs_per_node=n_processors,
            nodes_per_router=1,
            cpu_mhz=3000.0,
            l1=CacheConfig(32 * 1024, line, 8),
            l2=CacheConfig(32 * 1024 * 1024, line, 16),
            tlb=TLBConfig(1536, 4 * 1024),
            local_read_ns=90.0,
            remote_base_ns=0.0,
            hop_ns=0.0,
            link_bw_bytes_per_ns=20.0,
            ctrl_occupancy_ns=2.0,
            kind="multicore",
        )

    @classmethod
    def bsp(
        cls,
        n_processors: int = 16,
        g_ns_per_byte: float = 1.0,
        l_ns: float = 10_000.0,
    ) -> "MachineConfig":
        """A BSP abstract machine parameterized by (g, L).

        Computation phases are pure BUSY (the model has no memory
        hierarchy); an exchange charges each processor ``g * h`` where
        ``h`` is the larger of its bytes sent and bytes received (the
        h-relation); every barrier ends a superstep and charges ``L``.
        The span of a run therefore obeys the superstep identity
        ``BUSY + g*h + L*supersteps (+ straggler waits) == span``.
        """
        return cls(
            n_processors=n_processors,
            procs_per_node=1,
            nodes_per_router=max(1, n_processors // 2),
            l1=CacheConfig(32 * 1024, 128, 2),
            l2=CacheConfig(4 * 1024 * 1024, 128, 2),
            tlb=TLBConfig(128, 16 * 1024),
            kind="bsp",
            bsp_g_ns_per_byte=g_ns_per_byte,
            bsp_l_ns=l_ns,
        )

    @classmethod
    def ap1000(cls, n_processors: int = 16) -> "MachineConfig":
        """A Fujitsu AP1000-style distributed-memory machine.

        One processor per node and *no* remote loads: a processor can
        only touch its own memory, so all remote traffic must move
        through message channels (the MPI transports).  Shared-address
        transports (CC-SAS, SHMEM one-sided gets) are rejected with
        :class:`~repro.machine.zoo.UnsupportedTransportError`.  The
        numbers follow the AP1000's 25 MHz SPARC cells and 25 MB/s
        T-net links.
        """
        return cls(
            n_processors=n_processors,
            procs_per_node=1,
            nodes_per_router=max(1, n_processors // 8),
            cpu_mhz=25.0,
            l1=CacheConfig(128 * 1024, 32, 1),
            l2=CacheConfig(128 * 1024, 32, 1),
            tlb=TLBConfig(64, 8 * 1024),
            local_read_ns=400.0,
            remote_base_ns=5000.0,
            hop_ns=200.0,
            link_bw_bytes_per_ns=0.025,
            ctrl_occupancy_ns=100.0,
            kind="ap1000",
        )

    @classmethod
    def tiny(cls) -> "MachineConfig":
        """A 4-processor machine small enough for exhaustive unit tests."""
        return cls(
            n_processors=4,
            procs_per_node=2,
            nodes_per_router=1,
            l1=CacheConfig(1024, 64, 2),
            l2=CacheConfig(8192, 64, 2),
            tlb=TLBConfig(8, 512),
        )

    def with_placement(self, placement: str) -> "MachineConfig":
        """The same machine under a different page-placement policy."""
        return replace(self, placement=placement)
