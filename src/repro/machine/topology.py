"""Hypercube router topology of the Origin2000.

The 64-processor machine has 16 routers (each serving two 2-processor
nodes) connected as a 4-dimensional hypercube.  Remote latency grows by
roughly 100 ns per router hop; the bisection width bounds all-to-all
bandwidth.  Routing is dimension-ordered (e-cube), which is what the real
SPIDER routers implement.
"""

from __future__ import annotations

import numpy as np

from .config import MachineConfig


class Hypercube:
    """A d-dimensional hypercube over ``2**d`` routers."""

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        self.dim = dim
        self.n_routers = 1 << dim

    @classmethod
    def for_machine(cls, machine: MachineConfig) -> "Hypercube":
        return cls(machine.hypercube_dim)

    # ------------------------------------------------------------------
    def hops(self, a: int, b: int) -> int:
        """Number of router-to-router hops between routers ``a`` and ``b``
        (the Hamming distance of their indices)."""
        self._check(a)
        self._check(b)
        return int(a ^ b).bit_count()

    def route(self, a: int, b: int) -> list[int]:
        """Dimension-ordered route from ``a`` to ``b``, inclusive."""
        self._check(a)
        self._check(b)
        path = [a]
        cur = a
        for d in range(self.dim):
            bit = 1 << d
            if (cur ^ b) & bit:
                cur ^= bit
                path.append(cur)
        return path

    def links_on_route(self, a: int, b: int) -> list[tuple[int, int]]:
        """The undirected links traversed by the dimension-ordered route,
        each normalized as (low, high)."""
        path = self.route(a, b)
        return [tuple(sorted(pair)) for pair in zip(path, path[1:])]

    def neighbors(self, router: int) -> list[int]:
        self._check(router)
        return [router ^ (1 << d) for d in range(self.dim)]

    def _check(self, r: int) -> None:
        if not 0 <= r < self.n_routers:
            raise ValueError(f"router {r} out of range [0, {self.n_routers})")


def remote_latency_ns(machine: MachineConfig, src: int, dst: int) -> float:
    """Uncontended read latency from processor ``src`` to memory homed at
    processor ``dst``'s node."""
    if machine.node_of(src) == machine.node_of(dst):
        return machine.local_read_ns
    hops = Hypercube.for_machine(machine).hops(
        machine.router_of(src), machine.router_of(dst)
    )
    return machine.local_read_ns + machine.remote_base_ns + machine.hop_ns * hops


def average_remote_latency_ns(machine: MachineConfig, src: int = 0) -> float:
    """Average uncontended latency from ``src`` to memory on *other* nodes."""
    lat = [
        remote_latency_ns(machine, src, dst)
        for dst in range(machine.n_processors)
        if machine.node_of(dst) != machine.node_of(src)
    ]
    if not lat:
        return machine.local_read_ns
    return float(np.mean(lat))
