"""Interconnect bandwidth/contention model.

Given an all-to-all traffic matrix (bytes sent from processor i to
processor j during one phase), this module computes per-processor transfer
times that respect three capacity limits of the Origin2000 fabric:

1. each node's single connection into its router (shared by the node's two
   processors, ``link_bw_bytes_per_ns`` each way);
2. every router-router hypercube link, loaded according to dimension-ordered
   routing of all flows crossing it;
3. the uncontended wire latency of each flow (hops * hop_ns).

The phase cannot finish before the most-loaded resource drains, and a
processor cannot finish before its own injected and received bytes drain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MachineConfig
from .topology import Hypercube


@dataclass(frozen=True)
class TransferTimes:
    """Per-processor timing of one all-to-all transfer phase."""

    per_proc_ns: np.ndarray  # time each processor is occupied transferring
    bottleneck_ns: float  # most-loaded link/controller drain time
    max_link_bytes: float
    total_bytes: float


class Interconnect:
    """Contention-aware transfer-time model for one machine."""

    def __init__(self, machine: MachineConfig):
        self.machine = machine
        self.cube = Hypercube.for_machine(machine)
        self._proc_router = np.array(
            [machine.router_of(i) for i in range(machine.n_processors)]
        )
        self._link_index = {
            link: k for k, link in enumerate(self._all_links())
        }
        # route_links[a][b] -> list of link indices used by router a -> b
        self._routes: dict[tuple[int, int], list[int]] = {}

    def _all_links(self) -> list[tuple[int, int]]:
        links = []
        for r in range(self.cube.n_routers):
            for nb in self.cube.neighbors(r):
                if nb > r:
                    links.append((r, nb))
        return links

    def _route_links(self, a: int, b: int) -> list[int]:
        key = (a, b)
        cached = self._routes.get(key)
        if cached is None:
            cached = [self._link_index[l] for l in self.cube.links_on_route(a, b)]
            self._routes[key] = cached
        return cached

    # ------------------------------------------------------------------
    def transfer(self, bytes_matrix: np.ndarray) -> TransferTimes:
        """Timing of a phase where processor ``i`` sends
        ``bytes_matrix[i, j]`` bytes to processor ``j``.

        The diagonal (local copies) does not load the network.
        """
        m = self.machine
        p = m.n_processors
        traffic = np.asarray(bytes_matrix, dtype=np.float64)
        if traffic.shape != (p, p):
            raise ValueError(f"traffic matrix must be ({p}, {p})")
        if np.any(traffic < 0):
            raise ValueError("traffic must be non-negative")

        off_node = np.ones((p, p), dtype=bool)
        for i in range(p):
            for j in range(p):
                if m.node_of(i) == m.node_of(j):
                    off_node[i, j] = False
        net = np.where(off_node, traffic, 0.0)

        # Per-direction node link bandwidth: the peak figure is total in
        # both directions.
        dir_bw = m.link_bw_bytes_per_ns / 2.0

        # Node-link load: all of a node's processors share one connection.
        send_by_node = np.zeros(m.n_nodes)
        recv_by_node = np.zeros(m.n_nodes)
        for i in range(p):
            send_by_node[m.node_of(i)] += net[i].sum()
            recv_by_node[m.node_of(i)] += net[:, i].sum()
        node_link_ns = np.maximum(send_by_node, recv_by_node) / dir_bw

        # Router-link load under dimension-ordered routing.
        link_bytes = np.zeros(max(1, len(self._link_index)))
        for i in range(p):
            ri = self._proc_router[i]
            for j in range(p):
                b = net[i, j]
                if b == 0.0:
                    continue
                rj = self._proc_router[j]
                if ri == rj:
                    continue
                for l in self._route_links(int(ri), int(rj)):
                    link_bytes[l] += b
        # Hypercube links are bidirectional; the peak figure is shared.
        link_ns = link_bytes / m.link_bw_bytes_per_ns

        bottleneck = float(max(node_link_ns.max(initial=0.0), link_ns.max(initial=0.0)))

        per_proc = np.zeros(p)
        for i in range(p):
            own = max(net[i].sum(), net[:, i].sum()) / dir_bw
            node = node_link_ns[m.node_of(i)]
            per_proc[i] = max(own, node * self._share(net, i))
        # Nobody beats the network-wide bottleneck if they use the network.
        uses_net = (net.sum(axis=1) + net.sum(axis=0)) > 0
        per_proc[uses_net] = np.maximum(per_proc[uses_net], bottleneck)

        return TransferTimes(
            per_proc_ns=per_proc,
            bottleneck_ns=bottleneck,
            max_link_bytes=float(link_bytes.max(initial=0.0)),
            total_bytes=float(net.sum()),
        )

    @staticmethod
    def _share(net: np.ndarray, proc: int) -> float:
        """Fraction of its node's link time this processor is involved in
        (both node processors transferring -> each feels the full drain)."""
        return 1.0

    # ------------------------------------------------------------------
    def uncontended_latency_ns(self, src: int, dst: int) -> float:
        m = self.machine
        if m.node_of(src) == m.node_of(dst):
            return m.local_read_ns
        hops = self.cube.hops(m.router_of(src), m.router_of(dst))
        return m.local_read_ns + m.remote_base_ns + m.hop_ns * hops
