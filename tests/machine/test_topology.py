"""Hypercube topology tests, including property-based routing checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    Hypercube,
    MachineConfig,
    average_remote_latency_ns,
    remote_latency_ns,
)


def _hop_matrix(cube: Hypercube) -> np.ndarray:
    n = cube.n_routers
    return np.array([[cube.hops(a, b) for b in range(n)] for a in range(n)])


class TestHypercube:
    def test_origin_dimensions(self):
        cube = Hypercube.for_machine(MachineConfig())
        assert cube.dim == 4
        assert cube.n_routers == 16
        assert max(cube.hops(0, r) for r in range(16)) == 4  # diameter
        assert sum(len(cube.neighbors(r)) for r in range(16)) == 2 * 32  # links

    def test_hops_is_hamming_distance(self):
        cube = Hypercube(4)
        assert cube.hops(0b0000, 0b1111) == 4
        assert cube.hops(0b0101, 0b0100) == 1
        assert cube.hops(3, 3) == 0

    def test_route_endpoints_and_length(self):
        cube = Hypercube(4)
        path = cube.route(0b0000, 0b1011)
        assert path[0] == 0 and path[-1] == 0b1011
        assert len(path) == cube.hops(0, 0b1011) + 1

    def test_route_steps_are_single_hops(self):
        cube = Hypercube(4)
        path = cube.route(5, 10)
        for a, b in zip(path, path[1:]):
            assert cube.hops(a, b) == 1

    def test_neighbors(self):
        cube = Hypercube(3)
        assert sorted(cube.neighbors(0)) == [1, 2, 4]

    def test_hop_matrix_symmetric_zero_diagonal(self):
        cube = Hypercube(4)
        mat = _hop_matrix(cube)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)
        assert mat.max() == 4

    def test_average_hops_formula(self):
        cube = Hypercube(4)
        mat = _hop_matrix(cube)
        n = cube.n_routers
        brute = mat.sum() / (n * (n - 1))
        assert brute == pytest.approx(cube.dim * 2 ** (cube.dim - 1) / (n - 1))

    def test_zero_dim_cube(self):
        cube = Hypercube(0)
        assert cube.n_routers == 1
        assert _hop_matrix(cube).tolist() == [[0]]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Hypercube(3).hops(0, 8)

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=100, deadline=None)
    def test_route_links_count_matches_hops(self, a, b):
        cube = Hypercube(4)
        assert len(cube.links_on_route(a, b)) == cube.hops(a, b)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        cube = Hypercube(6)
        assert cube.hops(a, c) <= cube.hops(a, b) + cube.hops(b, c)


class TestLatencies:
    def test_paper_latency_endpoints(self):
        """Local 313 ns; furthest (4 hops) 1010 ns; average near 796 ns."""
        m = MachineConfig()
        assert remote_latency_ns(m, 0, 1) == pytest.approx(313.0)  # same node
        assert remote_latency_ns(m, 0, 63) == pytest.approx(1010.0)  # 4 hops
        avg = average_remote_latency_ns(m, 0)
        assert 700 < avg < 900  # paper: 796 ns average

    def test_same_router_other_node(self):
        m = MachineConfig()
        # proc 2 is node 1, same router 0 as proc 0: remote but 0 hops.
        assert remote_latency_ns(m, 0, 2) == pytest.approx(313.0 + 297.0)

    def test_single_node_machine_average(self):
        m = MachineConfig(
            n_processors=2,
            procs_per_node=2,
            nodes_per_router=1,
        )
        assert average_remote_latency_ns(m) == m.local_read_ns
