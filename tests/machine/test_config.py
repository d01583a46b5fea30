"""Tests for machine configuration and presets."""

from dataclasses import replace

import pytest

from repro.machine import CacheConfig, MachineConfig, TLBConfig


class TestCacheConfig:
    def test_origin_l2_geometry(self):
        l2 = CacheConfig(4 * 1024 * 1024, 128, 2)
        assert l2.n_lines == 32768
        assert l2.n_sets == 16384

    def test_rejects_non_divisible_size(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 128, 2)

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ValueError):
            CacheConfig(4096, 96, 2)

    @pytest.mark.parametrize("size,line,assoc", [(0, 128, 2), (4096, 0, 2), (4096, 128, 0)])
    def test_rejects_non_positive(self, size, line, assoc):
        with pytest.raises(ValueError):
            CacheConfig(size, line, assoc)


class TestTLBConfig:
    def test_reach(self):
        tlb = TLBConfig(64, 16 * 1024)
        assert tlb.reach_bytes == 1024 * 1024

    def test_rejects_non_pow2_page(self):
        with pytest.raises(ValueError):
            TLBConfig(64, 3000)


class TestMachineConfig:
    def test_default_is_origin2000_shape(self):
        m = MachineConfig()
        assert m.n_processors == 64
        assert m.n_nodes == 32
        assert m.n_routers == 16
        assert m.hypercube_dim == 4

    def test_node_and_router_mapping(self):
        m = MachineConfig()
        assert m.node_of(0) == 0
        assert m.node_of(1) == 0
        assert m.node_of(2) == 1
        assert m.router_of(0) == 0
        assert m.router_of(4) == 1
        assert m.router_of(63) == 15

    def test_node_of_rejects_out_of_range(self):
        m = MachineConfig()
        with pytest.raises(ValueError):
            m.node_of(64)
        with pytest.raises(ValueError):
            m.node_of(-1)

    def test_rejects_non_pow2_router_count(self):
        with pytest.raises(ValueError):
            MachineConfig(n_processors=48)  # 24 nodes -> 12 routers

    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ValueError):
            MachineConfig(
                l1=CacheConfig(32 * 1024, 64, 2),
                l2=CacheConfig(4 * 1024 * 1024, 128, 2),
            )

    @pytest.mark.parametrize("p", [16, 32, 64])
    def test_paper_processor_counts(self, p):
        m = MachineConfig.origin2000(n_processors=p)
        assert m.n_processors == p

    def test_with_processors(self):
        m = replace(MachineConfig.origin2000(64), n_processors=16)
        assert m.n_processors == 16
        assert m.n_routers == 4

    def test_origin_scaling_divides_capacities(self):
        full = MachineConfig.origin2000(scale=1)
        scaled = MachineConfig.origin2000(scale=64)
        assert scaled.l2.size_bytes == full.l2.size_bytes // 64
        assert scaled.l2.line_bytes == full.l2.line_bytes  # line stays
        assert scaled.page_bytes == full.page_bytes // 64

    def test_origin_scale_must_be_pow2(self):
        with pytest.raises(ValueError):
            MachineConfig.origin2000(scale=3)

    def test_page_override(self):
        m = MachineConfig.origin2000(scale=1, page_bytes=256 * 1024)
        assert m.page_bytes == 256 * 1024

    def test_tiny_preset_valid(self):
        m = MachineConfig.tiny()
        assert m.n_processors == 4
        assert m.n_routers == 2

