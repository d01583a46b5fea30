"""Tests for the local radix-sort walk and its per-pass phase emitter."""

import numpy as np
import pytest

from repro.data import generate
from repro.machine import MachineConfig
from repro.smp import Team
from repro.sorts.common import n_passes
from repro.sorts.local_sort import local_sort_pass_phase, local_sort_walk

M16 = MachineConfig.origin2000(n_processors=16, scale=1)


def split(keys, p):
    per = len(keys) // p
    return [keys[i * per : (i + 1) * per] for i in range(p)]


def local_sort(team, name, parts, counts, radix, received_cached=False):
    """Walk the local sorts, then price every pass onto ``team``."""
    stats, out = local_sort_walk(parts, counts, radix, n_passes(radix))
    for k in range(len(stats.actives)):
        local_sort_pass_phase(
            team, name, k, stats.counts, stats.actives[k], stats.localities[k],
            received_cached=received_cached,
        )
    return out


class TestFunctional:
    def test_sorts_each_partition(self):
        keys = generate("random", 16 * 256, 16)
        team = Team(M16, 16)
        parts = split(keys, 16)
        out = local_sort(
            team, "ls", parts, np.full(16, 256), radix=8
        )
        for i, part in enumerate(out):
            assert np.array_equal(part, np.sort(parts[i]))

    def test_uneven_partitions(self):
        rng = np.random.default_rng(0)
        parts = [
            rng.integers(0, 1 << 20, size=s).astype(np.int64)
            for s in (10, 0, 500, 7) + (64,) * 12
        ]
        team = Team(M16, 16)
        counts = np.array([len(p) for p in parts])
        out = local_sort(team, "ls", parts, counts, radix=8)
        for got, src in zip(out, parts):
            assert np.array_equal(got, np.sort(src))

    def test_team_size_mismatch_rejected(self):
        team = Team(M16, 16)
        with pytest.raises(ValueError, match="team size"):
            local_sort(team, "ls", [np.arange(4)], np.array([4]), 8)
        with pytest.raises(ValueError, match="match in length"):
            local_sort_walk([np.arange(4)], np.array([4, 4]), 8, 4)


class TestCostEmission:
    def test_one_phase_per_pass(self):
        keys = generate("gauss", 16 * 128, 16)
        team = Team(M16, 16)
        local_sort(
            team, "ls", split(keys, 16), np.full(16, 128), radix=8
        )
        pass_phases = [r for r in team.phase_records if r.name.startswith("ls.pass")]
        assert len(pass_phases) == 4  # ceil(31/8)

    def test_busy_scales_with_labeled_counts(self):
        keys = generate("gauss", 16 * 128, 16)
        t1 = Team(M16, 16)
        local_sort(t1, "ls", split(keys, 16), np.full(16, 128), 8)
        t2 = Team(M16, 16)
        local_sort(
            t2, "ls", split(keys, 16), np.full(16, 128 * 64), 8
        )
        assert t2.counters[0].busy_ns == pytest.approx(
            64 * t1.counters[0].busy_ns
        )

    def test_imbalanced_counts_imbalance_clocks(self):
        keys = generate("gauss", 16 * 128, 16)
        counts = np.full(16, 128)
        counts[0] = 128 * 10
        team = Team(M16, 16)
        local_sort(team, "ls", split(keys, 16), counts, 8)
        assert team.clock[0] > 5 * team.clock[1]

    def test_received_cached_cheaper_first_pass(self):
        """SHMEM-delivered (cache-resident) input skips cold misses."""
        keys = generate("gauss", 16 * 4096, 16)
        cold = Team(M16, 16)
        local_sort(
            cold, "ls", split(keys, 16), np.full(16, 4096), 8,
            received_cached=False,
        )
        warm = Team(M16, 16)
        local_sort(
            warm, "ls", split(keys, 16), np.full(16, 4096), 8,
            received_cached=True,
        )
        assert warm.counters[0].lmem_ns < cold.counters[0].lmem_ns
