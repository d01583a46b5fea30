"""PerfCounters / PerfReport accounting tests."""

import pytest

from repro.smp import CATEGORIES, PerfCounters, PerfReport


class TestPerfCounters:
    def test_totals(self):
        c = PerfCounters(busy_ns=10, lmem_ns=20, rmem_ns=30, sync_ns=40)
        assert c.total_ns == 100
        assert c.mem_ns == 50
        assert c.as_tuple() == (10, 20, 30, 40)

    def test_add(self):
        a = PerfCounters(busy_ns=1, messages=2)
        b = PerfCounters(busy_ns=3, messages=4, protocol_transactions=5)
        a.add(b)
        assert a.busy_ns == 4
        assert a.messages == 6
        assert a.protocol_transactions == 5


class TestPerfReport:
    def _report(self):
        counters = [
            PerfCounters(busy_ns=100, lmem_ns=10, rmem_ns=5, sync_ns=1),
            PerfCounters(busy_ns=80, lmem_ns=20, rmem_ns=10, sync_ns=6),
        ]
        return PerfReport(2, counters, label="test")

    def test_total_time_is_max(self):
        assert self._report().total_time_ns == 116

    def test_category_matrix(self):
        mat = self._report().category_matrix()
        assert mat.shape == (2, 4)
        assert list(mat[0]) == [100, 10, 5, 1]

    def test_category_means_and_fractions(self):
        rep = self._report()
        means = rep.category_means_ns()
        assert set(means) == set(CATEGORIES)
        assert means["BUSY"] == 90
        fr = rep.category_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_speedup(self):
        rep = self._report()
        assert rep.speedup_vs(1160) == pytest.approx(10.0)

    def test_speedup_rejects_empty(self):
        rep = PerfReport(1, [PerfCounters()])
        with pytest.raises(ValueError):
            rep.speedup_vs(100)

    def test_mismatched_counters_rejected(self):
        with pytest.raises(ValueError):
            PerfReport(3, [PerfCounters()])

    def test_merged(self):
        merged = self._report().merged()
        assert merged.busy_ns == 180

