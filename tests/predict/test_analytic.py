"""Workload statistics: closed-form, measured, and family-drawn."""

import numpy as np
import pytest

from repro.data import generate
from repro.predict import family_stats, uniform_stats
from repro.sorts import measure
from repro.sorts.common import n_passes


def measured_stats(keys, algorithm, p, radix, n_labeled=None):
    return measure(keys, algorithm, p, radix, n_labeled)[0]


class TestValidation:
    @pytest.mark.parametrize("algorithm", ["quick", "", "RADIX"])
    def test_unknown_algorithm(self, algorithm):
        with pytest.raises(ValueError, match="unknown algorithm"):
            uniform_stats(algorithm, 1 << 12, 16, 8)

    @pytest.mark.parametrize("n,p", [(0, 16), (100, 16), (-64, 4), (64, 0)])
    def test_bad_sizes(self, n, p):
        with pytest.raises(ValueError, match="positive multiple"):
            uniform_stats("radix", n, p, 8)

    @pytest.mark.parametrize("radix", [0, 17, -1])
    def test_bad_radix(self, radix):
        with pytest.raises(ValueError, match="radix"):
            uniform_stats("radix", 1 << 12, 16, radix)

    def test_measured_rejects_bad_labeled_size(self):
        keys = generate("gauss", 1 << 10, 4)
        with pytest.raises(ValueError, match="multiple of the actual"):
            measured_stats(keys, "radix", 4, 8, n_labeled=3000)


class TestUniformStats:
    def test_radix_shapes(self):
        n, p, r = 1 << 14, 16, 8
        stats = uniform_stats("radix", n, p, r)
        assert stats.passes == n_passes(r, 31)
        assert len(stats.radix_passes) == stats.passes
        ps = stats.radix_passes[0]
        assert ps.comm.bytes_matrix.shape == (p, p)
        # Traffic conserves the keys: every row moves n/p keys' bytes.
        assert ps.comm.bytes_matrix.sum() == pytest.approx(n * 4)
        assert (ps.comm.chunks_matrix >= 1.0).all()
        assert 0.0 < ps.locality <= 1.0
        assert 1 <= ps.active_buckets <= 1 << r

    def test_sample_shapes(self):
        n, p, r = 1 << 14, 16, 11
        stats = uniform_stats("sample", n, p, r)
        assert stats.local1 is not None and stats.local2 is not None
        assert stats.distribute is not None
        assert stats.local1.counts.sum() == pytest.approx(n)
        assert stats.distribute.bytes_matrix.sum() == pytest.approx(n * 4)


class TestMeasuredStats:
    def test_radix_traffic_conserves_keys(self):
        p = 8
        keys = generate("gauss", 1 << 12, p)
        stats = measured_stats(keys, "radix", p, 8)
        for ps in stats.radix_passes:
            assert ps.comm.bytes_matrix.sum() == pytest.approx(len(keys) * 4)

    def test_scale_extrapolation(self):
        """Labeled statistics are the actual draw's, scaled up."""
        p = 8
        keys = generate("gauss", 1 << 12, p)
        small = measured_stats(keys, "radix", p, 8)
        big = measured_stats(keys, "radix", p, 8, n_labeled=1 << 16)
        assert big.n == 1 << 16
        ratio = (
            big.radix_passes[0].comm.bytes_matrix.sum()
            / small.radix_passes[0].comm.bytes_matrix.sum()
        )
        assert ratio == pytest.approx(16.0)

    def test_sample_distribute_counts(self):
        p = 8
        keys = generate("gauss", 1 << 12, p)
        stats = measured_stats(keys, "sample", p, 11)
        assert stats.distribute.bytes_matrix.sum() == pytest.approx(
            len(keys) * 4
        )
        # Second local sort sees exactly the distributed keys.
        assert stats.local2.counts.sum() == pytest.approx(len(keys))

    def test_zero_distribution_degenerate_histogram(self):
        """All-equal keys concentrate every pass in one bucket."""
        p = 8
        keys = np.zeros(1 << 10, dtype=np.int64)
        stats = measured_stats(keys, "radix", p, 8)
        assert stats.radix_passes[0].active_buckets == 1


class TestFamilyStats:
    def test_uniform_shortcut(self):
        a = family_stats(None, "radix", 1 << 14, 16, 8)
        b = uniform_stats("radix", 1 << 14, 16, 8)
        assert a.radix_passes[0].comm.bytes_matrix.sum() == pytest.approx(
            b.radix_passes[0].comm.bytes_matrix.sum()
        )

    def test_memoized_across_models(self):
        a = family_stats("gauss", "radix", 1 << 20, 16, 8)
        b = family_stats("gauss", "radix", 1 << 20, 16, 8)
        assert a is b

    def test_labeled_size_respected(self):
        stats = family_stats("gauss", "radix", 1 << 24, 16, 8)
        assert stats.n == 1 << 24
        assert stats.radix_passes[0].comm.bytes_matrix.sum() == pytest.approx(
            (1 << 24) * 4
        )
