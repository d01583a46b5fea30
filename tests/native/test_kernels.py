"""Kernel-layer tests: the one kernel, primitive parity, blocked
placement stability, and the engineered sorts' fast/fallback paths."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.distributions import PAPER_ORDER, generate
from repro.native import (
    NUMPY_KERNEL,
    Kernel,
    kernels,
    parallel_radix_sort,
    parallel_sample_sort,
    resolve_kernel,
    shm,
)
from repro.native.kernels import slice_bounds
from repro.native.pool import WorkerPool
from repro.native.sample import SPLITTER_SKEW_LIMIT
from repro.sorts.common import (
    n_passes,
    partition_counts,
    spread_duplicate_splitters,
)


def _oracle_scatter(src, dst, cursor, shift, mask):
    """Textbook stable counting placement via a stable argsort: the
    k-th key with digit d (in arrival order) lands at ``cursor[d] + k``."""
    digits = (src >> shift) & mask
    order = np.argsort(digits, kind="stable")
    counts = np.bincount(digits, minlength=mask + 1)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank = np.arange(len(src)) - np.repeat(starts, counts)
    dst[np.repeat(cursor, counts) + rank] = src[order]
    cursor += counts


#: The reference the shipped kernels are held against: unblocked,
#: first-principles NumPy.  It runs through the same primitive tests as
#: the shipped kernels (param id ``naive``), so the oracle is itself
#: checked.
ORACLE_KERNEL = Kernel(
    "oracle",
    lambda a: (int(a.min()), int(a.max())),
    lambda a, shift, mask: np.bincount(
        (a >> shift) & mask, minlength=mask + 1
    ),
    _oracle_scatter,
)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(4) as p:
        yield p


class TestResolve:
    def test_default_is_numpy(self):
        """The ledger harness's contract: ``resolve_kernel()`` takes no
        argument and is the blocked NumPy kernel, named ``"numpy"``."""
        assert resolve_kernel() is NUMPY_KERNEL
        assert resolve_kernel().name == "numpy"


class TestPrimitiveParity:
    """The engineered kernels must be bit-identical to the oracle."""

    @pytest.fixture(params=["numpy", "naive"])
    def kern(self, request):
        return NUMPY_KERNEL if request.param == "numpy" else ORACLE_KERNEL

    def test_minmax(self, kern):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 1 << 31, 100_003, dtype=np.int64)
        assert kern.minmax(a) == (int(a.min()), int(a.max()))

    def test_minmax_spans_blocks(self, kern, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", 7)
        a = np.arange(100, dtype=np.int64)
        a[93] = -5  # extremum in a trailing partial block
        assert kern.minmax(a) == (-5, 99)

    def test_histogram(self, kern):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 1 << 22, 50_001, dtype=np.int64)
        for shift in (0, 11):
            got = kern.histogram(a, shift, (1 << 11) - 1)
            want = np.bincount((a >> shift) & ((1 << 11) - 1),
                               minlength=1 << 11)
            assert np.array_equal(got, want)
            assert got.sum() == len(a)

    def test_scatter_is_stable_counting_placement(self, kern):
        # Keys whose low 2 bits collide but whose high bits identify the
        # original order: stability means equal digits keep that order.
        src = np.array([0b100, 0b001, 0b1000, 0b101, 0b1100, 0b010],
                       dtype=np.int64)
        mask = 0b11
        counts = np.bincount(src & mask, minlength=mask + 1)
        cursor = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
        dst = np.full(len(src), -1, dtype=np.int64)
        kern.scatter(src, dst, cursor, 0, mask)
        # digit 0 keys in original order, then digit 1 keys, then digit 2.
        assert dst.tolist() == [0b100, 0b1000, 0b1100, 0b001, 0b101, 0b010]
        # Cursors advanced past each bucket.
        assert np.array_equal(
            cursor, np.cumsum(counts).astype(np.int64)
        )

    def test_scatter_blocked_matches_naive(self, kern, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", 13)  # force many blocks
        rng = np.random.default_rng(9)
        src = rng.integers(0, 1 << 20, 997, dtype=np.int64)
        mask = (1 << 5) - 1
        counts = np.bincount(src & mask, minlength=mask + 1)
        base = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
        want = np.empty_like(src)
        ORACLE_KERNEL.scatter(src, want, base.copy(), 0, mask)
        got = np.empty_like(src)
        kern.scatter(src, got, base.copy(), 0, mask)
        assert np.array_equal(got, want)


def _assert_numpy_matches_oracle(keys, shift, radix, pad_seed):
    """``NUMPY_KERNEL`` and the oracle on the same keys and cursors:
    equal histograms, equal ``dst`` (gaps between buckets included) and
    equal advanced cursors."""
    mask = (1 << radix) - 1
    want_hist = ORACLE_KERNEL.histogram(keys, shift, mask)
    assert np.array_equal(NUMPY_KERNEL.histogram(keys, shift, mask), want_hist)
    # Buckets start at arbitrary, non-overlapping cursors, as a worker's
    # row of the global offset matrix does.
    pad = np.random.default_rng(pad_seed).integers(0, 2, mask + 1)
    room = want_hist + pad
    cursor = np.concatenate(([0], np.cumsum(room)[:-1])).astype(np.int64)
    want = np.full(int(room.sum()), -1, dtype=np.int64)
    got = want.copy()
    want_cursor, got_cursor = cursor.copy(), cursor.copy()
    ORACLE_KERNEL.scatter(keys, want, want_cursor, shift, mask)
    NUMPY_KERNEL.scatter(keys, got, got_cursor, shift, mask)
    assert np.array_equal(got, want)
    assert np.array_equal(got_cursor, want_cursor)


class TestNumpyKernelProperties:
    """The shipped blocked kernel against the oracle for any block size,
    digit width, shift and key range -- including both packed-key dtypes
    of its grouping sort."""

    @pytest.mark.parametrize("block", [7, 13, None])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matches_oracle(self, block, data):
        b = block or kernels.BLOCK_ELEMS
        # From empty to three full blocks plus a partial one.
        n = data.draw(st.integers(0, 3)) * b + data.draw(st.integers(0, b - 1))
        radix = data.draw(st.integers(1, 20))
        shift = data.draw(st.integers(0, 43))
        key_bits = data.draw(st.integers(1, 62))
        seed = data.draw(st.integers(0, 2**32 - 1))
        keys = np.random.default_rng(seed).integers(0, 1 << key_bits, n, dtype=np.int64)
        with mock.patch.object(kernels, "BLOCK_ELEMS", b):
            _assert_numpy_matches_oracle(keys, shift, radix, seed)

    @pytest.mark.parametrize("bits", [32, 33])
    def test_packing_boundary(self, bits):
        """``radix + idx_bits`` = 32 still packs into uint32 and 33 needs
        uint64: either way a digit's top bit must survive the packing."""
        idx_bits = (kernels.BLOCK_ELEMS - 1).bit_length()
        radix = bits - idx_bits
        assert 1 <= radix <= 20
        n = 2 * kernels.BLOCK_ELEMS + 5
        keys = np.random.default_rng(bits).integers(0, 1 << 62, n, dtype=np.int64)
        # The digit is the keys' top bits, so its top bit is set in half.
        _assert_numpy_matches_oracle(keys, 62 - radix, radix, bits)

    @pytest.mark.parametrize("radix", [16, 17, 20])
    def test_wide_digits_through_the_pool(self, pool, radix):
        """Past r = 16 (more than 2**16 buckets) end to end, with at least
        two blocks per worker."""
        n = 2 * pool.n_workers * kernels.BLOCK_ELEMS + 3
        keys = np.random.default_rng(radix).integers(0, 1 << 40, n, dtype=np.int64)
        out = parallel_radix_sort(keys, pool=pool, radix=radix)
        assert np.array_equal(out, np.sort(keys))


class TestEngineeredRadix:
    def test_all_paper_distributions_parity(self, pool):
        """The radix sort vs np.sort on every paper input."""
        for dist in PAPER_ORDER:
            keys = generate(dist, 1 << 13, 4, seed=11)
            out = parallel_radix_sort(keys, pool=pool)
            assert np.array_equal(out, np.sort(keys)), dist

    def test_adversarial_duplicates(self, pool):
        rng = np.random.default_rng(12)
        n = 1 << 13
        heavy = np.where(
            rng.random(n) < 0.9, 42, rng.integers(0, 1 << 20, n)
        ).astype(np.int64)
        sawtooth = (np.arange(n, dtype=np.int64) % 7) << 40
        for keys in (heavy, sawtooth):
            out = parallel_radix_sort(keys, pool=pool)
            assert np.array_equal(out, np.sort(keys))

    def test_stability_across_passes(self, pool):
        """Multi-pass placement must be stable pass over pass: sorting
        (hi << r | lo) keys orders lo within equal hi iff every pass kept
        equal digits in arrival order."""
        rng = np.random.default_rng(13)
        lo = rng.permutation(1 << 10).astype(np.int64)
        hi = rng.integers(0, 4, 1 << 10, dtype=np.int64)
        keys = (hi << 20) | lo
        out = parallel_radix_sort(keys, pool=pool, radix=5)
        assert np.array_equal(out, np.sort(keys))

    def test_p1_fast_path_skips_shared_memory(self):
        before = shm.create_count()
        out = parallel_radix_sort(np.array([9, 3, 7, 1], dtype=np.int64),
                                  n_workers=8)
        assert out.tolist() == [1, 3, 7, 9]
        assert shm.create_count() == before

    def test_p1_fast_path_still_validates(self):
        with pytest.raises(ValueError, match="non-negative"):
            parallel_radix_sort(np.array([-3], dtype=np.int64), n_workers=1)
        with pytest.raises(TypeError):
            parallel_radix_sort(np.array([0.5]), n_workers=1)

    def test_fused_minmax_sizes_pass_count(self):
        """key_bits comes from the fused validation scan's max: 15-bit
        keys at radix 8 must run 2 passes (4 timed phases), not the
        31-bit worst case's 4."""
        with WorkerPool(2, collect_timings=True) as pool:
            keys = np.arange(1 << 10, dtype=np.int64) | (1 << 14)
            parallel_radix_sort(keys, pool=pool, radix=8)
            expected = 2 * n_passes(8, 15)
            assert len(pool.timings) == expected


class TestSampleRebalance:
    def test_matches_simulated_partition_counts(self):
        """Spreading raw ``searchsorted`` counts in place, as the native
        sample sort does, must produce exactly the count matrix the
        simulated sorts' partition_counts computes."""
        rng = np.random.default_rng(15)
        n, p = 4096, 4
        keys = np.where(
            rng.random(n) < 0.6, 100, rng.integers(0, 1000, n)
        ).astype(np.int64)
        runs = np.concatenate(
            [np.sort(keys[lo:hi])
             for lo, hi in (slice_bounds(n, p, w) for w in range(p))]
        )
        parts = [runs[slice(*slice_bounds(n, p, w))] for w in range(p)]
        splitters = np.array([100, 100, 100], dtype=np.int64)
        want = partition_counts(parts, splitters)

        counts = np.zeros((p, p), dtype=np.int64)
        for w, part in enumerate(parts):
            edges = np.searchsorted(part, splitters, side="right")
            counts[w] = np.diff(np.concatenate(([0], edges, [len(part)])))
        assert spread_duplicate_splitters(counts, splitters, parts) == 1
        assert np.array_equal(counts, want)

    def test_distinct_splitters_untouched(self):
        n, p = 64, 4
        parts = np.split(np.arange(n, dtype=np.int64), p)
        splitters = np.array([15, 31, 47], dtype=np.int64)
        counts = np.full((p, p), 4, dtype=np.int64)
        before = counts.copy()
        assert spread_duplicate_splitters(counts, splitters, parts) == 0
        assert np.array_equal(counts, before)

    def test_duplicate_heavy_sample_sort(self, pool):
        rng = np.random.default_rng(16)
        n = 1 << 13
        keys = np.where(
            rng.random(n) < 0.9, 7, rng.integers(0, 1 << 20, n)
        ).astype(np.int64)
        out = parallel_sample_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))

    def test_constant_keys(self, pool):
        keys = np.full(1 << 12, 5, dtype=np.int64)
        out = parallel_sample_sort(keys, pool=pool)
        assert np.array_equal(out, keys)

    def test_skew_fallback_still_sorts(self, pool, monkeypatch):
        """A (monkeypatched) zero skew budget forces the sequential
        fallback after the count phase; the result must still be
        correct and the shared buffers released."""
        from repro.native import sample

        monkeypatch.setattr(sample, "SPLITTER_SKEW_LIMIT", 0.0)
        keys = generate("random", 1 << 12, 4, seed=17)
        out = parallel_sample_sort(keys, pool=pool)
        assert np.array_equal(out, np.sort(keys))

    def test_p1_fast_path_builds_no_pool_and_no_segment(self, monkeypatch):
        """n < 8 (one worker's worth) must not construct a WorkerPool or
        a shared segment, as radix sort's fast path guarantees."""
        def no_pool(*args, **kwargs):
            raise AssertionError("tiny input constructed a WorkerPool")

        monkeypatch.setattr("repro.native.WorkerPool", no_pool)
        before = shm.create_count()
        out = parallel_sample_sort(np.array([9, 3, 7, 1], dtype=np.int64),
                                   n_workers=8)
        assert out.tolist() == [1, 3, 7, 9]
        assert shm.create_count() == before

    def test_skew_limit_is_sane(self):
        assert SPLITTER_SKEW_LIMIT >= 1.0


class TestSliceBounds:
    def test_covers_exactly(self):
        for n in (10, 16, 17):
            for p in (1, 3, 4):
                spans = [slice_bounds(n, p, w) for w in range(p)]
                assert spans[0][0] == 0 and spans[-1][1] == n
                for (a, b), (c, d) in zip(spans, spans[1:]):
                    assert b == c and b >= a
