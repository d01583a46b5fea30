"""One native sort driver: whichever entry point starts a sort,
``repro.native.run_plan`` validates the keys, answers the plans that
need no pool, and runs exactly the plan's phases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.native import (
    Plan,
    WorkerPool,
    parallel_radix_sort,
    parallel_sample_sort,
    parallel_sort,
    run_plan,
    shm,
)
from repro.native.plan import measure_key_bits
from repro.serve.engine import SortEngine
from repro.stream import external_sort


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2, collect_timings=True) as p:
        yield p


@pytest.fixture(scope="module")
def engine():
    with SortEngine(n_workers=2) as eng:
        eng.warmup()
        yield eng


def _keys(n: int, bits: int = 31, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << bits, n, dtype=np.int64)


#: Entry points that can pin the radix sort: ``(keys, radix, pool, engine)``.
RADIX_ENTRIES = {
    "parallel_sort": lambda k, r, pool, eng: parallel_sort(
        k, "radix", pool=pool, radix=r
    ),
    "parallel_radix_sort": lambda k, r, pool, eng: parallel_radix_sort(
        k, pool=pool, radix=r
    ),
    "engine": lambda k, r, pool, eng: eng.sort(k, "radix", r)[0],
}

#: Every entry point, sorting however it likes: ``(keys, pool, engine)``.
ANY_ENTRIES = {
    **{
        name: (lambda k, pool, eng, fn=fn: fn(k, 11, pool, eng))
        for name, fn in RADIX_ENTRIES.items()
    },
    "parallel_sort-unpinned": lambda k, pool, eng: parallel_sort(k, pool=pool),
    "parallel_sample_sort": lambda k, pool, eng: parallel_sample_sort(k, pool=pool),
    "engine-unpinned": lambda k, pool, eng: eng.sort(k)[0],
}


class TestSameRejections:
    """One set of checks, in the driver: the exception and its message do
    not depend on the door.  (``external_sort`` refuses a 2-D source at
    ingest, as a ``StreamError``, and its chunk sort is never pinned, so
    nothing below can reach the driver through it.)"""

    @pytest.mark.parametrize("entry", sorted(ANY_ENTRIES))
    def test_two_dimensional_keys(self, entry, pool, engine):
        with pytest.raises(ValueError, match="^keys must be one-dimensional$"):
            ANY_ENTRIES[entry](np.zeros((4, 4), dtype=np.int64), pool, engine)

    @pytest.mark.parametrize("entry", sorted(RADIX_ENTRIES))
    @pytest.mark.parametrize(
        "keys, radix, exc, message",
        [
            (np.array([1.5, 0.5] * 8), 11, TypeError,
             "radix sort requires integer keys"),
            (np.array([3, -1] * 8), 11, ValueError,
             "radix sort requires non-negative keys"),
            (np.arange(16), 0, ValueError, r"radix must be in \[1, 20\]"),
            (np.arange(16), 21, ValueError, r"radix must be in \[1, 20\]"),
        ],
        ids=["float", "negative", "radix0", "radix21"],
    )
    def test_radix_domain(self, entry, keys, radix, exc, message, pool, engine):
        with pytest.raises(exc, match=f"^{message}$"):
            RADIX_ENTRIES[entry](keys, radix, pool, engine)
        assert pool.arena.in_use() == engine.arena.in_use() == 0

    def test_unpinned_digit_width_is_checked_when_radix_is_planned(
        self, host_model, pool
    ):
        host_model("radix")
        with pytest.raises(ValueError, match=r"^radix must be in \[1, 20\]$"):
            parallel_sort(_keys(4096), pool=pool, radix=21)


class TestKernelArgument:
    """There is one native kernel: no entry point takes ``kernel=``, and
    no keyword the driver does not know passes through it."""

    @pytest.mark.parametrize("algorithm", ["radix", "sample", "sequential", None])
    @pytest.mark.parametrize("n", [0, 5_000])
    def test_unknown_kernel_is_refused_whatever_the_plan(self, algorithm, n, pool):
        with pytest.raises(TypeError, match="kernel"):
            parallel_sort(_keys(n), algorithm, pool=pool, kernel="fortran")

    def test_no_other_keyword_passes_through(self, pool):
        keys = _keys(64)
        with pytest.raises(TypeError):
            parallel_sort(keys, "sample", pool=pool, samples_per_worker=8)
        for sort in (
            lambda: run_plan(keys, Plan("radix", 2, 11), pool=pool, kernel="numpy"),
            lambda: parallel_sort(keys, "radix", pool=pool, kernel="numpy"),
            lambda: parallel_radix_sort(keys, pool=pool, kernel="numpy"),
        ):
            with pytest.raises(TypeError, match="kernel"):
                sort()


class TestNoPoolNoSegment:
    """Empty and width-1 inputs are one ``np.sort`` in the caller: no
    worker forked, no slab leased, no phase run."""

    @pytest.mark.parametrize("entry", sorted(ANY_ENTRIES))
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_on_a_given_pool(self, entry, n, pool, engine):
        keys = _keys(n, bits=20, seed=n)
        pool.timings.clear()
        engine.pool.timings.clear()
        creates = shm.create_count()
        leases = pool.arena.leases, engine.arena.leases
        out = ANY_ENTRIES[entry](keys, pool, engine)
        assert np.array_equal(out, np.sort(keys)) and out is not keys
        assert shm.create_count() == creates
        assert (pool.arena.leases, engine.arena.leases) == leases
        assert pool.timings == engine.pool.timings == []

    @pytest.mark.parametrize("n", [0, 7])
    def test_own_pool_is_never_built(self, n, monkeypatch, tmp_path):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for a sort that needs none")

        monkeypatch.setattr("repro.native.WorkerPool", no_pool)
        monkeypatch.setattr("repro.stream.external.WorkerPool", no_pool)
        keys = _keys(n)
        for sort in (parallel_sort, parallel_radix_sort, parallel_sample_sort):
            assert np.array_equal(sort(keys, n_workers=2), np.sort(keys))
        result = external_sort(
            keys, chunk_keys=4, n_workers=2, workdir=tmp_path,
            out=tmp_path / "out.bin",
        )
        assert result.n_keys == n


class TestPhaseCount:
    """A parallel plan dispatches exactly ``Plan.phases(key_bits)`` pool
    phases, whichever entry point started it."""

    @pytest.mark.parametrize("entry", sorted(RADIX_ENTRIES))
    @pytest.mark.parametrize("bits, radix", [(16, 8), (31, 11), (40, 16)])
    def test_radix(self, entry, bits, radix, pool, engine):
        keys = _keys(6_000, bits)
        chosen = Plan("radix", 2, radix)
        for p in (pool, engine.pool):
            p.timings.clear()
        out = RADIX_ENTRIES[entry](keys, radix, pool, engine)
        assert np.array_equal(out, np.sort(keys))
        ran = pool.timings + engine.pool.timings
        assert len(ran) == chosen.phases(measure_key_bits(keys))
        assert all(len(t.tasks) == chosen.width for t in ran)

    @pytest.mark.parametrize(
        "sort",
        [
            lambda k, pool, eng: parallel_sort(k, "sample", pool=pool),
            lambda k, pool, eng: parallel_sample_sort(k, pool=pool),
            lambda k, pool, eng: run_plan(k, Plan("sample", 2), pool=pool),
            lambda k, pool, eng: eng.sort(k, "sample")[0],
        ],
        ids=["parallel_sort", "parallel_sample_sort", "run_plan", "engine"],
    )
    def test_sample(self, sort, pool, engine):
        keys = _keys(6_000)
        for p in (pool, engine.pool):
            p.timings.clear()
        assert np.array_equal(sort(keys, pool, engine), np.sort(keys))
        names = [t.name for t in pool.timings + engine.pool.timings]
        assert names == ["local-sort", "merge"]
        assert len(names) == Plan("sample", 2).phases(31)

    @pytest.mark.parametrize("winner", ["sample", "radix8", "sequential"])
    def test_planned_sorts_and_external_chunks(
        self, winner, host_model, pool, engine, tmp_path
    ):
        if winner == "radix8":
            # 16-bit keys: a per-bucket cost makes two passes of 256
            # buckets the cheapest radix at every size sorted here.
            host_model("radix", bucket_ns=1.0)
        else:
            host_model(winner)
        keys = _keys(8_000, bits=16)
        name, _, width = winner.partition("radix")
        chosen = (
            Plan("radix", 2, int(width)) if width
            else Plan(name, 2 if name == "sample" else 1)
        )
        per_sort = chosen.phases(measure_key_bits(keys))
        for sort, sorts in (
            (lambda: parallel_sort(keys, pool=pool), 1),
            (lambda: engine.sort(keys)[0], 1),
            (lambda: external_sort(
                keys, chunk_keys=2_000, fan_in=8, pool=pool, workdir=tmp_path,
                out=tmp_path / "out.bin"), 4),
        ):
            for p in (pool, engine.pool):
                p.timings.clear()
            sort()
            ran = pool.timings + engine.pool.timings
            assert len(ran) == sorts * per_sort
            if name == "sample":
                assert [t.name for t in ran] == ["local-sort", "merge"] * sorts


def test_skewed_sample_sort_reports_back_to_the_driver(pool, monkeypatch):
    """Splitters too skewed to be worth finishing (forced: a zero
    budget): the phase program stops after its local sorts and the
    driver, not the module, answers with ``np.sort``."""
    monkeypatch.setattr("repro.native.sample.SPLITTER_SKEW_LIMIT", 0.0)
    keys = _keys(4_000)
    pool.timings.clear()
    out = parallel_sample_sort(keys, pool=pool)
    assert np.array_equal(out, np.sort(keys))
    assert [t.name for t in pool.timings] == ["local-sort"]
    assert pool.arena.in_use() == 0
