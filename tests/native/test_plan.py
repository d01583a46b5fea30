"""The planner: what an unpinned sort runs as, with and without a
measured table; what a pinned one keeps; which keys radix may touch;
and which artifacts the loader refuses."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.native import Plan, WorkerPool, parallel_sort, plan, plan_keys
from repro.native.plan import (
    DEFAULT_RADIX,
    PlanTable,
    default_table_path,
    load_table,
    measure_key_bits,
)

#: The measured table of docs/PERF.md ("Crossover"): int64 keys on a
#: reused 2-worker pool -- every cell must plan ``sequential``.
REFERENCE_SIZES = [1 << lg for lg in (14, 16, 18, 19, 20, 22, 23)]


class TestNoTable:
    """No artifact (the session's cache dir holds none): nothing parallel
    is guessed, on any host."""

    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    def test_reference_table_is_sequential(self, n):
        assert plan(n, 2, 31, "<i8") == Plan("sequential", 1)

    @pytest.mark.parametrize("dtype", ["<i4", "<i8", "<u8", "<f8"])
    @pytest.mark.parametrize("p", [1, 2, 4, 16, 64])
    @pytest.mark.parametrize("n", [0, 7, 1 << 14, 1 << 23, 1 << 28])
    def test_always_sequential(self, n, p, dtype):
        assert plan(n, p, 31, dtype) == Plan("sequential", 1)


class TestMeasuredTable:
    @pytest.mark.parametrize("winner", ["sequential", "sample", "radix8", "radix16"])
    def test_fastest_candidate_is_planned(self, plan_table, winner):
        plan_table(winner)
        got = plan(1 << 18, 2, 31, "<i8")
        if winner == "sequential":
            assert got == Plan("sequential", 1)
        elif winner == "sample":
            assert got == Plan("sample", 2)
        else:
            assert got == Plan("radix", 2, int(winner.removeprefix("radix")))

    def test_table_is_for_the_width_it_was_swept_at(self, plan_table):
        plan_table("sample", p=2)
        assert plan(1 << 18, 2, 31, "<i8").algorithm == "sample"
        assert plan(1 << 18, 4, 31, "<i8").algorithm == "sequential"  # unmeasured

    def test_nearest_cell_and_the_unswept_floor(self, plan_table):
        path = plan_table("sequential")
        doc = json.loads(path.read_text())
        for cell in doc["cells"]:
            if cell["log2n"] >= 20:
                cell["ms"]["sample"] = 0.5
        doc["cells"] = [c for c in doc["cells"] if c["log2n"] >= 14]
        path.write_text(json.dumps(doc))
        assert plan(1 << 13, 2, 31, "<i8").algorithm == "sequential"  # unswept
        assert plan(1 << 19, 2, 31, "<i8").algorithm == "sequential"
        assert plan((1 << 20) - 5, 2, 31, "<i8").algorithm == "sample"
        assert plan(1 << 25, 2, 31, "<i8").algorithm == "sample"  # last cell

    @pytest.mark.parametrize(
        "dtype, key_bits",
        [
            ("<f8", 64),   # floats
            ("<f4", 32),
            ("<i8", 64),   # a negative key: the sign bit is in use
            ("<i4", 32),
            ("<u8", 64),   # past 63 bits
            ("<u8", 16),   # unsigned: the kernels are signed-int64 paths
            ("<u4", 32),
        ],
    )
    def test_radix_is_never_planned_for_ineligible_keys(
        self, plan_table, dtype, key_bits
    ):
        plan_table("radix11")
        assert plan(1 << 18, 2, key_bits, dtype).algorithm != "radix"

    @pytest.mark.parametrize("dtype, key_bits", [("<i8", 63), ("<i4", 31)])
    def test_radix_is_planned_for_eligible_keys(self, plan_table, dtype, key_bits):
        plan_table("radix11")
        assert plan(1 << 18, 2, key_bits, dtype) == Plan("radix", 2, 11)

    def test_max_radix_caps_a_planned_digit_width(self, plan_table):
        """The fastest radix *that fits*: wider candidates drop out, and
        the next-fastest candidate of any kind answers."""
        path = plan_table("radix16")
        doc = json.loads(path.read_text())
        for cell in doc["cells"]:
            cell["ms"]["radix8"] = 5.0  # second to radix16
        path.write_text(json.dumps(doc))
        assert plan(1 << 18, 2, 31, "<i8") == Plan("radix", 2, 16)
        assert plan(1 << 18, 2, 31, "<i8", max_radix=15) == Plan("radix", 2, 8)
        assert plan(1 << 18, 2, 31, "<i8", max_radix=7).algorithm != "radix"
        assert plan(1 << 18, 2, 31, "<i8", "radix", max_radix=7).radix == 11

    def test_plan_keys_measures_the_sign(self, plan_table):
        plan_table("radix11")
        keys = np.arange(4096, dtype=np.int64)
        assert plan_keys(keys, 2).algorithm == "radix"
        keys[17] = -1
        assert plan_keys(keys, 2).algorithm == "sequential"
        assert measure_key_bits(keys) == 64
        assert plan_keys(keys.astype(np.float64), 2).algorithm == "sequential"
        assert plan_keys(np.arange(4096, dtype=np.uint64), 2).algorithm == "sequential"


class TestPinned:
    @pytest.mark.parametrize("winner", [None, "sequential", "sample", "radix16"])
    @pytest.mark.parametrize("algorithm", ["radix", "sample", "sequential"])
    def test_pinned_algorithm_is_never_overridden(
        self, plan_table, winner, algorithm
    ):
        if winner is not None:
            plan_table(winner)
        for n in (100, 1 << 16, 1 << 23):
            got = plan(n, 2, 31, "<i8", algorithm)
            assert got.algorithm == algorithm
            assert got.width == (1 if algorithm == "sequential" else 2)
            assert got.radix == (DEFAULT_RADIX if algorithm == "radix" else None)

    def test_pinned_plan_owns_only_the_width_cap(self):
        assert plan(7, 8, 31, "<i8", "radix").width == 1
        assert plan(8, 8, 31, "<i8", "radix").width == 2
        assert plan(1 << 20, 8, 31, "<i8", "sample").width == 8
        assert plan(0, 8, 31, "<i8", "sample").width == 1

    def test_pinned_digit_width(self):
        keys = np.arange(64, dtype=np.int64)
        assert plan_keys(keys, 2, "radix", radix=5) == Plan("radix", 2, 5)
        assert plan_keys(keys, 2, "sample", radix=5) == Plan("sample", 2)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            plan(64, 2, 31, "<i8", "quick")

    def test_phases_counts_what_the_pool_dispatches(self):
        assert Plan("sequential", 1).phases(31) == 0
        assert Plan("radix", 1, 11).phases(31) == 0  # width 1: no pool
        assert Plan("sample", 2).phases(31) == 2
        assert Plan("radix", 2, 11).phases(31) == 6
        assert Plan("radix", 2, 8).phases(16) == 4


class TestLoader:
    def test_no_artifact(self, plan_table):
        assert load_table() is None  # the fixture's fresh cache dir is empty

    def test_resolves_the_cache_dir_artifact(self, plan_table, tmp_path):
        path = plan_table("sample")
        assert default_table_path() == path
        table = load_table()
        assert isinstance(table, PlanTable) and table.p == 2
        assert load_table(path) is table  # memoized on the file's state

    @pytest.mark.parametrize(
        "overrides, why",
        [
            ({"version": 0}, "schema version"),
            ({"host": {"cpu_model": "some other machine"}}, "another host"),
            ({"cells": [{"itemsize": 8, "key_bits": 31, "log2n": 18}]}, "ms"),
            # Swept before the pool owned its slabs: parallel cells too slow.
            ({"version": 1}, "schema version"),
            # Swept through multiprocessing.Pool: ~0.6 ms per phase too slow.
            ({"version": 2}, "schema version"),
            # Swept on the argsort-grouping kernel: radix ~10 % too slow.
            ({"version": 3}, "schema version"),
            # Swept on the four-phase sample sort: sample too slow.
            ({"version": 4}, "schema version"),
            # Its host named the one native kernel.
            ({"version": 5}, "schema version"),
        ],
    )
    def test_bad_artifact_is_ignored_with_one_warning(
        self, plan_table, overrides, why
    ):
        path = plan_table("sample", **overrides)
        with pytest.warns(RuntimeWarning, match=why) as caught:
            assert load_table() is None
            assert plan(1 << 18, 2, 31, "<i8").algorithm == "sequential"
            assert plan(1 << 20, 2, 31, "<i8").algorithm == "sequential"
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert str(path) in str(caught[0].message)

    def test_corrupt_file_is_ignored(self, plan_table):
        path = plan_table("sample")
        path.write_text(path.read_text()[:100])
        with pytest.warns(RuntimeWarning, match="ignoring native plan artifact"):
            assert plan(1 << 18, 2, 31, "<i8").algorithm == "sequential"

    def test_explicit_path_that_does_not_exist(self, tmp_path):
        assert load_table(tmp_path / "nope.json") is None

    def test_tune_quick_round_trips_through_the_loader(
        self, plan_table, capsys, monkeypatch
    ):
        """``tune --quick`` writes into the cache dir; the loader accepts
        what it wrote and the planner answers from it."""
        from repro.__main__ import main
        from repro.native.tune import QUICK_SIZES

        monkeypatch.setenv("REPRO_WORKERS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fresh artifact must load clean
            assert main(["tune", "--quick"]) == 0
            table = load_table()
        assert table is not None and table.p == 2
        assert sorted(table.cells[8, 31]) == list(QUICK_SIZES)
        assert PlanTable.from_json(table.to_json()).cells == table.cells
        assert str(default_table_path()) in capsys.readouterr().out
        cell = table.cells[8, 31][QUICK_SIZES[-1]]
        best = min(cell, key=cell.get)
        got = plan(1 << QUICK_SIZES[-1], 2, 31, "<i8")
        assert (got.algorithm + (str(got.radix) if got.radix else "")) == best


class TestEveryAnswerSorts:
    DTYPES = ("<i4", "<i8", "<u4", "<u8", "<f8")

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        winner=st.sampled_from(
            [None, "sequential", "sample", "radix8", "radix11", "radix16"]
        ),
        dtype=st.sampled_from(DTYPES),
        n=st.integers(0, 4096),
        seed=st.integers(0, 2**32 - 1),
        narrow=st.booleans(),
    )
    def test_parallel_sort_equals_np_sort(
        self, plan_table, pool2, winner, dtype, n, seed, narrow
    ):
        """Whatever the plan answers -- with no table, or from a table
        won by any candidate -- ``parallel_sort(keys)`` is ``np.sort``,
        over signed, unsigned, full-range and float keys."""
        if winner is not None:
            plan_table(winner)
        else:
            plan_table("sequential").unlink()
        rng = np.random.default_rng(seed)
        dt = np.dtype(dtype)
        if dt.kind == "f":
            keys = rng.normal(size=n).astype(dt)
        else:
            info = np.iinfo(dt)
            lo, hi = (0, 1 << 16) if narrow else (info.min, info.max)
            keys = rng.integers(lo, hi, size=n, dtype=dt, endpoint=True)
        out = parallel_sort(keys, pool=pool2)
        assert out.dtype == dt
        assert np.array_equal(out, np.sort(keys))
        chosen = plan_keys(keys, 2)
        if winner is not None and winner.startswith("radix") and n >= 8:
            eligible = dt.kind == "i" and keys.min() >= 0
            assert (chosen.algorithm == "radix") == eligible


@pytest.fixture(scope="module")
def pool2():
    with WorkerPool(2) as pool:
        yield pool
