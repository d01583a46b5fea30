"""The planner: what an unpinned sort runs as, with and without a host
model; what a pinned one keeps; which keys radix may touch; and which
artifacts the loader refuses."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.native import Plan, WorkerPool, parallel_sort, plan, plan_keys
from repro.native.plan import (
    ALGORITHMS,
    DEFAULT_RADIX,
    SEQUENTIAL,
    HostModel,
    default_model_path,
    full_bits,
    host_fingerprint,
    load_model,
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


#: Host models named by the plan they win: a preset, plus a per-bucket
#: cost that makes one digit width the cheapest for 2**18 31-bit keys on
#: two workers (8 bits: four passes of 256 buckets beat three of 2048;
#: 16 bits: two passes of 65536 beat three of 2048).
WINNERS = {
    "sequential": ("sequential", {}),
    "sample": ("sample", {}),
    "radix8": ("radix", {"bucket_ns": 20.0}),
    "radix16": ("radix", {"bucket_ns": 0.1}),
}


class TestMeasuredTable:
    """A host model on disk: the cheapest candidate it prices is planned."""

    @pytest.mark.parametrize("winner", ["sequential", "sample", "radix8", "radix16"])
    def test_fastest_candidate_is_planned(self, host_model, winner):
        preset, constants = WINNERS[winner]
        host_model(preset, **constants)
        got = plan(1 << 18, 2, 31, "<i8")
        if winner == "sequential":
            assert got == Plan("sequential", 1)
        elif winner == "sample":
            assert got == Plan("sample", 2)
        else:
            assert got == Plan("radix", 2, int(winner.removeprefix("radix")))

    def test_the_model_speaks_for_any_width(self, host_model):
        host_model("sample")
        assert plan(1 << 18, 4, 31, "<i8") == Plan("sample", 4)
        assert plan(1 << 18, 64, 31, "<i8") == Plan("sample", 64)
        assert plan(1 << 4, 64, 31, "<i8") == Plan("sample", 4)

    def test_a_parallel_plan_must_win_by_the_residual(self, host_model):
        """The sample preset prices sample sort at about half of
        ``np.sort`` on two workers: a residual past that margin plans
        ``sequential``."""
        host_model("sample", residual=0.4)
        assert plan(1 << 18, 2, 31, "<i8") == Plan("sample", 2)
        host_model("sample", residual=0.6)
        assert plan(1 << 18, 2, 31, "<i8") == SEQUENTIAL

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
        self, host_model, dtype, key_bits
    ):
        host_model("radix")
        assert plan(1 << 18, 2, key_bits, dtype).algorithm != "radix"

    @pytest.mark.parametrize("dtype, key_bits", [("<i8", 63), ("<i4", 31)])
    def test_radix_is_planned_for_eligible_keys(self, host_model, dtype, key_bits):
        host_model("radix")
        assert plan(1 << 18, 2, key_bits, dtype) == Plan("radix", 2, 20)

    def test_max_radix_caps_a_planned_digit_width(self, host_model):
        """The cheapest radix *that fits*: wider digits drop out, and
        with no width left the next-cheapest candidate of any kind
        answers."""
        host_model("radix")
        assert plan(1 << 18, 2, 31, "<i8", max_radix=15) == Plan("radix", 2, 15)
        assert plan(1 << 18, 2, 31, "<i8", max_radix=7) == Plan("radix", 2, 7)
        assert plan(1 << 18, 2, 31, "<i8", max_radix=0).algorithm != "radix"
        assert plan(1 << 18, 2, 31, "<i8", max_radix=-1).algorithm != "radix"
        assert plan(1 << 18, 2, 31, "<i8", "radix", max_radix=7).radix == 11

    def test_plan_keys_measures_the_sign(self, host_model):
        host_model("radix")
        keys = np.arange(4096, dtype=np.int64)
        assert plan_keys(keys, 2) == Plan("radix", 2, 20)
        keys[17] = -1
        assert plan_keys(keys, 2).algorithm == "sequential"
        assert measure_key_bits(keys) == 64
        assert plan_keys(keys.astype(np.float64), 2).algorithm == "sequential"
        assert plan_keys(np.arange(4096, dtype=np.uint64), 2).algorithm == "sequential"


class TestPinned:
    @pytest.mark.parametrize("winner", [None, "sequential", "sample", "radix16"])
    @pytest.mark.parametrize("algorithm", ["radix", "sample", "sequential"])
    def test_pinned_algorithm_is_never_overridden(
        self, host_model, winner, algorithm
    ):
        if winner is not None:
            preset, constants = WINNERS[winner]
            host_model(preset, **constants)
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
    def test_no_artifact(self, host_model):
        assert load_model() is None  # the fixture's fresh cache dir is empty

    def test_resolves_the_cache_dir_artifact(self, host_model, tmp_path):
        path = host_model("sample")
        assert default_model_path() == path
        model = load_model()
        assert isinstance(model, HostModel) and model.merge_ns == 0.0
        assert load_model(path) is model  # memoized on the file's state

    def test_memo_picks_up_a_fresh_artifact(self, host_model):
        host_model("sample")
        assert plan(1 << 18, 2, 31, "<i8") == Plan("sample", 2)
        host_model("radix")
        assert plan(1 << 18, 2, 31, "<i8") == Plan("radix", 2, 20)

    @pytest.mark.parametrize(
        "overrides, why",
        [
            # The swept table this model replaced, at each of its schema
            # versions: a document HostModel(**doc) refuses.
            pytest.param({"version": 0}, "unexpected keyword argument 'version'",
                         id="overrides0-schema version"),
            pytest.param({"host": {"cpu_model": "some other machine"}},
                         "another host", id="overrides1-another host"),
            pytest.param({"cells": [{"itemsize": 8, "key_bits": 31, "log2n": 18}]},
                         "unexpected keyword argument 'cells'", id="overrides2-ms"),
            *(
                pytest.param({"version": v}, "unexpected keyword argument 'version'",
                             id=f"overrides{v + 2}-schema version")
                for v in range(1, 6)
            ),
            # Constants the model refuses.
            ({"residual": -0.5}, "residual must be a non-negative number"),
            ({"sort_ns": "fast"}, "sort_ns must be a non-negative number"),
            ({"floor_ns": math.inf}, "floor_ns must be a non-negative number"),
            ({"bucket_ns": None}, "bucket_ns must be a non-negative number"),
            ({"width": 2}, "unexpected keyword argument 'width'"),
        ],
    )
    def test_bad_artifact_is_ignored_with_one_warning(
        self, host_model, overrides, why
    ):
        path = host_model("sample", **overrides)
        with pytest.warns(RuntimeWarning, match=why) as caught:
            assert load_model() is None
            assert plan(1 << 18, 2, 31, "<i8").algorithm == "sequential"
            assert plan(1 << 20, 2, 31, "<i8").algorithm == "sequential"
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert str(path) in str(caught[0].message)

    def test_a_missing_constant_is_refused(self, host_model):
        path = host_model("sample")
        doc = json.loads(path.read_text())
        del doc["merge_ns"]
        path.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="merge_ns"):
            assert plan(1 << 18, 2, 31, "<i8").algorithm == "sequential"

    def test_corrupt_file_is_ignored(self, host_model):
        path = host_model("sample")
        path.write_text(path.read_text()[:100])
        with pytest.warns(RuntimeWarning, match="ignoring native plan artifact"):
            assert plan(1 << 18, 2, 31, "<i8").algorithm == "sequential"

    def test_explicit_path_that_does_not_exist(self, tmp_path):
        assert load_model(tmp_path / "nope.json") is None

    def test_tune_round_trips_through_the_loader(
        self, host_model, capsys, monkeypatch
    ):
        """``tune`` writes into the cache dir; the loader accepts what it
        wrote and the planner answers from it."""
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_WORKERS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fresh artifact must load clean
            assert main(["tune"]) == 0
            model = load_model()
        assert model is not None and HostModel(**asdict(model)) == model
        assert 0 <= model.residual < math.inf and model.sort_ns > 0
        out = capsys.readouterr().out
        assert str(default_model_path()) in out
        assert out.count("radix11") == 4 and "median residual" in out
        n = 1 << 18

        def price(c: Plan) -> float:
            return model.seconds(c, n, 31, 8)

        cheapest = min(
            [Plan("sample", 2), *(Plan("radix", 2, r) for r in range(20, 0, -1))],
            key=price,
        )
        margin = (1 - model.residual) * price(SEQUENTIAL)
        want = cheapest if price(cheapest) < margin else SEQUENTIAL
        assert plan(n, 2, 31, "<i8") == want


#: Arbitrary constants of a host model: every field but ``host``.
_CONSTANTS = st.fixed_dictionaries({
    name: st.floats(0, 1e6) for name in (
        "sort_ns", "copy_in_ns", "copy_out_ns", "floor_ns", "merge_ns",
        "histogram_ns", "scatter_ns", "bucket_ns",
    )
} | {"residual": st.floats(0, 1)})

#: docs/PERF.md's reference host (2 vCPU): ``np.sort`` 1.40 ns/B at
#: 2**22 int64 keys, copy-in 0.09 and result copy 0.30 ns/B, a 200 us
#: phase floor, histogram 2.3 and scatter 14.6 ns/key; the two-run
#: merge, bucket cost and residual as ``tune`` measured them there.
REFERENCE = {
    "sort_ns": 1.40 / 22, "copy_in_ns": 0.09, "copy_out_ns": 0.30,
    "floor_ns": 200_000.0, "histogram_ns": 2.3, "scatter_ns": 14.6,
    "merge_ns": 11.3, "bucket_ns": 16.5, "residual": 0.24,
}

_HYPOTHESIS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
_DTYPES = ["<i1", "<i2", "<i4", "<i8", "<u1", "<u4", "<u8", "<f4", "<f8"]


class TestModelProperties:
    @_HYPOTHESIS
    @given(
        constants=_CONSTANTS,
        n=st.integers(8, 1 << 40),
        width=st.integers(2, 256),
        radix=st.integers(1, 20),
        itemsize=st.sampled_from([1, 2, 4, 8]),
        bits=st.tuples(st.integers(1, 64), st.integers(1, 64)).map(sorted),
    )
    def test_radix_never_gets_cheaper_with_wider_keys(
        self, constants, n, width, radix, itemsize, bits
    ):
        """What lets :func:`plan_keys` skip the min/max pass unless radix
        wins on 1-bit keys."""
        model = HostModel(**constants, host={"cpu_count": 4})
        chosen = Plan("radix", width, radix)
        narrow, wide = (model.seconds(chosen, n, b, itemsize) for b in bits)
        assert narrow <= wide

    @_HYPOTHESIS
    @given(
        constants=_CONSTANTS,
        n=st.integers(8, 1 << 30),
        p=st.integers(2, 64),
        dtype=st.sampled_from(_DTYPES),
        bits=st.integers(1, 64),
        max_radix=st.integers(1, 20),
    )
    def test_radix_only_for_eligible_keys(
        self, host_model, constants, n, p, dtype, bits, max_radix
    ):
        """With ``np.sort`` and the merge priced out of reach, radix is
        planned for non-negative keys of a signed dtype, and never for
        unsigned, float or negative ones (a signed dtype's full width)."""
        host_model("radix", **{**constants, "sort_ns": 1e9, "merge_ns": 1e9,
                                "residual": 0.0})
        dt = np.dtype(dtype)
        bits = min(bits, full_bits(dt))
        got = plan(n, p, bits, dt, max_radix=max_radix)
        eligible = dt.kind == "i" and bits < full_bits(dt)
        assert (got.algorithm == "radix") == eligible
        assert got.radix is None or got.radix <= max_radix

    @_HYPOTHESIS
    @given(
        constants=_CONSTANTS,
        n=st.integers(0, 1 << 30),
        p=st.integers(1, 64),
        dtype=st.sampled_from(_DTYPES),
        bits=st.integers(1, 64),
        algorithm=st.sampled_from([None, *ALGORITHMS]),
        max_radix=st.integers(-1, 20),
    )
    def test_pinned_is_kept_and_width_is_capped(
        self, host_model, constants, n, p, dtype, bits, algorithm, max_radix
    ):
        """Whatever the constants: a pinned algorithm is what runs, and a
        parallel plan has at least four keys per worker."""
        host_model("sample", **constants)
        dt = np.dtype(dtype)
        got = plan(n, p, min(bits, full_bits(dt)), dt, algorithm, max_radix)
        if algorithm is not None:
            assert got.algorithm == algorithm
        assert got.width == 1 or 2 <= got.width <= min(p, n // 4)

    def test_work_is_split_over_at_most_the_hosts_cpus(self):
        two, eight = (HostModel(**REFERENCE, host={"cpu_count": c}) for c in (2, 8))

        def price(model: HostModel, width: int) -> float:
            return model.seconds(Plan("sample", width), 1 << 20, 31, 8)

        assert price(two, 8) == price(two, 2) == price(eight, 2) > price(eight, 8)

    @pytest.mark.parametrize(
        "dtype", ["<i2", "<i4", "<i8", "<u2", "<u4", "<u8", "<f4", "<f8"]
    )
    def test_reference_host_plans_sequential_at_two_workers(
        self, host_model, dtype
    ):
        """The kill criterion as code: under the reference host's
        constants no n from 2**10 to 2**28 of any key class (the widths
        the swept table had, and the dtype's full width) plans a
        parallel sort on two workers."""
        host_model("sample", **REFERENCE, host={**host_fingerprint(), "cpu_count": 2})
        dt = np.dtype(dtype)
        for bits in {b for b in (16, 31, 63) if b < full_bits(dt)} | {full_bits(dt)}:
            for lg in range(10, 29):
                assert plan(1 << lg, 2, bits, dt) == SEQUENTIAL, (bits, lg)


class TestEveryAnswerSorts:
    DTYPES = ("<i4", "<i8", "<u4", "<u8", "<f8")

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        preset=st.sampled_from([None, "sequential", "sample", "radix"]),
        dtype=st.sampled_from(DTYPES),
        n=st.integers(0, 4096),
        seed=st.integers(0, 2**32 - 1),
        narrow=st.booleans(),
    )
    def test_parallel_sort_equals_np_sort(
        self, host_model, pool2, preset, dtype, n, seed, narrow
    ):
        """Whatever the plan answers -- with no model, or from a model
        that prices any candidate cheapest -- ``parallel_sort(keys)`` is
        ``np.sort``, over signed, unsigned, full-range and float keys."""
        if preset is not None:
            host_model(preset)
        else:
            host_model("sequential").unlink()
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
        if preset == "radix" and n >= 8:
            eligible = dt.kind == "i" and keys.min() >= 0
            assert (chosen.algorithm == "radix") == eligible


@pytest.fixture(scope="module")
def pool2():
    with WorkerPool(2) as pool:
        yield pool
