"""Sample sort in two pool phases: ``local-sort``, then one ``merge`` task
per destination that pulls its runs and sorts them -- with no sort when
one run is non-empty, timsort when two are, the default sort from
three up."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, use_fault_plan
from repro.native import Plan, WorkerPool, run_plan, shm
from repro.native.sample import _merge_task


@pytest.fixture(scope="module")
def pool():
    """Four workers: room for every width the tests run (a phase of
    fewer tasks than workers leaves the rest idle)."""
    with WorkerPool(4) as p:
        yield p


@contextmanager
def _merge_tasks(pool: WorkerPool):
    """Record the task payloads of every ``merge`` phase ``pool`` runs."""
    sent, run_phase = [], pool.run_phase

    def recorded(fn, tasks, **kwargs):
        tasks = list(tasks)
        if kwargs.get("name") == "merge":
            sent.extend(tasks)
        return run_phase(fn, tasks, **kwargs)

    pool.run_phase = recorded
    try:
        yield sent
    finally:
        del pool.run_phase


def _keys(dtype: str, shape: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "equal":
        return np.full(n, 7, dtype=dtype)
    if shape == "duplicates":
        return rng.integers(0, 3, n).astype(dtype)
    if shape == "sorted":  # each destination's keys come from few slices
        return np.arange(n).astype(dtype)
    if dtype == "<f8":
        keys = rng.standard_normal(n)
        special = rng.random(n) < 0.1
        keys[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], special.sum())
        return keys
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)


@given(
    dtype=st.sampled_from(["<i4", "<i8", "<u8", "<f8"]),
    shape=st.sampled_from(["random", "duplicates", "equal", "sorted"]),
    p=st.sampled_from([2, 3, 4]),
    extra=st.integers(0, 3_000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_sample_sort_equals_np_sort(pool, dtype, shape, p, extra, seed):
    keys = _keys(dtype, shape, 4 * p + extra, seed)
    with _merge_tasks(pool) as merges:
        out = run_plan(keys, Plan("sample", p), pool=pool)
    assert out.dtype == keys.dtype
    assert np.array_equal(out, np.sort(keys), equal_nan=True)
    for task in merges:
        event(f"{min(len(task[3]), 3)} non-empty runs")


@pytest.mark.parametrize(
    "keys, p, runs",
    [
        (_keys("<i8", "equal", 64, 0), 2, [2, 0]),
        (_keys("<i8", "sorted", 64, 0), 2, [2, 1]),
        (_keys("<i8", "random", 4_000, 0), 4, [4, 4, 4, 4]),
        (_keys("<f8", "random", 4_000, 0), 3, [3, 3, 3]),
    ],
    ids=["empty-destination", "one-run", "four-runs", "three-runs-float"],
)
def test_every_run_count_is_sorted(pool, keys, p, runs):
    """Destinations with 0, 1, 2 and more than 2 non-empty runs: what the
    property above draws, pinned."""
    with _merge_tasks(pool) as merges:
        out = run_plan(keys, Plan("sample", p), pool=pool)
    assert [len(task[3]) for task in merges] == runs
    assert np.array_equal(out, np.sort(keys), equal_nan=True)


@pytest.mark.parametrize("p", [2, 3])
def test_a_merge_task_rerun_leaves_identical_bytes(pool, p):
    """A supervised retry re-runs a merge task over a range a dead worker
    may have half written: it reads only the sorted slices, so the range
    comes out byte for byte what the first run wrote."""
    keys = _keys("<f8", "random", 20_000, p)
    with _merge_tasks(pool) as merges:
        out = run_plan(keys, Plan("sample", p), pool=pool)
    for sorted_h, out_h, lo, runs in merges:
        hi = lo + sum(stop - start for start, stop in runs)
        answer = shm.resolve(out_h)[lo:hi]
        first = answer.tobytes()
        answer[: (hi - lo) // 2] = -1.0  # the dead worker's partial write
        pool.run_phase(_merge_task, [(sorted_h, out_h, lo, runs)])
        assert answer.tobytes() == first
    assert np.array_equal(out, np.sort(keys), equal_nan=True)


@pytest.mark.chaos
def test_worker_killed_in_the_merge_phase_is_absorbed():
    """Probes 0-1 are the two local sorts; probe 2 kills the worker that
    starts the first merge task, and the supervised re-run finishes."""
    keys = _keys("<i8", "random", 20_000, 5)
    plan = FaultPlan.scripted({"pool.worker.crash": [2]})
    with use_fault_plan(plan):
        with WorkerPool(2, supervise=True, phase_timeout_s=10.0) as pool:
            out = run_plan(keys, Plan("sample", 2), pool=pool)
    assert np.array_equal(out, np.sort(keys))
    assert plan.stats().all_recovered
    assert pool.phase_failures == 1
    assert pool.fault_log[0]["phase"] == "merge"
