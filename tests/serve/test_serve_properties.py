"""Property-based testing at the serve seam.

Hypothesis drives random batches of concurrent jobs -- mixed sizes,
algorithms, dtypes-worth of value ranges, duplicate-heavy and adversarial
key patterns -- against one live server (module-scoped fixture: Hypothesis
forbids function-scoped fixtures under ``@given``, and one server across
all examples is also the semantics we want: state must not bleed between
jobs).  The properties:

- every job's result is exactly ``np.sort`` of *its own* keys, even when
  submitted interleaved (no cross-job buffer reuse bugs from the arena);
- per-job bookkeeping (n_keys, algorithm, shm counters) is attributed to
  the right job id;
- the server survives every batch: a later trivial sort still works.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ServeClient

job_strategy = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=0, max_value=4_000),
        "algorithm": st.sampled_from(["radix", "sample"]),
        "lo": st.integers(min_value=-(1 << 30), max_value=0),
        "hi": st.integers(min_value=1, max_value=1 << 45),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "dup_heavy": st.booleans(),
    }
)


def _make_keys(spec: dict) -> np.ndarray:
    rng = np.random.default_rng(spec["seed"])
    # Radix is documented to take non-negative keys only; sample takes any.
    lo = 0 if spec["algorithm"] == "radix" else spec["lo"]
    if spec["dup_heavy"]:
        # A handful of distinct values: stresses counting/placement.
        pool = rng.integers(lo, spec["hi"], size=4, dtype=np.int64)
        return rng.choice(pool, size=spec["n"]).astype(np.int64)
    return rng.integers(lo, spec["hi"], size=spec["n"], dtype=np.int64)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batch=st.lists(job_strategy, min_size=1, max_size=6))
def test_concurrent_batches_sort_and_attribute_correctly(served, batch):
    server, recorder = served
    with ServeClient(port=server.port) as client:
        seen_before = {
            e.args["job_id"] for e in recorder.events if e.cat == "serve.job"
        }
        specs = []
        for spec in batch:
            keys = _make_keys(spec)
            job_id = client.submit(keys, spec["algorithm"])
            specs.append((job_id, spec, keys))
        # Wait in submission order; jobs complete in that order too (one
        # engine lane) but each wait is an independent server-side block.
        for job_id, spec, keys in specs:
            status = client.wait(job_id, timeout_s=120.0)
            assert status["status"] == "done", status
            assert status["job_id"] == job_id
            assert status["n_keys"] == len(keys)
            assert status["algorithm"] == spec["algorithm"]
            # Steady state holds under arbitrary traffic.
            assert status["shm_creates"] == 0
            assert status["shm_attaches"] == 0
            out = client.result(job_id)
            assert out.dtype == keys.dtype
            assert np.array_equal(out, np.sort(keys)), (
                f"job {job_id} ({spec}) returned wrong order"
            )
        # Each job produced exactly one serve.job span, tagged with its id.
        new_spans = [
            e
            for e in recorder.events
            if e.cat == "serve.job" and e.args["job_id"] not in seen_before
        ]
        span_ids = sorted(e.args["job_id"] for e in new_spans)
        assert span_ids == sorted(j for j, _, _ in specs)
        for span in new_spans:
            spec_n = {j: len(k) for j, _, k in specs}
            assert span.args["n_keys"] == spec_n[span.args["job_id"]]


def test_invalid_keys_fail_structurally_not_fatally(served):
    """Radix rejects negative keys; the job must end 'failed' with the
    exception surfaced, and the server must keep serving afterwards."""
    server, _ = served
    with ServeClient(port=server.port) as client:
        bad = np.array([-5, 3, 1], dtype=np.int64)
        job_id = client.submit(bad, "radix")
        status = client.wait(job_id, timeout_s=60.0)
        assert status["status"] == "failed"
        assert status["error"] == "ValueError"
        assert "non-negative" in status["message"]
        good = np.arange(100, dtype=np.int64)[::-1].copy()
        assert np.array_equal(client.sort(good, "radix"), np.arange(100))


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=2_000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_result_payload_round_trips_exactly(served, n, seed):
    server, _ = served
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(1 << 62), 1 << 62, size=n, dtype=np.int64)
    with ServeClient(port=server.port) as client:
        out = client.sort(keys, "sample")
    expect = np.sort(keys)
    assert out.dtype == expect.dtype
    assert np.array_equal(out, expect)
