"""Hypothesis properties at the stream seam.

For random chunk sizes, fan-in limits, frame sizes, and every paper
distribution (plus a duplicate-heavy one), the external sort must equal
``np.sort`` of the concatenated input -- regardless of how the input was
framed into chunks, how many spill runs formed, or how many merge passes
ran.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.distributions import PAPER_ORDER, generate
from repro.stream import external_sort

N = 4_096  # keys per example: divisible by p=4 as the generators need

DISTRIBUTIONS = PAPER_ORDER + ["duplicate"]


def _example_keys(name: str, seed: int) -> np.ndarray:
    if name == "duplicate":
        # Duplicate-heavy: 16 distinct values, so frames straddle ties.
        return np.random.default_rng(seed).integers(
            0, 16, size=N, dtype=np.int64
        )
    return generate(name, N, 4, seed=seed)


common = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestExternalSortProperty:
    @common
    @given(
        dist=st.sampled_from(DISTRIBUTIONS),
        seed=st.integers(min_value=1, max_value=1_000),
        chunk_keys=st.integers(min_value=200, max_value=3_000),
        fan_in=st.integers(min_value=2, max_value=5),
        frame_keys=st.sampled_from([64, 257, 1_024]),
    )
    def test_equals_np_sort(self, dist, seed, chunk_keys, fan_in, frame_keys):
        keys = _example_keys(dist, seed)
        blocks: list[np.ndarray] = []
        result = external_sort(
            keys,
            chunk_keys=chunk_keys,
            fan_in=fan_in,
            frame_keys=frame_keys,
            n_workers=1,
            on_block=blocks.append,
        )
        out = (
            np.concatenate(blocks)
            if blocks
            else np.empty(0, dtype=keys.dtype)
        )
        assert np.array_equal(out, np.sort(keys))
        assert result.n_keys == N
        assert result.runs == -(-N // chunk_keys)

    @common
    @given(
        dist=st.sampled_from(DISTRIBUTIONS),
        seed=st.integers(min_value=1, max_value=1_000),
        chunk_keys=st.integers(min_value=200, max_value=3_000),
        n_parts=st.integers(min_value=1, max_value=7),
    )
    def test_framing_is_irrelevant(self, dist, seed, chunk_keys, n_parts):
        """Feeding the same keys as an iterable of arbitrary part sizes
        must give the same answer as the contiguous array."""
        keys = _example_keys(dist, seed)
        cuts = np.linspace(0, N, n_parts + 1, dtype=int)
        parts = [keys[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        blocks: list[np.ndarray] = []
        external_sort(
            iter(parts),
            chunk_keys=chunk_keys,
            n_workers=1,
            on_block=blocks.append,
        )
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))
