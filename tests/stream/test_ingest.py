"""Chunked ingest framings: arrays, iterables, paths, file-likes."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.stream import StreamError, iter_chunks
from repro.stream.ingest import Reblocker


def _keys(seed: int, n: int, dtype=np.int64) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << 30, size=n, dtype=dtype)


class TestArraySource:
    def test_slices_cover_input(self):
        keys = _keys(1, 10_050)
        chunks = list(iter_chunks(keys, 4_096))
        assert [len(c) for c in chunks] == [4_096, 4_096, 1_858]
        assert np.array_equal(np.concatenate(chunks), keys)

    def test_slices_are_zero_copy(self):
        keys = _keys(2, 1_000)
        chunks = list(iter_chunks(keys, 300))
        assert chunks[0].base is keys

    def test_two_dimensional_rejected(self):
        with pytest.raises(StreamError, match="one-dimensional"):
            list(iter_chunks(np.zeros((2, 2), dtype=np.int64), 4))

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(StreamError, match="unsupported key dtype"):
            list(iter_chunks(np.zeros(4, dtype=np.float32), 4))


class TestIterableSource:
    def test_reblocks_to_exact_chunks(self):
        parts = [_keys(seed, n) for seed, n in enumerate([700, 50, 3_000, 1])]
        chunks = list(iter_chunks(iter(parts), 1_024))
        # Every chunk but the last is exactly chunk_keys long.
        assert [len(c) for c in chunks[:-1]] == [1_024, 1_024, 1_024]
        assert sum(len(c) for c in chunks) == 3_751
        assert np.array_equal(
            np.concatenate(chunks), np.concatenate(parts)
        )

    def test_empty_parts_skipped(self):
        parts = [np.empty(0, np.int64), _keys(3, 10), np.empty(0, np.int64)]
        chunks = list(iter_chunks(parts, 1_024))
        assert len(chunks) == 1 and len(chunks[0]) == 10

    def test_dtype_enforced_across_parts(self):
        parts = [
            _keys(4, 10, np.int32),
            _keys(5, 10).astype(np.int64),  # widened to the declared dtype
        ]
        chunks = list(iter_chunks(parts, 1_024, dtype="<i4"))
        assert all(c.dtype == np.dtype("<i4") for c in chunks)


class TestReblocker:
    """The one re-blocker behind iterable ingest, a serve session's
    pushed frames and its capped output fetches."""

    @pytest.mark.parametrize("sizes, block", [
        ([700, 50, 3_000, 1], 1_024),   # arbitrary parts
        ([0, 10, 0, 0, 5], 4),          # empty parts between real ones
        ([512, 512, 1_024], 512),       # exact multiples: no remainder
        ([5_000], 7),                   # one part, many blocks
    ])
    def test_full_blocks_then_the_remainder(self, sizes, block):
        parts = [_keys(seed, n) for seed, n in enumerate(sizes)]
        whole = np.concatenate(parts)
        blocks = Reblocker()
        out = []
        for part in parts:
            blocks.push(part)
            out.extend(blocks.full_blocks(block))
            assert blocks.pending < block
        assert all(len(b) == block for b in out)
        assert blocks.pending == len(whole) % block
        if blocks.pending:
            out.append(blocks.take(blocks.pending))
        assert blocks.pending == 0
        assert np.array_equal(np.concatenate(out), whole)

    def test_variable_take_sizes(self):
        """The fetch cursor's shape: each take asks for a different cap
        and gets exactly that many keys until the tail."""
        parts = [_keys(seed, n) for seed, n in enumerate([300, 300, 300])]
        blocks = Reblocker()
        for part in parts:
            blocks.push(part)
        out = [blocks.take(n) for n in (1, 299, 450, 10_000)]
        assert [len(b) for b in out] == [1, 299, 450, 150]
        assert blocks.pending == 0
        assert np.array_equal(np.concatenate(out), np.concatenate(parts))

    def test_take_within_one_part_is_zero_copy(self):
        part = _keys(9, 1_000)
        blocks = Reblocker()
        blocks.push(part)
        assert blocks.take(400).base is part
        assert blocks.take(400).base is part


class TestRawByteSources:
    def test_path_source(self, tmp_path):
        keys = _keys(6, 5_000, np.uint32)
        path = tmp_path / "keys.bin"
        keys.astype("<u4").tofile(path)
        chunks = list(iter_chunks(path, 2_048, dtype="<u4"))
        assert np.array_equal(np.concatenate(chunks), keys)

    def test_file_like_source(self):
        keys = _keys(7, 3_000)
        fh = io.BytesIO(keys.astype("<i8").tobytes())
        chunks = list(iter_chunks(fh, 1_000, dtype="<i8"))
        assert [len(c) for c in chunks] == [1_000, 1_000, 1_000]
        assert np.array_equal(np.concatenate(chunks), keys)

    def test_dtype_required_for_paths(self, tmp_path):
        path = tmp_path / "keys.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(StreamError, match="dtype is required"):
            iter_chunks(path, 8)

    def test_trailing_partial_key_rejected(self):
        fh = io.BytesIO(b"\x00" * 17)  # 2 whole int64 keys + 1 byte
        with pytest.raises(StreamError, match="ends mid-key"):
            list(iter_chunks(fh, 8, dtype="<i8"))


class TestValidation:
    def test_chunk_keys_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_keys"):
            iter_chunks(_keys(8, 4), 0)

    def test_unsupported_source_rejected(self):
        with pytest.raises(StreamError, match="unsupported stream source"):
            iter_chunks(object(), 8)
