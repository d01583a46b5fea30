"""Chunked readers that slice arbitrary key streams into sorter chunks.

The external sorter never materializes its input: :func:`iter_chunks`
adapts every supported source into an iterator of contiguous ndarrays of
at most ``chunk_keys`` keys (the "arena size" of the out-of-core path --
the only full-width allocations the sort ever makes are one chunk plus
its shared sort buffers).

Sources:

- an ``np.ndarray`` -- sliced, zero-copy;
- an iterable of arrays (e.g. a generator over a message queue) --
  re-blocked so every yielded chunk except the last is exactly
  ``chunk_keys`` long;
- a ``str``/``Path`` -- opened and read as raw little-endian keys
  (``dtype`` required);
- a binary file-like object with ``.read`` -- same raw framing; sockets
  plug in via ``sock.makefile("rb")``.

Raw byte sources must be a whole number of keys; a trailing partial key
raises :class:`~repro.stream.runfile.StreamError` rather than silently
dropping bytes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .runfile import StreamError, check_dtype


def _chunks_from_array(
    keys: np.ndarray, chunk_keys: int
) -> Iterator[np.ndarray]:
    for lo in range(0, len(keys), chunk_keys):
        yield keys[lo : lo + chunk_keys]


class Reblocker:
    """Arbitrarily-sized arrays in, exact-size blocks out.

    :meth:`push` queues a part (no copy), :meth:`take` removes the first
    ``n`` pending keys as one array -- concatenating only when the block
    straddles parts, so a large part is sliced zero-copy.  Every
    re-blocking in the stream subsystem is this class: iterable ingest,
    a serve session's pushed frames, and its capped output fetches.
    """

    def __init__(self) -> None:
        self._parts: list[np.ndarray] = []
        self.pending = 0

    def push(self, part: np.ndarray) -> None:
        if len(part):
            self._parts.append(part)
            self.pending += len(part)

    def take(self, n: int) -> np.ndarray:
        """The first ``min(n, pending)`` pending keys (``pending`` must
        be non-zero)."""
        pool = (
            np.concatenate(self._parts) if len(self._parts) > 1 else self._parts[0]
        )
        rest = pool[n:]
        self._parts = [rest] if len(rest) else []
        self.pending = len(rest)
        return pool[:n]

    def full_blocks(self, n: int) -> Iterator[np.ndarray]:
        """Take every complete ``n``-key block now pending."""
        while self.pending >= n:
            yield self.take(n)


def _chunks_from_iterable(
    parts: Iterable[np.ndarray], chunk_keys: int, dtype: np.dtype | None
) -> Iterator[np.ndarray]:
    """Re-block a stream of arbitrarily-sized arrays into full chunks."""
    blocks = Reblocker()
    dt = dtype
    for part in parts:
        arr = np.ascontiguousarray(part)
        if arr.ndim != 1:
            raise StreamError("stream parts must be one-dimensional arrays")
        if dt is None:
            dt = check_dtype(arr.dtype, "key")
        blocks.push(np.ascontiguousarray(arr, dtype=dt))
        yield from blocks.full_blocks(chunk_keys)
    if blocks.pending:
        yield blocks.take(blocks.pending)


def _chunks_from_file(
    f, chunk_keys: int, dtype: np.dtype
) -> Iterator[np.ndarray]:
    itemsize = dtype.itemsize
    want = chunk_keys * itemsize
    carry = b""
    while True:
        data = f.read(want - len(carry))
        if not data:
            break
        buf = carry + data
        n_whole = len(buf) // itemsize
        carry = buf[n_whole * itemsize :]
        if n_whole:
            yield np.frombuffer(buf[: n_whole * itemsize], dtype=dtype)
    if carry:
        raise StreamError(
            f"raw key stream ends mid-key: {len(carry)} trailing bytes "
            f"(itemsize {itemsize})"
        )


def iter_chunks(
    source,
    chunk_keys: int,
    dtype: np.dtype | type | str | None = None,
) -> Iterator[np.ndarray]:
    """Adapt ``source`` into chunks of at most ``chunk_keys`` keys.

    ``dtype`` is required for raw byte sources (paths, file-likes) and
    optional elsewhere (inferred from the first array, then enforced).
    """
    if chunk_keys < 1:
        raise ValueError("chunk_keys must be >= 1")
    dt = check_dtype(dtype, "key") if dtype is not None else None

    if isinstance(source, np.ndarray):
        if source.ndim != 1:
            raise StreamError("key array must be one-dimensional")
        src_dt = check_dtype(source.dtype, "key") if dt is None else dt
        keys = np.ascontiguousarray(source, dtype=src_dt)
        return _chunks_from_array(keys, chunk_keys)

    if isinstance(source, (str, Path, os.PathLike)):
        if dt is None:
            raise StreamError("dtype is required when reading raw key files")

        def _from_path() -> Iterator[np.ndarray]:
            with open(os.fspath(source), "rb") as f:
                yield from _chunks_from_file(f, chunk_keys, dt)

        return _from_path()

    if hasattr(source, "read"):
        if dt is None:
            raise StreamError("dtype is required when reading raw key streams")
        return _chunks_from_file(source, chunk_keys, dt)

    if hasattr(source, "__iter__"):
        return _chunks_from_iterable(source, chunk_keys, dt)

    raise StreamError(
        f"unsupported stream source {type(source).__name__!r}: expected "
        "ndarray, path, binary file-like, or iterable of arrays"
    )
