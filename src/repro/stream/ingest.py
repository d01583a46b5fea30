"""Chunked readers that slice arbitrary key streams into sorter chunks.

The external sorter never materializes its input: :func:`iter_chunks`
adapts every supported source into an iterator of contiguous ndarrays of
at most ``chunk_keys`` keys (the "arena size" of the out-of-core path --
the only full-width allocations the sort ever makes are three chunks,
being read, sorted and spilled, plus its shared sort buffers).

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
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .overlap import IOThread
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


def _read_chunk(f, chunk: np.ndarray) -> np.ndarray | None:
    """Fill ``chunk`` from the raw stream ``f`` until it is full or the
    stream ends; the keys read (``None`` for none)."""
    buf = chunk.view(np.uint8)
    got = 0
    while got < len(buf):
        if hasattr(f, "readinto"):
            n = f.readinto(buf[got:])
        else:
            data = f.read(len(buf) - got)
            n = len(data)
            buf[got : got + n] = np.frombuffer(data, np.uint8)
        if not n:
            break
        got += n
    if got % chunk.itemsize:
        raise StreamError(
            f"raw key stream ends mid-key: {got % chunk.itemsize} trailing "
            f"bytes (itemsize {chunk.itemsize})"
        )
    return chunk[: got // chunk.itemsize] if got else None


def _chunks_from_file(
    f, chunk_keys: int, dtype: np.dtype, io: IOThread | None
) -> Iterator[np.ndarray]:
    """Full chunks (the last may be short), each read into a fresh
    array -- on ``io``, ahead of the caller, when given."""
    fill = partial(_read_chunk, f)
    alloc = partial(np.empty, chunk_keys, dtype)
    if io is not None:
        yield from io.ahead(fill, alloc)
        return
    while (chunk := fill(alloc())) is not None:
        yield chunk


def iter_chunks(
    source,
    chunk_keys: int,
    dtype: np.dtype | type | str | None = None,
    io: IOThread | None = None,
) -> Iterator[np.ndarray]:
    """Adapt ``source`` into chunks of at most ``chunk_keys`` keys.

    ``dtype`` is required for raw byte sources (paths, file-likes) and
    optional elsewhere (inferred from the first array, then enforced).
    A raw source's chunks are fresh arrays the caller owns; with ``io``
    the next one is read on that thread while the caller works on the
    current one.
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
                yield from _chunks_from_file(f, chunk_keys, dt, io)

        return _from_path()

    if hasattr(source, "read"):
        if dt is None:
            raise StreamError("dtype is required when reading raw key streams")
        return _chunks_from_file(source, chunk_keys, dt, io)

    if hasattr(source, "__iter__"):
        return _chunks_from_iterable(source, chunk_keys, dt)

    raise StreamError(
        f"unsupported stream source {type(source).__name__!r}: expected "
        "ndarray, path, binary file-like, or iterable of arrays"
    )
