"""Framed, checksummed sorted-run files with an atomic-rename writer.

A run file holds one sorted slice of the stream being externally sorted.
The layout is deliberately close to the grid cache's defensive framing
(magic, versioned header, per-payload CRC) so a truncated spill, a
bit-flipped block or a stale partial ``.tmp`` is *detected*, never
silently merged:

========  ============================================================
section   bytes
========  ============================================================
magic     ``b"RRUN"``
version   ``u8`` (currently 1)
header    ``u32`` length + that many bytes of JSON
          (``{"dtype": "<i8", "frame_keys": 65536}``)
frame*    ``u32 n_keys`` (> 0), ``u32 crc32(payload)``, then
          ``n_keys * itemsize`` bytes of little-endian keys
footer    ``u32 0`` end marker, ``u64 total_keys``,
          ``u32 crc32(total_keys bytes)``
========  ============================================================

Writers spill to ``<path>.tmp`` and only :func:`os.replace` onto the
final name after the footer is flushed, so a run file that *exists* is
complete by construction -- the rename is atomic against the death of
the writing process.  There is no fsync: a run is scratch in a workdir
its sorter deletes, and nothing reads a spill after a restart, so
surviving an OS crash would buy nothing.  Readers still verify every
CRC and the footer count because disks lie.

Fault injection (``repro.faults``, parent-side only -- the ambient plan
is owner-PID-guarded so pool workers never see it):

- ``spill.enospc``  -- a frame write raises ``ENOSPC``; :func:`spill_run`
  deletes the partial ``.tmp`` and rewrites the run.
- ``spill.short_write`` -- a frame write lands only partially; the
  writer's write loop detects the short count and completes the
  remainder (recovered in place).
- ``spill.corrupt`` -- a frame read decodes as corrupt (a bit is flipped
  in the in-memory copy); the reader seeks back and re-reads the frame
  once before giving up.  Genuine on-disk corruption fails the re-read
  and raises :class:`RunCorrupt`.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib
from typing import Callable, Iterator, TypeVar

import numpy as np

from ..faults.context import fire, recovered, retry

MAGIC = b"RRUN"
VERSION = 1

#: Keys per frame when the writer re-blocks its input (64 Ki keys keeps a
#: frame's payload at 512 KiB for int64 -- one read-ahead buffer per
#: merge input stays small even at high fan-in).
DEFAULT_FRAME_KEYS = 64 * 1024

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_T = TypeVar("_T")

#: dtypes a run file may carry (what :mod:`repro.stream.ingest` accepts).
SUPPORTED_DTYPES = ("<u4", "<u8", "<i4", "<i8")


class StreamError(RuntimeError):
    """Base error for the out-of-core stream subsystem."""


class RunCorrupt(StreamError):
    """A run-file frame failed its CRC (even after one re-read)."""


class RunTruncated(StreamError):
    """A run file ended before its footer (partial spill)."""


def check_dtype(dtype: np.dtype | type | str, what: str = "run") -> np.dtype:
    """``dtype`` as a supported key dtype, else :class:`StreamError`."""
    dt = np.dtype(dtype)
    if dt.str not in SUPPORTED_DTYPES:
        raise StreamError(
            f"unsupported {what} dtype {dt.str!r}; expected one of "
            f"{SUPPORTED_DTYPES}"
        )
    return dt


def _write_all(f, payload: np.ndarray) -> None:
    """Write ``payload``, absorbing injected short writes.

    ``spill.short_write`` splits one write in two: the first lands only a
    prefix, the loop detects the short count and completes the rest --
    the same loop a raw ``os.write`` spill path would need for real
    partial writes on pipes/near-full disks.
    """
    if len(payload) > 1 and fire("spill.short_write"):
        cut = len(payload) // 2
        f.write(payload[:cut])
        f.write(payload[cut:])
        recovered("spill.short_write")
    else:
        f.write(payload)


class RunWriter:
    """Spill sorted key blocks into ``<path>.tmp``; atomically publish.

    Use as a context manager: a clean ``__exit__`` seals the footer and
    renames onto ``path``; an exception (or :meth:`abort`) removes the
    partial ``.tmp`` so no orphan spill survives the error path.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        dtype: np.dtype | type | str = np.int64,
        frame_keys: int = DEFAULT_FRAME_KEYS,
    ):
        if frame_keys < 1:
            raise ValueError("frame_keys must be >= 1")
        self.path = os.fspath(path)
        self.dtype = check_dtype(dtype)
        self.frame_keys = int(frame_keys)
        self.total_keys = 0
        self.bytes_written = 0
        #: Keys carried to the next frame: ``_carry[:_held]``.
        self._carry = np.empty(self.frame_keys, self.dtype)
        self._held = 0
        self._tmp = self.path + ".tmp"
        self._file = open(self._tmp, "wb")
        self._closed = False
        header = json.dumps(
            {"dtype": self.dtype.str, "frame_keys": self.frame_keys}
        ).encode()
        self._file.write(MAGIC)
        self._file.write(bytes([VERSION]))
        self._file.write(_U32.pack(len(header)))
        self._file.write(header)

    # ------------------------------------------------------------------
    def write(self, keys: np.ndarray) -> None:
        """Append sorted keys, re-blocked into ``frame_keys`` frames.

        Fewer than a frame's worth left over are copied aside (``keys``
        may sit in a reused read-ahead buffer) and lead the next call's
        frame, or :meth:`close`'s -- so every frame but the last is full,
        however the caller blocks its writes.
        """
        if self._closed:
            raise StreamError("run writer is closed")
        keys = np.ascontiguousarray(keys, dtype=self.dtype)
        lo = 0
        if self._held:
            lo = min(len(keys), self.frame_keys - self._held)
            if self._held + lo < self.frame_keys:
                self._carry[self._held : self._held + lo] = keys
                self._held += lo
                return
            self._frame(self._carry[: self._held], keys[:lo])
        end = len(keys) - (len(keys) - lo) % self.frame_keys
        for start in range(lo, end, self.frame_keys):
            self._frame(keys[start : start + self.frame_keys])
        self._held = len(keys) - end
        self._carry[: self._held] = keys[end:]

    def _frame(self, *parts: np.ndarray) -> None:
        """Write one frame whose keys are ``parts`` in order."""
        if fire("spill.enospc"):
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        crc = 0
        for part in parts:
            crc = zlib.crc32(part.view(np.uint8), crc)
        n_keys = sum(len(part) for part in parts)
        self._file.write(_U32.pack(n_keys))
        self._file.write(_U32.pack(crc))
        for part in parts:
            # No copy: the CRC and the write read the caller's memory.
            _write_all(self._file, part.view(np.uint8))
        self.total_keys += n_keys
        self.bytes_written += 8 + n_keys * self.dtype.itemsize

    def close(self) -> str:
        """Write the carried keys, seal the footer, flush, and atomically
        publish the run."""
        if self._closed:
            return self.path
        if self._held:
            self._frame(self._carry[: self._held])
        total = _U64.pack(self.total_keys)
        self._file.write(_U32.pack(0))
        self._file.write(total)
        self._file.write(_U32.pack(zlib.crc32(total)))
        self._file.flush()
        self._file.close()
        self._closed = True
        os.replace(self._tmp, self.path)
        return self.path

    def abort(self) -> None:
        """Drop the partial spill; the final path is never created."""
        if self._closed:
            return
        self._closed = True
        self._file.close()
        try:
            os.unlink(self._tmp)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class RunReader:
    """Iterate a run file's frames as ndarrays, verifying every CRC."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._file = open(self.path, "rb")
        self.bytes_read = 0
        self._exhausted = False
        self._keys_seen = 0
        try:
            magic = self._file.read(4)
            if magic != MAGIC:
                raise RunCorrupt(f"{self.path}: bad magic {magic!r}")
            version = self._file.read(1)
            if len(version) != 1 or version[0] != VERSION:
                raise RunCorrupt(f"{self.path}: unsupported version {version!r}")
            raw_len = self._file.read(4)
            if len(raw_len) != 4:
                raise RunTruncated(f"{self.path}: truncated header")
            (hdr_len,) = _U32.unpack(raw_len)
            raw_hdr = self._file.read(hdr_len)
            if len(raw_hdr) != hdr_len:
                raise RunTruncated(f"{self.path}: truncated header")
            header = json.loads(raw_hdr)
            self.dtype = check_dtype(header["dtype"])
            self.frame_keys = int(header["frame_keys"])
        except Exception:
            self._file.close()
            raise

    # ------------------------------------------------------------------
    def _read_exact(self, n: int, what: str) -> bytes:
        data = self._file.read(n)
        if len(data) != n:
            raise RunTruncated(
                f"{self.path}: truncated {what} "
                f"(wanted {n} bytes, got {len(data)})"
            )
        return data

    def _read_into(self, payload: np.ndarray) -> None:
        got = self._file.readinto(payload)
        if got != payload.nbytes:
            raise RunTruncated(
                f"{self.path}: truncated frame payload "
                f"(wanted {payload.nbytes} bytes, got {got})"
            )

    def _read_payload(
        self, n_keys: int, crc: int, out: np.ndarray | None
    ) -> np.ndarray:
        """One frame payload, read once into its own array -- the head of
        ``out`` when given, else a new one (earlier frames stay valid) --
        with a single seek-back retry on CRC mismatch (absorbing the
        injected ``spill.corrupt`` bit flip)."""
        if out is None:
            arr = np.empty(n_keys, dtype=self.dtype)
        elif n_keys <= len(out):
            arr = out[:n_keys]
        else:
            raise RunCorrupt(
                f"{self.path}: frame of {n_keys} keys exceeds the header's "
                f"frame_keys {self.frame_keys}"
            )
        payload = arr.view(np.uint8)
        start = self._file.tell()
        self._read_into(payload)
        injected = n_keys > 0 and fire("spill.corrupt")
        if injected:
            payload[0] ^= 0x40  # flip a bit in the in-memory copy only
        if zlib.crc32(payload) != crc:
            # Re-read once: an in-flight corruption (or the injected bit
            # flip) is gone on the second read; real on-disk rot is not.
            self._file.seek(start)
            self._read_into(payload)
            if zlib.crc32(payload) != crc:
                raise RunCorrupt(
                    f"{self.path}: frame CRC mismatch at offset {start}"
                )
            if injected:
                recovered("spill.corrupt")
        self.bytes_read += payload.nbytes
        return arr

    def frames(self) -> Iterator[np.ndarray]:
        """Yield each frame; validates the footer at end of stream."""
        while True:
            arr = self.next_frame()
            if arr is None:
                return
            yield arr

    def next_frame(self, out: np.ndarray | None = None) -> np.ndarray | None:
        """The next frame, or ``None`` at the (validated) footer.  With
        ``out`` (``frame_keys`` keys of this run's dtype) the frame is
        read into its head."""
        if self._exhausted:
            return None
        (n_keys,) = _U32.unpack(self._read_exact(4, "frame length"))
        self.bytes_read += 4
        if n_keys == 0:
            raw_total = self._read_exact(8, "footer")
            (crc,) = _U32.unpack(self._read_exact(4, "footer CRC"))
            if zlib.crc32(raw_total) != crc:
                raise RunCorrupt(f"{self.path}: footer CRC mismatch")
            (total,) = _U64.unpack(raw_total)
            if total != self._keys_seen:
                raise RunCorrupt(
                    f"{self.path}: footer says {total} keys, "
                    f"read {self._keys_seen}"
                )
            self.total_keys = total
            self._exhausted = True
            return None
        (crc,) = _U32.unpack(self._read_exact(4, "frame CRC"))
        self.bytes_read += 4
        arr = self._read_payload(n_keys, crc, out)
        self._keys_seen += n_keys
        return arr

    def read_all(self) -> np.ndarray:
        """The whole run as one array (tests and tiny merges only)."""
        parts = list(self.frames())
        if not parts:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(parts)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "RunReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_total_keys(path: str | os.PathLike) -> int:
    """A sealed run's key count, read from the footer (O(1))."""
    with open(path, "rb") as f:
        f.seek(0, os.SEEK_END)
        size = f.tell()
        if size < 16:
            raise RunTruncated(f"{os.fspath(path)}: no footer")
        f.seek(size - 16)
        tail = f.read(16)
    (marker,) = _U32.unpack(tail[:4])
    (total,) = _U64.unpack(tail[4:12])
    (crc,) = _U32.unpack(tail[12:])
    if marker != 0 or zlib.crc32(tail[4:12]) != crc:
        raise RunCorrupt(f"{os.fspath(path)}: bad footer")
    return total


def spill_run(
    path: str | os.PathLike,
    dtype: np.dtype | type | str,
    frame_keys: int,
    fill: Callable[[RunWriter], _T],
) -> tuple[_T, int]:
    """Publish one run file whose frames ``fill(writer)`` writes; returns
    ``(fill's result, bytes written)``.

    The one ``ENOSPC`` policy of the spill layer (the shm allocation's
    :func:`~repro.faults.context.retry`): the partial ``.tmp`` is deleted, the
    write backs off and the whole run starts over -- so ``fill`` must be
    re-runnable.  Recovered retries are noted as ``spill.enospc``
    recoveries; exhausted retries (and any other error) propagate with
    no ``.tmp`` left behind.
    """

    def attempt() -> tuple[_T, int]:
        writer = RunWriter(path, dtype, frame_keys)
        try:
            result = fill(writer)
            writer.close()
        except BaseException:
            writer.abort()
            raise
        return result, writer.bytes_written

    return retry(attempt, "spill.enospc", errno.ENOSPC)


def write_run(
    path: str | os.PathLike,
    keys: np.ndarray,
    *,
    frame_keys: int = DEFAULT_FRAME_KEYS,
) -> int:
    """Spill one sorted array as a run file through :func:`spill_run`
    (the whole run is rewritten on ``ENOSPC``); returns the bytes
    written."""
    _, written = spill_run(
        path, keys.dtype, frame_keys, lambda writer: writer.write(keys)
    )
    return written
