"""Thin synchronous client for the sort job server.

One :class:`ServeClient` wraps one TCP connection; every call is a
request/response frame pair (the protocol is strictly alternating per
connection, so a client is single-threaded by construction -- the load
generator opens one client per worker thread).  Server-side rejections
surface as :class:`ServeRejected` carrying the structured code and the
``retry_after_s`` backpressure hint; other structured errors raise
:class:`ServeError` with the code in ``.code``.
"""

from __future__ import annotations

import socket
from typing import Any

import numpy as np

from .protocol import (
    MAX_FRAME,
    Buffer,
    ProtocolError,
    decode_keys,
    encode_keys,
    read_frame_sync,
    write_frame_sync,
)

#: Rejection codes raised as ServeRejected (admission, not job failure).
REJECTION_CODES = ("busy", "too-large", "bad-radix", "draining")


class ServeError(RuntimeError):
    """A structured error reply from the server."""

    def __init__(self, code: str, message: str = "", reply: dict | None = None):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
        self.reply = reply or {}


class ServeRejected(ServeError):
    """Admission refused the job; honor ``retry_after_s`` if present."""

    def __init__(self, code: str, message: str, retry_after_s: float | None):
        super().__init__(code, message)
        self.retry_after_s = retry_after_s


class ServeClient:
    """Blocking client; use as a context manager or call :meth:`close`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout_s: float = 120.0,
        max_frame: int = MAX_FRAME,
    ):
        self.max_frame = max_frame
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: The transport error that ended this connection, if one did.
        self._broken: BaseException | None = None

    # ------------------------------------------------------------------
    def _fail(self, err: BaseException) -> BaseException:
        """A transport error mid-exchange leaves the stream out of step
        (the unread rest of a reply would parse as the next one's
        header): close, and let later calls say so."""
        self._broken = err
        self.close()
        return err

    def _call(
        self, header: dict[str, Any], payload: Buffer = b""
    ) -> tuple[dict[str, Any], memoryview]:
        if self._broken is not None:
            raise ConnectionError(f"connection closed after {self._broken!r}")
        try:
            # (Over the cap, nothing is sent and the exchange stays whole:
            # that FrameTooLarge passes through.)
            write_frame_sync(self._sock, header, payload, self.max_frame)
        except ConnectionError:
            pass  # hung up mid-send: the server refused the head; its reply says why
        except OSError as err:
            raise self._fail(err)
        try:
            reply, out_payload = read_frame_sync(self._sock, self.max_frame)
        except (OSError, ProtocolError) as err:
            raise self._fail(err)
        if not reply.get("ok", False):
            code = reply.get("error", "unknown")
            message = reply.get("message", "")
            if code in REJECTION_CODES:
                raise ServeRejected(code, message, reply.get("retry_after_s"))
            raise ServeError(code, message, reply)
        return reply, out_payload

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        reply, _ = self._call({"op": "ping"})
        return reply.get("op") == "pong"

    def submit(
        self,
        keys: np.ndarray,
        algorithm: str | None = None,
        *,
        radix: int | None = None,
        deadline_s: float | None = None,
    ) -> str:
        """Submit a job; returns its id (raises :class:`ServeRejected`).
        ``algorithm=None`` leaves the choice to the server's planner."""
        fields, payload = encode_keys(keys)
        header: dict[str, Any] = {"op": "submit", **fields}
        if algorithm is not None:
            header["algorithm"] = algorithm
        if radix is not None:
            header["radix"] = radix
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        reply, _ = self._call(header, payload)
        return reply["job_id"]

    def status(self, job_id: str) -> dict[str, Any]:
        reply, _ = self._call({"op": "status", "job_id": job_id})
        return reply

    def wait(self, job_id: str, timeout_s: float = 60.0) -> dict[str, Any]:
        """Block server-side until the job is terminal; returns status."""
        reply, _ = self._call(
            {"op": "wait", "job_id": job_id, "timeout_s": timeout_s}
        )
        return reply

    def result(self, job_id: str) -> np.ndarray:
        """Fetch a finished job's sorted keys (the received buffer is
        the array: no copy)."""
        return decode_keys(*self._call({"op": "result", "job_id": job_id}))

    def sort(
        self,
        keys: np.ndarray,
        algorithm: str | None = None,
        *,
        radix: int | None = None,
        deadline_s: float | None = None,
        timeout_s: float = 60.0,
    ) -> np.ndarray:
        """Submit + wait + fetch in one call (the simple-path API)."""
        job_id = self.submit(
            keys, algorithm, radix=radix, deadline_s=deadline_s
        )
        status = self.wait(job_id, timeout_s=timeout_s)
        if status.get("status") != "done":
            raise ServeError(
                status.get("error") or status.get("status", "unknown"),
                status.get("message", ""),
                status,
            )
        return self.result(job_id)

    # ------------------------------------------------------------------
    # Streaming jobs: external sorts spanning many frames
    # ------------------------------------------------------------------
    def stream_open(
        self,
        dtype: str | np.dtype = "<i8",
        *,
        chunk_keys: int | None = None,
        fan_in: int | None = None,
    ) -> str:
        """Open a streaming sort session; returns its stream id."""
        header: dict[str, Any] = {
            "op": "stream-open",
            "dtype": np.dtype(dtype).str,
        }
        if chunk_keys is not None:
            header["chunk_keys"] = int(chunk_keys)
        if fan_in is not None:
            header["fan_in"] = int(fan_in)
        reply, _ = self._call(header)
        return reply["stream_id"]

    def _push_frame_keys(self, itemsize: int) -> int:
        """How many keys fit one push frame under the cap (with slack
        for the JSON header)."""
        return max(1, (self.max_frame - 65536) // itemsize)

    def stream_push(self, stream_id: str, keys: np.ndarray) -> dict[str, Any]:
        """Push keys into a stream, slicing into frames under the cap;
        returns the final push reply (ingest progress)."""
        keys = np.ascontiguousarray(keys)
        per_frame = self._push_frame_keys(keys.dtype.itemsize)
        reply: dict[str, Any] = {}
        for lo in range(0, max(1, len(keys)), per_frame):  # empty: one frame
            fields, payload = encode_keys(keys[lo : lo + per_frame])
            reply, _ = self._call(
                {"op": "stream-push", "stream_id": stream_id, **fields},
                payload,
            )
        return reply

    def stream_close(self, stream_id: str) -> dict[str, Any]:
        """Finish ingest; the server merges in the background."""
        reply, _ = self._call({"op": "stream-close", "stream_id": stream_id})
        return reply

    def stream_status(self, stream_id: str) -> dict[str, Any]:
        reply, _ = self._call({"op": "stream-status", "stream_id": stream_id})
        return reply

    def stream_wait(
        self, stream_id: str, timeout_s: float = 120.0, poll_s: float = 0.05
    ) -> dict[str, Any]:
        """Poll until the stream is done/failed; returns final status."""
        import time as _time

        deadline = _time.perf_counter() + timeout_s
        while True:
            status = self.stream_status(stream_id)
            if status.get("phase") in ("done", "failed"):
                return status
            if _time.perf_counter() >= deadline:
                raise ServeError(
                    "stream-timeout",
                    f"stream {stream_id} still {status.get('phase')!r} "
                    f"after {timeout_s}s",
                    status,
                )
            _time.sleep(poll_s)

    def stream_fetch(
        self, stream_id: str, max_keys: int | None = None
    ) -> np.ndarray | None:
        """The next sorted output block, or ``None`` at EOF."""
        header: dict[str, Any] = {"op": "stream-fetch", "stream_id": stream_id}
        if max_keys is not None:
            header["max_keys"] = int(max_keys)
        reply, payload = self._call(header)
        if reply.get("eof"):
            return None
        return decode_keys(reply, payload)

    def stream_abort(self, stream_id: str) -> dict[str, Any]:
        reply, _ = self._call({"op": "stream-abort", "stream_id": stream_id})
        return reply

    def stream_sort(
        self,
        keys: np.ndarray,
        *,
        chunk_keys: int | None = None,
        fan_in: int | None = None,
        timeout_s: float = 300.0,
    ) -> np.ndarray:
        """Externally sort ``keys`` through a streaming session: open,
        push in capped frames, close, poll, and drain the output."""
        stream_id = self.stream_open(
            keys.dtype, chunk_keys=chunk_keys, fan_in=fan_in
        )
        try:
            self.stream_push(stream_id, keys)
            self.stream_close(stream_id)
            status = self.stream_wait(stream_id, timeout_s=timeout_s)
            if status.get("phase") != "done":
                raise ServeError(
                    status.get("error", "stream-failed"),
                    status.get("message", ""),
                    status,
                )
            blocks: list[np.ndarray] = []
            while True:
                block = self.stream_fetch(stream_id)
                if block is None:
                    break
                blocks.append(block)
        except BaseException:
            try:
                self.stream_abort(stream_id)
            except Exception:
                pass
            raise
        if not blocks:
            return np.empty(0, dtype=keys.dtype)
        return np.concatenate(blocks)

    def stats(self) -> dict[str, Any]:
        reply, _ = self._call({"op": "stats"})
        return reply["stats"]

    def drain(self) -> dict[str, Any]:
        reply, _ = self._call({"op": "drain"})
        return reply

    def shutdown(self) -> dict[str, Any]:
        reply, _ = self._call({"op": "shutdown"})
        return reply

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
