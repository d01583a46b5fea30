"""Every op and every refusal, as the reply headers a peer sees.

One server is driven through a fixed script over raw frames: each op the
server takes, and each way it refuses a request -- admission, lookups,
the stream phase machine and framing.  Every reply header is compared
with a pinned expectation, the fields that differ run to run (ids and
timings) masked.  A refactor of the request path must leave this
transcript unchanged.

To make the phase-dependent replies deterministic, the script holds the
server's one engine lane with a blocked task: a closed stream then stays
``merging`` and a job stays ``queued`` (the lane stamps ``running`` only
when it reaches the job) until the lane is released.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.serve import server_in_thread
from repro.serve.protocol import (
    MAGIC,
    encode_keys,
    pack_frame,
    read_frame_sync,
    write_frame_sync,
)

#: Reply fields whose values differ run to run.
VOLATILE = ("job_id", "stream_id", "queue_wait_s", "wall_s", "retry_after_s")

_MAX_FRAME = 4 << 20


def _mask(reply: dict) -> dict:
    return {
        k: "*" if k in VOLATILE and v is not None else v
        for k, v in reply.items()
    }


def _keys(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << 40, n, dtype=np.int64)


class _Wire:
    """One raw connection that logs ``(op, masked reply)`` per exchange."""

    def __init__(self, port: int, log: list):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self.log = log

    def call(self, header: dict, payload=b"", record: bool = True):
        write_frame_sync(self.sock, header, payload, _MAX_FRAME)
        reply, out = read_frame_sync(self.sock, _MAX_FRAME)
        if record:
            self.log.append((header.get("op"), _mask(reply)))
        return reply, out

    def submit(self, keys: np.ndarray, **fields):
        meta, payload = encode_keys(keys)
        return self.call({"op": "submit", **meta, **fields}, payload)[0]

    def until(self, header: dict, key: str, want: str) -> None:
        """Poll (unlogged) until ``reply[key] == want``."""
        for _ in range(2000):
            if self.call(header, record=False)[0].get(key) == want:
                return
            time.sleep(0.005)
        raise AssertionError(f"{header} never reached {key}={want!r}")

    def close(self) -> None:
        self.sock.close()


def _framing(port: int, raw: bytes, log: list, label: str) -> None:
    """Send ``raw``, half-close, and log the one reply before hang-up."""
    with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        reply, _ = read_frame_sync(sock)
        log.append((label, _mask(reply)))
        assert sock.recv(1) == b""  # the server hung up


def _header_frame(jbytes: bytes) -> bytes:
    """One frame whose JSON header is exactly ``jbytes``, valid or not."""
    body = struct.pack(">I", len(jbytes)) + jbytes
    return struct.pack(">4sI", MAGIC, len(body)) + body


def _drive(server) -> list:
    log: list = []
    wire = _Wire(server.port, log)
    try:
        _script(server, wire, log)
    finally:
        wire.close()
    return log


def _script(server, wire: _Wire, log: list) -> None:
    call = wire.call
    # -- jobs, the engine free -----------------------------------------
    call({"op": "ping"})
    keys = _keys(1, 1000)
    a = wire.submit(keys, algorithm="radix", radix=8)["job_id"]
    call({"op": "wait", "job_id": a})
    call({"op": "status", "job_id": a})
    _, out = call({"op": "result", "job_id": a})
    assert np.array_equal(np.frombuffer(out, np.int64), np.sort(keys))
    call({"op": "stats"})
    # -- admission and header refusals ---------------------------------
    wire.submit(keys, algorithm="bogosort")
    wire.submit(keys, radix="seven")
    meta, payload = encode_keys(keys)
    call({"op": "submit", **meta, "n_keys": 7}, payload)
    wire.submit(_keys(2, 200_000), algorithm="sample")  # > the 1 MiB slab
    wire.submit(keys, algorithm="radix", radix=30)
    call({"op": "no-such-op"})
    call({"op": "status", "job_id": "j999999"})
    call({"op": "stream-status", "stream_id": "nope"})
    # -- a stream, ingesting -------------------------------------------
    call({"op": "stream-open", "dtype": "no-such-dtype"})
    s = call({"op": "stream-open", "dtype": "<i8", "chunk_keys": 1000,
              "fan_in": 2})[0]["stream_id"]
    call({"op": "stream-open", "dtype": "<i8"})  # over max_streams
    skeys = _keys(3, 2500)
    meta, payload = encode_keys(skeys)
    call({"op": "stream-push", "stream_id": s, **meta}, payload)
    call({"op": "stream-status", "stream_id": s})
    # -- the engine lane held ------------------------------------------
    gate = threading.Event()
    server._exec.submit(gate.wait)
    try:
        call({"op": "stream-close", "stream_id": s})
        call({"op": "stream-push", "stream_id": s, **meta}, payload)
        call({"op": "stream-close", "stream_id": s})
        call({"op": "stream-fetch", "stream_id": s})
        b = wire.submit(keys, algorithm="sample")["job_id"]
        call({"op": "status", "job_id": b})
        call({"op": "result", "job_id": b})
        call({"op": "wait", "job_id": b, "timeout_s": 0.05})
        c = wire.submit(keys, algorithm="radix", deadline_s=0.0)["job_id"]
        wire.submit(keys, algorithm="radix")  # B and C queued: busy
    finally:
        gate.set()
    call({"op": "wait", "job_id": b})
    call({"op": "wait", "job_id": c})
    call({"op": "result", "job_id": c})
    # -- the stream, merged and fetched --------------------------------
    wire.until({"op": "stream-status", "stream_id": s}, "phase", "done")
    call({"op": "stream-status", "stream_id": s})
    blocks = []
    while True:
        reply, out = call({"op": "stream-fetch", "stream_id": s, "max_keys": 1000})
        if reply["eof"]:
            break
        blocks.append(np.frombuffer(out, np.int64))
    assert np.array_equal(np.concatenate(blocks), np.sort(skeys))
    # -- a stream whose engine work fails ------------------------------
    t = call({"op": "stream-open", "dtype": "<i8"})[0]["stream_id"]
    meta, payload = encode_keys(np.zeros(4, dtype="|S1"))
    call({"op": "stream-push", "stream_id": t, **meta}, payload)
    call({"op": "stream-status", "stream_id": t})
    call({"op": "stream-fetch", "stream_id": t})
    call({"op": "stream-push", "stream_id": t, **meta}, payload)
    call({"op": "stream-abort", "stream_id": t})
    # -- an evicted result ---------------------------------------------
    e = wire.submit(keys, algorithm="radix", radix=8)["job_id"]
    call({"op": "wait", "job_id": e})
    call({"op": "stats"})
    # The store drops a record's bytes as it evicts it; a result lookup
    # that raced the eviction holds the record and finds no bytes.
    server.store.get(e).sorted_bytes = None
    call({"op": "result", "job_id": e})
    # -- drain ----------------------------------------------------------
    call({"op": "drain"})
    wire.submit(keys, algorithm="radix")
    call({"op": "stream-open", "dtype": "<i8"})
    # -- framing, each on its own connection ---------------------------
    _framing(server.port, struct.pack(">4sI", b"HTTP", 10), log, "<bad magic>")
    _framing(server.port, struct.pack(">4sI", MAGIC, 8 << 20), log, "<over cap>")
    _framing(server.port, pack_frame({"op": "ping"})[:-2], log, "<cut short>")
    for label, jbytes in (
        ("<not json>", b'{"op": ping}'),
        ("<not utf-8>", b'{"op": "\xff"}'),
        ("<nested>", b"[" * 100_000 + b"]" * 100_000),
    ):
        _framing(server.port, _header_frame(jbytes), log, label)
    call({"op": "shutdown"})


_STATUS_DONE_A = {
    "ok": True, "job_id": "*", "status": "done", "algorithm": "radix",
    "plan": {"algorithm": "radix", "width": 2, "radix": 8}, "n_keys": 1000,
    "dtype": "<i8", "error": None, "message": None, "queue_wait_s": "*",
    "wall_s": "*", "faults": None, "shm_creates": 0, "shm_attaches": 0,
}
_RUNNING_B = {
    **_STATUS_DONE_A, "status": "running", "algorithm": "sample",
    "plan": None, "wall_s": None,
}
_QUEUED_B = {**_RUNNING_B, "status": "queued", "queue_wait_s": None}
_STREAM = {
    "stream_id": "*", "dtype": "<i8", "chunk_keys": 1000, "fan_in": 2,
    "algorithm": None, "merge_passes": 0,
}
_S_PUSHED = {
    **_STREAM, "phase": "ingest", "keys_ingested": 2500, "runs": 2,
    "bytes_spilled": 16016,
    "chunk_plan": {"algorithm": "sequential", "width": 1, "radix": None},
}


def _stats(accepted, rejected, records, by_status, stored, jobs_run, leases):
    return {"ok": True, "stats": {
        "draining": False, "queue_len": 0, "queue_depth": 2,
        "max_frame": _MAX_FRAME,
        "streams": {"open": 0, "max": 1, "merging": 0},
        "engine": {
            "n_workers": 2, "jobs_run": jobs_run, "warmup_rounds": 1,
            "steady_shm_creates": 0, "steady_shm_attaches": 0,
            "phase_failures": 0,
            "arena": {"slabs": 4, "data_bytes": 1 << 20,
                      "meta_bytes": 4 << 20, "leases": leases, "in_use": 0,
                      "peak_in_use": 4},
        },
        "store": {"records": records, "evicted": 0, "by_status": by_status,
                  "stored_bytes": stored},
        "admission": {"accepted": accepted, "rejected": rejected},
    }}


_REJECTED = {"bad-radix": 1, "busy": 1, "too-large": 1}

TRANSCRIPT = [
    ("ping", {"ok": True, "op": "pong"}),
    ("submit", {"ok": True, "job_id": "*", "status": "queued"}),
    ("wait", _STATUS_DONE_A),
    ("status", _STATUS_DONE_A),
    ("result", _STATUS_DONE_A),
    ("stats", _stats(1, {}, 1, {"done": 1}, 8000, 1, 4)),
    ("submit", {"ok": False, "error": "bad-algorithm",
                "message": "algorithm must be one of ('radix', 'sample')"}),
    ("submit", {"ok": False, "error": "bad-request",
                "message": "header field 'radix' must be a number, got 'seven'"}),
    ("submit", {"ok": False, "error": "protocol-error",
                "message": "key payload is 8000 bytes but header declares 7 x <i8"}),
    ("submit", {"ok": False, "error": "too-large",
                "message": "200000 x <i8 keys need 1600000 bytes; the arena's "
                           "data slabs hold 1048576"}),
    ("submit", {"ok": False, "error": "bad-radix",
                "message": "radix 30 needs a 2x1073741824 histogram, over the "
                           "4194304-byte meta slab"}),
    ("no-such-op", {"ok": False, "error": "bad-op",
                    "message": "unknown op 'no-such-op'"}),
    ("status", {"ok": False, "error": "unknown-job"}),
    ("stream-status", {"ok": False, "error": "unknown-stream"}),
    ("stream-open", {"ok": False, "error": "bad-dtype",
                     "message": "data type 'no-such-dtype' not understood"}),
    ("stream-open", {"ok": True, **_STREAM, "phase": "ingest",
                     "keys_ingested": 0, "runs": 0, "bytes_spilled": 0,
                     "chunk_plan": None}),
    ("stream-open", {"ok": False, "error": "busy",
                     "message": "1 stream(s) already open (max 1)",
                     "retry_after_s": "*"}),
    ("stream-push", {"ok": True, **_S_PUSHED}),
    ("stream-status", {"ok": True, **_S_PUSHED}),
    ("stream-close", {"ok": True, **_S_PUSHED, "phase": "merging"}),
    ("stream-push", {"ok": False, "error": "bad-phase",
                     "message": "stream is merging, not accepting keys"}),
    ("stream-close", {"ok": False, "error": "bad-phase",
                      "message": "stream is merging, already closed"}),
    ("stream-fetch", {**_S_PUSHED, "phase": "merging", "ok": False,
                      "error": "not-ready"}),
    ("submit", {"ok": True, "job_id": "*", "status": "queued"}),
    ("status", {"ok": True, **_QUEUED_B}),
    ("result", {**_QUEUED_B, "ok": False, "error": "not-ready"}),
    ("wait", {**_QUEUED_B, "ok": False, "error": "wait-timeout"}),
    ("submit", {"ok": True, "job_id": "*", "status": "queued"}),
    ("submit", {"ok": False, "error": "busy",
                "message": "queue is at its 2-job cap", "retry_after_s": "*"}),
    ("wait", {**_RUNNING_B, "status": "done", "wall_s": "*",
              "plan": {"algorithm": "sample", "width": 2, "radix": None}}),
    ("wait", {**_RUNNING_B, "status": "expired", "algorithm": "radix",
              "queue_wait_s": None, "wall_s": None, "error": "deadline",
              "message": "job exceeded its 0s deadline before a worker "
                         "picked it up"}),
    ("result", {**_RUNNING_B, "status": "expired", "algorithm": "radix",
                "queue_wait_s": None, "wall_s": None, "ok": False,
                "error": "deadline",
                "message": "job exceeded its 0s deadline before a worker "
                           "picked it up"}),
    ("stream-status", {"ok": True, **_S_PUSHED, "phase": "done", "runs": 3,
                       "merge_passes": 1, "bytes_spilled": 36040,
                       "keys_merged": 2500}),
    ("stream-fetch", {"ok": True, "stream_id": "*", "seq": 0, "eof": False,
                      "n_keys": 1000, "dtype": "<i8"}),
    ("stream-fetch", {"ok": True, "stream_id": "*", "seq": 1, "eof": False,
                      "n_keys": 1000, "dtype": "<i8"}),
    ("stream-fetch", {"ok": True, "stream_id": "*", "seq": 2, "eof": False,
                      "n_keys": 500, "dtype": "<i8"}),
    ("stream-fetch", {"ok": True, "stream_id": "*", "seq": 3, "eof": True,
                      "n_keys": 0, "dtype": "<i8"}),
    ("stream-open", {"ok": True, **_STREAM, "chunk_keys": 131072,
                     "fan_in": 16, "phase": "ingest", "keys_ingested": 0,
                     "runs": 0, "bytes_spilled": 0, "chunk_plan": None}),
    ("stream-push", {"ok": False, "error": "stream-failed",
                     "message": "ValueError: invalid literal for int() with "
                                "base 10: b''",
                     "stream_id": "*"}),
    ("stream-status", {"ok": True, **_STREAM, "chunk_keys": 131072,
                       "fan_in": 16, "phase": "failed", "keys_ingested": 4,
                       "runs": 0, "bytes_spilled": 0, "chunk_plan": None,
                       "error": "ValueError",
                       "message": "invalid literal for int() with base 10: b''"}),
    ("stream-fetch", {"ok": False, "error": "stream-failed",
                      "message": "ValueError: invalid literal for int() with "
                                 "base 10: b''"}),
    ("stream-push", {"ok": False, "error": "bad-phase",
                     "message": "stream is failed, not accepting keys"}),
    ("stream-abort", {"ok": True, "stream_id": "*", "aborted": True}),
    ("submit", {"ok": True, "job_id": "*", "status": "queued"}),
    ("wait", {**_STATUS_DONE_A}),
    ("stats", _stats(4, _REJECTED, 4,
                     {"done": 3, "expired": 1}, 8000 * 3, 3, 10)),
    ("result", {**_STATUS_DONE_A, "ok": False, "error": "evicted"}),
    ("drain", {"ok": True, "drained": True, "jobs_run": 3}),
    ("submit", {"ok": False, "error": "draining",
                "message": "server is draining; submit elsewhere"}),
    ("stream-open", {"ok": False, "error": "draining",
                     "message": "server is draining; no new streams"}),
    ("<bad magic>", {"ok": False, "error": "bad-magic",
                     "message": "expected magic b'RPSV', got b'HTTP'"}),
    ("<over cap>", {"ok": False, "error": "frame-too-large",
                    "message": "peer announced a 8388608-byte frame, over the "
                               "4194304-byte cap",
                    "cap": _MAX_FRAME}),
    ("<cut short>", {"ok": False, "error": "frame-truncated",
                     "message": "stream closed mid-frame (11/13 bytes)"}),
    ("<not json>", {"ok": False, "error": "protocol-error",
                    "message": "frame header is not JSON (JSONDecodeError)"}),
    ("<not utf-8>", {"ok": False, "error": "protocol-error",
                     "message": "frame header is not JSON (UnicodeDecodeError)"}),
    ("<nested>", {"ok": False, "error": "protocol-error",
                  "message": "frame header is not JSON (RecursionError)"}),
    ("shutdown", {"ok": True, "drained": True, "jobs_run": 3,
                  "stopping": True}),
]


#: The codes the transcript drives: admission, lookups, the stream phase
#: machine, framing -- and ``deadline``, the error a job expired in the
#: queue carries.
REFUSAL_CODES = {
    "busy", "too-large", "bad-radix", "draining", "bad-algorithm",
    "bad-request", "protocol-error", "bad-op",
    "unknown-job", "unknown-stream", "not-ready", "wait-timeout", "evicted",
    "deadline", "bad-phase", "bad-dtype", "stream-failed",
    "bad-magic", "frame-too-large", "frame-truncated",
}


@pytest.fixture(scope="module")
def transcript():
    """The logged exchanges, and what the server's event loop logged at
    ERROR or above while they ran (an exception no handler caught)."""
    errors: list[logging.LogRecord] = []
    catch = logging.Handler(logging.ERROR)
    catch.emit = errors.append
    logging.getLogger("asyncio").addHandler(catch)
    try:
        with server_in_thread(
            n_workers=2, queue_depth=2, data_slab_bytes=1 << 20,
            max_frame=_MAX_FRAME, max_streams=1,
        ) as server:
            log = _drive(server)
    finally:
        logging.getLogger("asyncio").removeHandler(catch)
    return log, errors


def test_every_reply_header_is_pinned(transcript):
    log, _ = transcript
    assert [op for op, _ in log] == [op for op, _ in TRANSCRIPT]
    for i, (got, want) in enumerate(zip(log, TRANSCRIPT)):
        assert got == want, f"exchange {i} ({want[0]})"


def test_nothing_is_logged_as_unhandled(transcript):
    _, errors = transcript
    assert [r.getMessage() for r in errors] == []


def test_every_refusal_code_is_driven():
    """The script reaches every code a request can be refused with
    (``internal`` aside: no request should reach it)."""
    codes = {reply.get("error") for _, reply in TRANSCRIPT if not reply["ok"]}
    assert codes == REFUSAL_CODES
