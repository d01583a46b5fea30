"""The asyncio sort job server.

Architecture: one asyncio loop handles every connection, and one engine
lane -- a one-thread executor -- runs all engine work in arrival order.
The queue is the lane: a job admitted by
:class:`~.admission.AdmissionController` is one task that awaits the
lane, and a stream's chunk sorts and merge are lane work too.
Concurrency lives on the loop, parallelism inside a job (the engine's
worker pool) -- running jobs serially is what lets a two-data-slab arena
and per-job fault attribution be exact.

Deadlines and ``running`` are stamped when the lane reaches the job: a
job that waited past its deadline is expired with a structured
``deadline`` error instead of burning pool time, and ``queue_wait_s``
counts every wait behind the lane.  ``drain`` flips admission to
reject-with-``draining`` and resolves once no job is left; ``shutdown``
drains and then stops the server.  ``close`` is exception-safe: the pool
is reaped and every arena slab unlinked even when startup or serving
fails midway.

For tests and the CLI, :func:`server_in_thread` runs a server on a
background thread with its own loop and propagates startup errors to the
caller.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from ..faults.plan import FaultPlan
from ..trace import PID_SERVE, TraceRecorder, wall_instant
from .admission import AdmissionController
from .engine import EngineOutcome, SortEngine
from ..stream.runfile import StreamError, check_dtype
from .protocol import (
    MAX_FRAME,
    BadRequest,
    Body,
    Buffer,
    FrameTruncated,
    ProtocolError,
    Refused,
    decode_keys,
    encode_keys,
    frame_keys,
    key_spec,
    read_head,
    write_frame,
)
from .results import TERMINAL, JobRecord, ResultStore
from .streamjob import StreamSession

ALGORITHMS = ("radix", "sample")

#: What an op returns: its reply header, or the header and a payload.
Reply = dict[str, Any] | tuple[dict[str, Any], Buffer]


class ServeServer:
    """A sort-as-a-service endpoint over the resilient native pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        n_workers: int | None = None,
        queue_depth: int = 8,
        data_slab_bytes: int = 8 << 20,
        meta_slab_bytes: int = 4 << 20,
        max_results: int = 256,
        default_deadline_s: float | None = 30.0,
        fault_plan: FaultPlan | None = None,
        recorder: TraceRecorder | None = None,
        phase_timeout_s: float | None = 10.0,
        max_frame: int = MAX_FRAME,
        max_streams: int = 2,
    ):
        self.host = host
        self.port = port
        self.queue_depth = queue_depth
        self.data_slab_bytes = data_slab_bytes
        self.meta_slab_bytes = meta_slab_bytes
        self.default_deadline_s = default_deadline_s
        self.max_frame = max_frame
        self._n_workers = n_workers
        self._plan = fault_plan
        self._recorder = recorder
        self._phase_timeout_s = phase_timeout_s
        self.store = ResultStore(max_records=max_results)
        self.engine: SortEngine | None = None
        self.admission: AdmissionController | None = None
        self.draining = False
        self.max_streams = max_streams
        #: One task per admitted job, from submit until its record is
        #: written: the jobs the lane has not finished.
        self._jobs: dict[str, asyncio.Task] = {}
        self._streams: dict[str, StreamSession] = {}
        self._stream_tasks: dict[str, asyncio.Task] = {}
        #: Submits admitted whose keys are still arriving: they hold a
        #: queue place, so ``busy`` and ``drain`` stay exact.
        self._receiving = 0
        self._exec = ThreadPoolExecutor(1, thread_name_prefix="serve-engine")
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _make_engine(self) -> SortEngine:
        engine = SortEngine(
            self._n_workers,
            data_slab_bytes=self.data_slab_bytes,
            meta_slab_bytes=self.meta_slab_bytes,
            fault_plan=self._plan,
            recorder=self._recorder,
            phase_timeout_s=self._phase_timeout_s,
        )
        engine.warmup()
        return engine

    async def start(self) -> None:
        """Build the engine (pool + arena + warmup) and begin listening."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # Engine construction and warmup run on the engine thread so every
        # pool interaction for the server's lifetime happens on one thread.
        self.engine = await self._on_lane(self._make_engine)
        self.admission = AdmissionController(
            queue_depth=self.queue_depth,
            max_job_bytes=self.engine.arena.data_bytes,
            meta_slab_bytes=self.meta_slab_bytes,
            n_workers=self.engine.pool.n_workers,
        )
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop listening, let the lane finish its work, reap pool + arena."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            tasks = [*self._jobs.values(), *self._stream_tasks.values()]
            if tasks:
                # Generous: a hung phase is bounded by the supervised
                # pool's own timeout + retries.
                _, late = await asyncio.wait(tasks, timeout=120.0)
                for task in late:
                    task.cancel()
            for sess in list(self._streams.values()):
                sess.cleanup()
            self._streams.clear()
        finally:
            if self.engine is not None:
                await self._on_lane(self.engine.close)
            self._exec.shutdown(wait=True)

    def request_stop(self) -> None:
        """Thread-safe: ask the serving loop to shut down."""
        loop, ev = self._loop, self._stop_event
        if loop is None or ev is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(ev.set)

    async def serve_until_stopped(self) -> None:
        """``start``, print ``serving on <host>:<port> (...)`` (where
        callers read the port), serve until SIGINT/SIGTERM,
        ``request_stop`` or a shutdown op, close.  Main thread only."""

        def started() -> None:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, self.request_stop)
            assert self.engine is not None
            print(f"serving on {self.host}:{self.port} "
                  f"({self.engine.pool.n_workers} workers, "
                  f"queue depth {self.queue_depth})", flush=True)

        await self._run(started)

    async def _run(self, started: Callable[[], None]) -> None:
        """``start``, call ``started()``, serve until a stop is
        requested, and close -- on every path, a failed start too."""
        try:
            await self.start()
            started()
            assert self._stop_event is not None
            await self._stop_event.wait()
        finally:
            await self.aclose()

    # ------------------------------------------------------------------
    # The engine lane: every engine body, in arrival order
    # ------------------------------------------------------------------
    def _queue_len(self) -> int:
        return len(self._jobs) + self._receiving

    async def _on_lane(self, fn: Callable[..., Any], *args: Any) -> Any:
        return await asyncio.get_running_loop().run_in_executor(self._exec, fn, *args)

    def _job_body(self, rec: JobRecord, keys: np.ndarray) -> EngineOutcome | None:
        """The job's lane body: ``None`` if its deadline passed while it
        waited, else its outcome, stamped ``running`` as it starts."""
        if rec.expired_at(time.perf_counter()):
            return None
        self.store.mark_running(rec.job_id)
        return self.engine.run(
            rec.job_id, keys, rec.algorithm, rec.radix, rec.queue_wait_s
        )

    async def _job_task(self, rec: JobRecord, keys: np.ndarray) -> None:
        try:
            outcome = await self._on_lane(self._job_body, rec, keys)
        except Exception as err:
            self.store.set_failed(rec.job_id, type(err).__name__, str(err))
        else:
            if outcome is None:
                self.store.set_expired(rec.job_id)
                return
            # As bytes, not as the array: the store keeps a result long
            # after its job, and an array never freed makes every job's
            # copy out of the slab land in fresh memory, which numpy
            # (>= 4 MiB) asks the kernel to back with huge pages --
            # 20-25 ms of first touch per 6 MB result on a cold host.
            # Copied once more, the array's block is reused warm.
            self.store.set_done(
                rec.job_id,
                outcome.sorted_keys.tobytes(),
                plan=outcome.plan.public(),
                faults=outcome.faults,
                shm_creates=outcome.shm_creates,
                shm_attaches=outcome.shm_attaches,
            )
            if self.admission is not None:
                self.admission.note_job_duration(outcome.wall_s)
        finally:
            self._jobs.pop(rec.job_id, None)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hang_up = False
            while not hang_up:
                payload: Buffer = b""
                try:
                    header, body = await read_head(reader, self.max_frame)
                    try:
                        reply, payload = await self._dispatch(header, body)
                    except FrameTruncated:
                        raise
                    except Refused as err:
                        reply = err
                    except Exception as err:  # pragma: no cover - defensive
                        reply = Refused("internal", f"{type(err).__name__}: {err}")
                    # A payload no op took (the request was refused on its
                    # header, or carries none it should): drained, dropped.
                    await body.read(keep=False)
                except EOFError:
                    break
                except ProtocolError as err:
                    # The stream cannot be trusted past a framing error
                    # (unread body bytes would desynchronize it): answer
                    # with the typed error, then hang up.
                    reply, payload, hang_up = err, b"", True
                if isinstance(reply, Refused):
                    reply = reply.reply()
                await write_frame(writer, reply, payload, self.max_frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            # Cancelled here too at loop shutdown, when the peer has not
            # closed yet: a handler task that ends cancelled is logged as
            # an unhandled error by Python 3.11's stream callback.
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, header: dict[str, Any], body: Body
    ) -> tuple[dict[str, Any], Buffer]:
        op = header.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            raise Refused("bad-op", f"unknown op {op!r}")
        reply = await handler(self, header, body)
        return reply if isinstance(reply, tuple) else (reply, b"")

    def _job(self, header: dict[str, Any]) -> JobRecord:
        rec = self.store.get(str(header.get("job_id")))
        if rec is None:
            raise Refused("unknown-job")
        return rec

    def _stream(self, header: dict[str, Any]) -> StreamSession:
        sess = self._streams.get(str(header.get("stream_id")))
        if sess is None:
            raise Refused("unknown-stream")
        return sess

    # ------------------------------------------------------------------
    # Ops: each takes (header, body) and returns its reply header -- or
    # (header, payload) -- or raises Refused.  Declared once, in _OPS.
    # ------------------------------------------------------------------
    async def _op_ping(self, header: dict[str, Any], body: Body) -> Reply:
        return {"ok": True, "op": "pong"}

    async def _op_submit(self, header: dict[str, Any], body: Body) -> Reply:
        """Admit or refuse from the header alone; only an admitted job's
        keys are received (into the array the job then owns)."""
        assert self.admission is not None
        dtype, n_keys = key_spec(header, body.n)
        algorithm = header.get("algorithm")  # absent: the planner decides
        if algorithm is not None and algorithm not in ALGORITHMS:
            raise Refused("bad-algorithm", f"algorithm must be one of {ALGORITHMS}")
        radix = _number(header, "radix", int)
        deadline_s = _number(header, "deadline_s", float, self.default_deadline_s)
        verdict = self.admission.check(
            n_keys=n_keys,
            dtype=dtype,
            radix=radix,
            queue_len=self._queue_len(),
            draining=self.draining,
            max_frame=self.max_frame,
        )
        if verdict is not None:
            if self._recorder is not None:
                wall_instant(
                    f"serve.reject.{verdict.code}", "serve.reject", pid=PID_SERVE,
                    args={"n_keys": n_keys, "queue_len": self._queue_len()},
                    recorder=self._recorder,
                )
            raise verdict
        self._receiving += 1
        try:
            keys = decode_keys(header, await body.read())
        finally:
            self._receiving -= 1
        rec = self.store.new_job(
            algorithm=algorithm,
            n_keys=n_keys,
            dtype=dtype.str,
            radix=radix,
            deadline_s=deadline_s,
        )
        self._jobs[rec.job_id] = asyncio.create_task(self._job_task(rec, keys))
        return {"ok": True, "job_id": rec.job_id, "status": "queued"}

    async def _op_status(self, header: dict[str, Any], body: Body) -> Reply:
        return {"ok": True, **self._job(header).public()}

    async def _op_wait(self, header: dict[str, Any], body: Body) -> Reply:
        rec = self._job(header)
        timeout_s = _number(header, "timeout_s", float, 60.0)
        task = self._jobs.get(rec.job_id)  # none: finished or evicted
        if task is not None:
            try:
                await asyncio.wait_for(asyncio.shield(task), timeout=timeout_s)
            except asyncio.TimeoutError:
                raise Refused("wait-timeout", **rec.public()) from None
        return await self._op_status(header, body)

    async def _op_result(self, header: dict[str, Any], body: Body) -> Reply:
        rec = self._job(header)
        if rec.status not in TERMINAL:
            raise Refused("not-ready", **rec.public())
        if rec.status != "done":
            raise Refused(rec.error or rec.status, **rec.public())
        payload = rec.sorted_bytes
        if payload is None:
            raise Refused("evicted", **rec.public())
        self.store.mark_delivered(rec.job_id)
        return {"ok": True, **rec.public()}, payload

    async def _op_stats(self, header: dict[str, Any], body: Body) -> Reply:
        return {"ok": True, "stats": self.stats()}

    # Streaming jobs (external sorts spanning many frames + pool phases):
    # the session keeps its own phase; the server routes and schedules.
    async def _op_stream_open(self, header: dict[str, Any], body: Body) -> Reply:
        assert self.engine is not None
        if self.draining:
            raise Refused("draining", "server is draining; no new streams")
        if len(self._streams) >= self.max_streams:
            raise Refused(
                "busy",
                f"{len(self._streams)} stream(s) already open "
                f"(max {self.max_streams})",
                retry_after_s=1.0,
            )
        try:
            dtype = check_dtype(header.get("dtype", "<i8"), "stream")
        except (TypeError, StreamError) as err:
            raise Refused("bad-dtype", str(err)) from None
        # The chunk is the only full-width allocation a stream makes on
        # the engine: cap it so a chunk always fits one arena data slab.
        cap_keys = max(4, self.engine.arena.data_bytes // dtype.itemsize)
        chunk_keys = _number(header, "chunk_keys", int) or cap_keys
        chunk_keys = max(4, min(chunk_keys, cap_keys))
        fan_in = max(2, _number(header, "fan_in", int) or 16)
        sess = StreamSession(self.engine, dtype, chunk_keys, fan_in)
        self._streams[sess.stream_id] = sess
        return {"ok": True, **sess.public()}

    async def _op_stream_push(self, header: dict[str, Any], body: Body) -> Reply:
        sess = self._stream(header)
        sess.check_push()
        key_spec(header, body.n)  # refused, if at all, before there is a buffer
        keys = decode_keys(header, await body.read())
        # Chunks the push completes sort now, on the engine lane; the
        # reply lands only after they spill, which is the stream's
        # natural backpressure.
        await self._on_lane(sess.push_on_engine, keys)
        return {"ok": True, **sess.public()}

    async def _op_stream_close(self, header: dict[str, Any], body: Body) -> Reply:
        sess = self._stream(header)
        sess.start_merge()
        task = asyncio.create_task(self._finalize_stream(sess))
        self._stream_tasks[sess.stream_id] = task
        return {"ok": True, **sess.public()}

    async def _finalize_stream(self, sess: StreamSession) -> None:
        try:
            await self._on_lane(sess.finish_on_engine)
        except Refused:
            pass  # the session is failed, and says why
        finally:
            self._stream_tasks.pop(sess.stream_id, None)
            if sess.stream_id not in self._streams:
                # Aborted while merging: nobody will fetch; drop spills.
                sess.cleanup()

    async def _op_stream_status(self, header: dict[str, Any], body: Body) -> Reply:
        return {"ok": True, **self._stream(header).public()}

    async def _op_stream_fetch(self, header: dict[str, Any], body: Body) -> Reply:
        sess = self._stream(header)
        sess.check_fetch()
        cap_keys = frame_keys(self.max_frame, sess.dtype.itemsize)
        max_keys = _number(header, "max_keys", int, cap_keys)
        if max_keys is None or max_keys < 1:
            raise BadRequest(f"header field 'max_keys' must be >= 1, got {max_keys}")
        block, seq = sess.fetch_block(min(cap_keys, max_keys))
        base = {"ok": True, "stream_id": sess.stream_id, "seq": seq,
                "dtype": sess.dtype.str}
        if block is None:
            self._streams.pop(sess.stream_id, None)
            return {**base, "eof": True, "n_keys": 0}
        return (
            {**base, "eof": False, "n_keys": int(len(block))},
            encode_keys(block)[1],
        )

    async def _op_stream_abort(self, header: dict[str, Any], body: Body) -> Reply:
        sess = self._stream(header)
        self._streams.pop(sess.stream_id, None)
        if sess.stream_id not in self._stream_tasks:
            # Not merging: safe to drop spills now (a merging session is
            # cleaned by _finalize_stream when its engine work returns).
            sess.cleanup()
        return {"ok": True, "stream_id": sess.stream_id, "aborted": True}

    async def _op_drain(self, header: dict[str, Any], body: Body) -> Reply:
        self.draining = True
        while self._queue_len() > 0:
            await asyncio.sleep(0.01)
        return {"ok": True, "drained": True, "jobs_run": self.engine.jobs_run}

    async def _op_shutdown(self, header: dict[str, Any], body: Body) -> Reply:
        reply = await self._op_drain(header, body)
        assert self._stop_event is not None
        # Let the reply frame flush before serve_until_stopped tears down.
        asyncio.get_running_loop().call_later(0.05, self._stop_event.set)
        return {**reply, "stopping": True}

    _OPS = {
        "ping": _op_ping,
        "submit": _op_submit,
        "status": _op_status,
        "wait": _op_wait,
        "result": _op_result,
        "stats": _op_stats,
        "stream-open": _op_stream_open,
        "stream-push": _op_stream_push,
        "stream-close": _op_stream_close,
        "stream-status": _op_stream_status,
        "stream-fetch": _op_stream_fetch,
        "stream-abort": _op_stream_abort,
        "drain": _op_drain,
        "shutdown": _op_shutdown,
    }

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        assert self.admission is not None
        return {
            "draining": self.draining,
            "queue_len": self._queue_len(),
            "queue_depth": self.queue_depth,
            "max_frame": self.max_frame,
            "streams": {
                "open": len(self._streams),
                "max": self.max_streams,
                "merging": len(self._stream_tasks),
            },
            "engine": None if self.engine is None else self.engine.stats(),
            "store": self.store.stats(),
            "admission": {
                "accepted": self.admission.stats.accepted,
                "rejected": dict(self.admission.stats.rejected),
            },
        }


def _number(header: dict[str, Any], field: str, cast: type, default=None):
    """Header ``field`` as ``cast`` (``int``/``float``); absent -> the
    cast ``default``, null -> ``None``, and anything non-numeric is a
    typed ``bad-request`` naming the field (never an ``internal``)."""
    raw = header.get(field, default)
    if raw is None:
        return None
    try:
        return cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise BadRequest(
            f"header field {field!r} must be a number, got {raw!r}"
        ) from None


# ----------------------------------------------------------------------
# Thread-hosted server (tests, loadgen --spawn-server, chaos)
# ----------------------------------------------------------------------
@contextmanager
def server_in_thread(**kwargs: Any) -> Iterator[ServeServer]:
    """Run a :class:`ServeServer` on a background thread with its own
    event loop; yields the started server (``.port`` is bound).  Startup
    failures propagate to the caller, and the pool/arena are torn down on
    every exit path."""
    server = ServeServer(**kwargs)
    started = threading.Event()
    errors: list[BaseException] = []

    def _runner() -> None:
        try:
            asyncio.run(server._run(started.set))
        except BaseException as err:
            errors.append(err)
        finally:
            started.set()

    thread = threading.Thread(target=_runner, name="serve-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=60.0):
        raise RuntimeError("server failed to start within 60s")
    if errors:
        thread.join(timeout=10.0)
        raise errors[0]
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=60.0)
        if errors:  # pragma: no cover - defensive
            raise errors[0]
