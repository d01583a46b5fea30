"""End-to-end server tests over real sockets: correctness, job lifecycle,
deadlines, backpressure, drain semantics, and the steady-state
zero-create/zero-attach contract asserted from the trace spans."""

from __future__ import annotations

import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.serve import (
    ServeClient,
    ServeError,
    ServeRejected,
    server_in_thread,
)
from repro.serve.protocol import encode_keys, pack_frame, read_frame_sync


def _keys(seed: int, n: int = 50_000) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 1 << 40, size=n, dtype=np.int64
    )


class TestSorting:
    @pytest.mark.parametrize("algorithm", ["radix", "sample"])
    def test_sort_matches_numpy(self, client, algorithm):
        keys = _keys(1)
        out = client.sort(keys, algorithm)
        assert np.array_equal(out, np.sort(keys))

    def test_unpinned_job_is_planned_and_says_so(self, client):
        """No ``algorithm`` on the wire: the server's planner decides,
        and the status reply carries the plan that ran next to the
        (absent) request.  Negative keys are fine -- nothing invents
        ``radix`` any more."""
        keys = _keys(2, 20_000) - (1 << 39)
        job_id = client.submit(keys)
        status = client.wait(job_id, timeout_s=60.0)
        assert status["status"] == "done"
        assert status["algorithm"] is None
        assert status["plan"] == {
            "algorithm": "sequential", "width": 1, "radix": None,
        }
        assert np.array_equal(client.result(job_id), np.sort(keys))
        assert np.array_equal(client.sort(keys), np.sort(keys))

    def test_pinned_job_reports_its_own_plan(self, client):
        job_id = client.submit(_keys(3, 20_000), "radix", radix=8)
        assert client.status(job_id)["algorithm"] == "radix"
        status = client.wait(job_id, timeout_s=60.0)
        assert status["algorithm"] == "radix"
        assert status["plan"] == {"algorithm": "radix", "width": 2, "radix": 8}

    def test_interleaved_jobs_keep_their_identities(self, client):
        batches = [_keys(seed, 5_000 + 1_000 * seed) for seed in range(5)]
        job_ids = [client.submit(k, "radix") for k in batches]
        assert len(set(job_ids)) == len(job_ids)
        for job_id, keys in zip(job_ids, batches):
            status = client.wait(job_id, timeout_s=60.0)
            assert status["status"] == "done"
            assert status["n_keys"] == len(keys)
            assert np.array_equal(client.result(job_id), np.sort(keys))

    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        assert stats["engine"]["n_workers"] == 2
        assert stats["queue_depth"] == 64


class TestLifecycle:
    def test_status_polling_reaches_done(self, client):
        job_id = client.submit(_keys(7), "radix")
        status = client.status(job_id)
        assert status["status"] in ("queued", "running", "done")
        final = client.wait(job_id, timeout_s=60.0)
        assert final["status"] == "done"
        assert final["wall_s"] is not None and final["wall_s"] > 0
        assert final["queue_wait_s"] is not None

    def test_unknown_job_is_structured(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("j999999")
        assert exc.value.code == "unknown-job"

    def test_result_before_done_is_not_ready(self, client):
        job_id = client.submit(_keys(8, 200_000), "sample")
        try:
            client.result(job_id)
        except ServeError as err:
            assert err.code in ("not-ready",)
        finally:
            client.wait(job_id, timeout_s=60.0)

    def test_queue_wait_counts_the_time_behind_the_lane(self, served, client):
        """``running`` is stamped when the engine lane reaches the job, so
        time spent behind other lane work is queue wait, not run time."""
        server, _ = served
        gate = threading.Event()
        server._exec.submit(gate.wait)
        try:
            job_id = client.submit(_keys(12, 1_000), "radix")
            time.sleep(0.25)
        finally:
            gate.set()
        status = client.wait(job_id, timeout_s=60.0)
        assert status["status"] == "done"
        assert status["queue_wait_s"] >= 0.2, status
        assert status["wall_s"] < 0.2, status

    def test_wait_on_an_unknown_job_answers_at_once(self, client):
        t0 = time.perf_counter()
        with pytest.raises(ServeError) as exc:
            client.wait("j999999", timeout_s=5.0)
        assert exc.value.code == "unknown-job"
        assert time.perf_counter() - t0 < 1.0

    def test_wait_on_an_evicted_job_answers_at_once(self):
        with server_in_thread(n_workers=2, max_results=1) as server:
            with ServeClient(port=server.port) as client:
                gone = client.submit(_keys(13, 1_000), "radix")
                assert client.wait(gone, 60.0)["status"] == "done"
                # Over max_results: the finished record is evicted.
                client.wait(client.submit(_keys(14, 1_000), "radix"), 60.0)
                t0 = time.perf_counter()
                with pytest.raises(ServeError) as exc:
                    client.wait(gone, timeout_s=5.0)
                assert exc.value.code == "unknown-job"
                assert time.perf_counter() - t0 < 1.0

    def test_bad_algorithm_is_structured(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit(_keys(9, 100), "bogosort")
        assert exc.value.code == "bad-algorithm"


class TestDeadline:
    def test_expired_at_dequeue_is_structured(self):
        with server_in_thread(n_workers=2, queue_depth=8) as server:
            with ServeClient(port=server.port) as client:
                # Occupy the engine so the deadline job waits in queue.
                blocker = client.submit(_keys(10, 700_000), "sample")
                job_id = client.submit(
                    _keys(11, 1_000), "radix", deadline_s=0.0
                )
                status = client.wait(job_id, timeout_s=60.0)
                assert status["status"] == "expired"
                assert status["error"] == "deadline"
                assert "deadline" in (status["message"] or "")
                with pytest.raises(ServeError) as exc:
                    client.result(job_id)
                assert exc.value.code == "deadline"
                # The blocking job itself is unharmed.
                assert client.wait(blocker, 60.0)["status"] == "done"


class TestBackpressure:
    def test_burst_gets_busy_with_retry_hint(self):
        with server_in_thread(n_workers=2, queue_depth=1) as server:
            with ServeClient(port=server.port) as client:
                rejected = None
                accepted = []
                for seed in range(6):
                    try:
                        accepted.append(
                            client.submit(_keys(seed, 300_000), "radix")
                        )
                    except ServeRejected as rej:
                        rejected = rej
                assert rejected is not None and rejected.code == "busy"
                assert rejected.retry_after_s is not None
                for job_id in accepted:
                    assert client.wait(job_id, 60.0)["status"] == "done"

    def test_too_large_job_is_refused(self):
        with server_in_thread(
            n_workers=2, queue_depth=4, data_slab_bytes=1 << 16
        ) as server:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeRejected) as exc:
                    client.submit(_keys(1, 100_000), "radix")
                assert exc.value.code == "too-large"
                # A job that fits still sorts.
                keys = _keys(2, 1_000)
                assert np.array_equal(
                    client.sort(keys, "radix"), np.sort(keys)
                )

    def test_oversized_radix_is_refused(self, client):
        with pytest.raises(ServeRejected) as exc:
            client.submit(_keys(3, 1_000), "radix", radix=24)
        assert exc.value.code == "bad-radix"


class TestDrain:
    def test_drain_completes_inflight_and_refuses_new(self):
        with server_in_thread(n_workers=2, queue_depth=8) as server:
            with ServeClient(port=server.port) as client:
                inflight = client.submit(_keys(20, 500_000), "sample")
                with ServeClient(port=server.port) as control:
                    reply = control.drain()
                    assert reply["drained"] is True
                # Drain returned only after the in-flight job finished.
                status = client.status(inflight)
                assert status["status"] == "done"
                assert np.array_equal(
                    client.result(inflight),
                    np.sort(_keys(20, 500_000)),
                )
                with pytest.raises(ServeRejected) as exc:
                    client.submit(_keys(21, 100), "radix")
                assert exc.value.code == "draining"


class TestSteadyState:
    def test_jobs_run_with_zero_creates_and_attaches(self, served, client):
        server, recorder = served
        before = len([e for e in recorder.events if e.cat == "serve.job"])
        for seed in range(4):
            keys = _keys(seed + 30, 20_000)
            assert np.array_equal(client.sort(keys, "radix"), np.sort(keys))
            keys = _keys(seed + 60, 20_000)
            assert np.array_equal(client.sort(keys, "sample"), np.sort(keys))
        spans = [e for e in recorder.events if e.cat == "serve.job"][before:]
        assert len(spans) == 8
        for span in spans:
            assert span.args["shm_creates"] == 0, span.args
            assert span.args["shm_attaches"] == 0, span.args
            assert span.args["job_id"].startswith("j")
        stats = client.stats()["engine"]
        assert stats["steady_shm_creates"] == 0
        assert stats["steady_shm_attaches"] == 0

    def test_per_job_counters_reported_to_clients(self, client):
        job_id = client.submit(_keys(42, 10_000), "radix")
        status = client.wait(job_id, 60.0)
        assert status["shm_creates"] == 0
        assert status["shm_attaches"] == 0


class TestWireErrors:
    def test_bad_magic_gets_structured_reply_then_close(self, served):
        server, _ = served
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"HTTP/1.1 GET /\r\n" + b"\x00" * 16)
            header, _ = read_frame_sync(sock)
            assert header["ok"] is False
            assert header["error"] == "bad-magic"
            assert sock.recv(1) == b""  # server hung up

    def test_announced_oversized_frame_is_refused(self, served):
        server, _ = served
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(struct.pack(">4sI", b"RPSV", (1 << 30)))
            header, _ = read_frame_sync(sock)
            assert header["ok"] is False
            assert header["error"] == "frame-too-large"
            assert sock.recv(1) == b""

    def test_a_result_that_cannot_fit_one_frame_is_refused_at_submit(self):
        """131,063 int64 keys are a 1,048,574-byte submit body, under a
        1 MiB cap, but their result reply (keys plus the job record) is
        not: admitted, the job would finish and never be fetched.
        Admission refuses it as ``too-large`` on its header, and takes
        the largest job whose result fits (the cap less 64 KiB)."""
        with server_in_thread(n_workers=2, max_frame=1 << 20) as server:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeRejected) as exc:
                    client.submit(_keys(80, 131_063), "sample")
                assert exc.value.code == "too-large"
                keys = _keys(81, ((1 << 20) - (64 << 10)) // 8)
                assert np.array_equal(client.sort(keys, "sample"), np.sort(keys))
                assert client.stats()["admission"]["rejected"] == {"too-large": 1}


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * 4096


class TestHeaderFirst:
    """The server reads a frame's head, decides, and only then makes room
    for the payload: a refusal costs no memory and no desync."""

    def test_too_large_is_refused_before_the_allocator_runs(self):
        keys = _keys(70, 768_000)  # 6 MB against 1 MiB slabs
        small = _keys(71, 1_000)
        with server_in_thread(
            n_workers=2, queue_depth=4, data_slab_bytes=1 << 20
        ) as server:
            with ServeClient(port=server.port) as client:
                assert client.ping()
                tracemalloc.start()
                try:
                    idle = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    with pytest.raises(ServeRejected) as exc:
                        client.submit(keys, "sample")
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert exc.value.code == "too-large"
                assert peak - idle < 1 << 20
                # The 6 MB were drained, not left in the stream.
                assert client.ping()
                assert np.array_equal(client.sort(small, "radix"), np.sort(small))
                assert client.stats()["admission"]["rejected"] == {"too-large": 1}

    def test_refused_push_is_drained_and_the_stream_stays_in_step(self, client):
        keys = _keys(72, 400_000)
        fields, payload = encode_keys(keys)
        with pytest.raises(ServeError) as exc:
            client._call(
                {"op": "stream-push", "stream_id": "nope", **fields}, payload
            )
        assert exc.value.code == "unknown-stream"
        assert client.ping()
        stream_id = client.stream_open("<i8", chunk_keys=100_000)
        client.stream_push(stream_id, keys)
        client.stream_close(stream_id)
        with pytest.raises(ServeError) as exc:
            client.stream_push(stream_id, keys)
        assert exc.value.code == "bad-phase"
        assert client.stream_wait(stream_id)["phase"] == "done"
        out = []
        while (block := client.stream_fetch(stream_id)) is not None:
            out.append(block)
        assert np.array_equal(np.concatenate(out), np.sort(keys))

    def test_bad_key_description_is_refused_unread(self, client):
        fields, payload = encode_keys(_keys(73, 300_000))
        for bad in ({"n_keys": 7}, {"dtype": "no-such"}, {"n_keys": None}):
            with pytest.raises(ServeError) as exc:
                client._call({"op": "submit", **fields, **bad}, payload)
            assert exc.value.code == "protocol-error"
        assert client.ping()

    def test_payload_on_an_op_that_takes_none_is_dropped(self, client):
        reply, _ = client._call({"op": "ping"}, b"x" * 700_000)
        assert reply["op"] == "pong"
        assert client.ping()

    def test_announced_payload_that_never_comes_holds_no_memory(self, client, served):
        """A peer opens a stream, announces a 48 MiB push, and goes
        silent: the buffer it is owed is address space, not memory."""
        server, _ = served
        stream_id = client.stream_open("<i8")
        n = (48 << 20) // 8
        frame = pack_frame(
            {"op": "stream-push", "stream_id": stream_id,
             "dtype": "<i8", "n_keys": n},
            b"\x00" * 4096,
        )
        head = bytearray(frame[:-4096])
        struct.pack_into(">I", head, 4, len(head) - 8 + 8 * n)
        before = _rss_bytes()
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(head + frame[-4096:])
            time.sleep(0.3)
            assert _rss_bytes() - before < 8 << 20
        # The hang-up mid-payload ends that connection, nothing else.
        assert client.stream_status(stream_id)["keys_ingested"] == 0
        client.stream_abort(stream_id)

    def test_a_job_still_arriving_holds_its_queue_place(self):
        """Admission happens before the payload arrives, so ``busy`` must
        count the jobs admitted and not yet queued."""
        keys = _keys(74, 200_000)
        fields, payload = encode_keys(keys)
        frame = pack_frame({"op": "submit", "algorithm": "sample", **fields}, payload)
        with server_in_thread(n_workers=2, queue_depth=1) as server:
            with socket.create_connection(("127.0.0.1", server.port)) as slow:
                slow.sendall(frame[: len(frame) // 2])
                with ServeClient(port=server.port) as client:
                    deadline = time.perf_counter() + 10.0
                    while client.stats()["queue_len"] == 0:
                        assert time.perf_counter() < deadline, "never admitted"
                        time.sleep(0.01)
                    with pytest.raises(ServeRejected) as exc:
                        client.submit(_keys(75, 100), "radix")
                    assert exc.value.code == "busy"
                    slow.sendall(frame[len(frame) // 2 :])
                    reply, _ = read_frame_sync(slow)
                    assert reply["ok"], reply
                    assert client.wait(reply["job_id"], 60.0)["status"] == "done"
                    assert np.array_equal(
                        client.result(reply["job_id"]), np.sort(keys)
                    )


class TestClientTransportErrors:
    def test_timeout_mid_reply_closes_the_connection(self):
        """A reply that stalls half-way must not leave its other half to
        be parsed as the next reply's header."""
        frame = pack_frame({"ok": True, "op": "pong"}, b"y" * 64)
        listener = socket.create_server(("127.0.0.1", 0))
        release = threading.Event()

        def stub():
            conn, _ = listener.accept()
            with conn:
                read_frame_sync(conn)
                conn.sendall(frame[: len(frame) - 40])
                release.wait(10.0)
                conn.sendall(frame[len(frame) - 40 :])

        server = threading.Thread(target=stub)
        server.start()
        try:
            with ServeClient(
                port=listener.getsockname()[1], timeout_s=0.2
            ) as client:
                with pytest.raises(TimeoutError):
                    client.ping()
                release.set()
                with pytest.raises(ConnectionError, match="closed after .*[Tt]ime"):
                    client.ping()
        finally:
            release.set()
            server.join(timeout=10.0)
            listener.close()

    def test_local_cap_refusal_leaves_the_connection_usable(self, served):
        from repro.serve.protocol import FrameTooLarge

        server, _ = served
        with ServeClient(port=server.port, max_frame=1 << 16) as client:
            with pytest.raises(FrameTooLarge):
                client.submit(_keys(76, 100_000), "radix")
            assert client.ping()
