"""End-to-end server tests over real sockets: correctness, job lifecycle,
deadlines, backpressure, drain semantics, and the steady-state
zero-create/zero-attach contract asserted from the trace spans."""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

from repro.serve import (
    ServeClient,
    ServeError,
    ServeRejected,
    server_in_thread,
)
from repro.serve.protocol import read_frame_sync


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
        before = len(recorder.by_cat("serve.job"))
        for seed in range(4):
            keys = _keys(seed + 30, 20_000)
            assert np.array_equal(client.sort(keys, "radix"), np.sort(keys))
            keys = _keys(seed + 60, 20_000)
            assert np.array_equal(client.sort(keys, "sample"), np.sort(keys))
        spans = recorder.by_cat("serve.job")[before:]
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
