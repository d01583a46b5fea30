"""The serve streaming job class: sessions whose lifetime spans many
frames and pool phases -- open/push/close/status/fetch/abort, the frame
cap on pushes and fetches, admission limits, and the structured
``FrameTooLarge`` cap report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.serve import (
    ServeClient,
    ServeError,
    server_in_thread,
)
from repro.serve.protocol import encode_keys, frame_keys
from repro.stream import external_sort


def _keys(seed: int, n: int = 120_000) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 1 << 40, size=n, dtype=np.int64
    )


class TestLifecycle:
    def test_stream_sort_matches_numpy(self, client):
        keys = _keys(1)
        out = client.stream_sort(keys, chunk_keys=20_000, fan_in=3)
        assert np.array_equal(out, np.sort(keys))

    def test_explicit_lifecycle_with_progress(self, client):
        keys = _keys(2, 90_000)
        stream_id = client.stream_open("<i8", chunk_keys=20_000, fan_in=2)
        client.stream_push(stream_id, keys[:50_000])
        status = client.stream_status(stream_id)
        assert status["phase"] == "ingest"
        assert status["keys_ingested"] == 50_000
        assert status["runs"] >= 2  # full chunks already spilled
        client.stream_push(stream_id, keys[50_000:])
        client.stream_close(stream_id)
        final = client.stream_wait(stream_id, timeout_s=120.0)
        assert final["phase"] == "done"
        assert final["keys_ingested"] == len(keys)
        assert final["keys_merged"] == len(keys)
        assert final["runs"] == 5  # 4 full chunks + the close-time drain
        assert final["merge_passes"] >= 1
        assert final["bytes_spilled"] > 0
        blocks = []
        while True:
            block = client.stream_fetch(stream_id, max_keys=30_000)
            if block is None:
                break
            assert len(block) <= 30_000
            blocks.append(block)
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))
        # EOF popped the session server-side.
        with pytest.raises(ServeError, match="unknown-stream"):
            client.stream_status(stream_id)

    def test_uint32_stream(self, client):
        keys = np.random.default_rng(3).integers(
            0, 1 << 32, size=60_000, dtype=np.uint32
        )
        out = client.stream_sort(keys, chunk_keys=16_000)
        assert out.dtype == np.dtype("<u4")
        assert np.array_equal(out, np.sort(keys))

    @pytest.mark.parametrize("dtype", ["<i4", "<i8", "<u8"])
    def test_signed_and_full_range_streams(self, client, dtype):
        """Negative ``<i4``/``<i8`` keys used to fail the stream with
        ``ValueError: radix sort requires non-negative keys``."""
        info = np.iinfo(np.dtype(dtype))
        keys = np.random.default_rng(9).integers(
            info.min, info.max, size=50_000, dtype=np.dtype(dtype), endpoint=True
        )
        keys[:3] = (info.min, info.max, 0)
        out = client.stream_sort(keys, chunk_keys=12_000, fan_in=2)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, np.sort(keys))

    def test_status_carries_the_chunk_plan(self, client):
        stream_id = client.stream_open("<i8", chunk_keys=10_000)
        opened = client.stream_status(stream_id)
        assert opened["algorithm"] is None and opened["chunk_plan"] is None
        client.stream_push(stream_id, _keys(10, 25_000))
        status = client.stream_status(stream_id)
        assert status["chunk_plan"] == {
            "algorithm": "sequential", "width": 1, "radix": None,
        }
        client.stream_abort(stream_id)

    def test_empty_stream(self, client):
        out = client.stream_sort(np.empty(0, dtype=np.int64))
        assert len(out) == 0

    def test_regular_jobs_interleave_with_streams(self, client):
        keys = _keys(4, 60_000)
        stream_id = client.stream_open("<i8", chunk_keys=16_000)
        client.stream_push(stream_id, keys)
        small = _keys(5, 10_000)
        assert np.array_equal(client.sort(small, "radix"), np.sort(small))
        client.stream_close(stream_id)
        assert client.stream_wait(stream_id)["phase"] == "done"
        blocks = []
        while (block := client.stream_fetch(stream_id)) is not None:
            blocks.append(block)
        assert np.array_equal(np.concatenate(blocks), np.sort(keys))


class TestFrameCap:
    def test_push_is_sliced_under_a_small_cap(self):
        """A client with a tiny frame budget must still stream any size
        through, and the server must reassemble the exact key set."""
        with server_in_thread(
            n_workers=2, queue_depth=8, max_frame=1 << 20
        ) as server:
            with ServeClient(port=server.port, max_frame=1 << 20) as client:
                keys = _keys(6, 500_000)  # 4 MB >> the 1 MiB cap
                assert frame_keys(client.max_frame, 8) < len(keys)
                out = client.stream_sort(keys, chunk_keys=120_000)
                assert np.array_equal(out, np.sort(keys))

    def test_fetch_blocks_respect_the_cap(self):
        with server_in_thread(
            n_workers=2, queue_depth=8, max_frame=1 << 20
        ) as server:
            with ServeClient(port=server.port, max_frame=1 << 20) as client:
                keys = _keys(7, 400_000)
                stream_id = client.stream_open("<i8", chunk_keys=100_000)
                client.stream_push(stream_id, keys)
                client.stream_close(stream_id)
                client.stream_wait(stream_id)
                blocks = []
                while (block := client.stream_fetch(stream_id)) is not None:
                    assert block.nbytes < (1 << 20)
                    blocks.append(block)
                assert np.array_equal(
                    np.concatenate(blocks), np.sort(keys)
                )

    def test_frame_too_large_reports_the_cap(self):
        """Satellite fix: an oversized frame is rejected with the
        configured cap in the structured payload, so the client can tell
        the limit from corruption."""
        cap = 1 << 20
        with server_in_thread(
            n_workers=2, queue_depth=8, max_frame=cap
        ) as server:
            # The client believes in a bigger cap, so the server rejects.
            with ServeClient(port=server.port, max_frame=64 << 20) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.sort(_keys(8, 300_000), "radix")
                assert excinfo.value.code == "frame-too-large"
                assert excinfo.value.reply.get("cap") == cap

    def test_configured_cap_is_reported_in_stats(self):
        with server_in_thread(
            n_workers=2, queue_depth=8, max_frame=2 << 20
        ) as server:
            with ServeClient(port=server.port) as client:
                stats = client.stats()
                assert stats["max_frame"] == 2 << 20
                assert stats["streams"]["max"] >= 1


class TestAdmission:
    def test_max_streams_limit(self):
        with server_in_thread(
            n_workers=2, queue_depth=8, max_streams=1
        ) as server:
            with ServeClient(port=server.port) as client:
                first = client.stream_open("<i8")
                from repro.serve import ServeRejected

                with pytest.raises(ServeRejected) as excinfo:
                    client.stream_open("<i8")
                assert excinfo.value.code == "busy"
                assert excinfo.value.retry_after_s is not None
                client.stream_abort(first)
                # The slot frees up once the first stream is gone.
                second = client.stream_open("<i8")
                client.stream_abort(second)

    def test_bad_dtype_rejected(self, client):
        with pytest.raises(ServeError, match="bad-dtype"):
            client._call({"op": "stream-open", "dtype": "<f8"})

    def test_unknown_stream_ops(self, client):
        for op in ("stream-push", "stream-close", "stream-status",
                   "stream-fetch", "stream-abort"):
            with pytest.raises(ServeError, match="unknown-stream"):
                client._call({"op": op, "stream_id": "nope"})

    def test_push_after_close_is_bad_phase(self, client):
        stream_id = client.stream_open("<i8", chunk_keys=10_000)
        client.stream_push(stream_id, _keys(9, 5_000))
        client.stream_close(stream_id)
        with pytest.raises(ServeError, match="bad-phase"):
            client.stream_push(stream_id, _keys(10, 100))
        client.stream_wait(stream_id)
        client.stream_abort(stream_id)

    def test_fetch_before_done_is_not_ready(self, client):
        stream_id = client.stream_open("<i8", chunk_keys=10_000)
        client.stream_push(stream_id, _keys(11, 2_000))
        with pytest.raises(ServeError, match="not-ready"):
            client.stream_fetch(stream_id)
        client.stream_abort(stream_id)

    def test_abort_mid_ingest_cleans_up(self, client):
        stream_id = client.stream_open("<i8", chunk_keys=10_000)
        client.stream_push(stream_id, _keys(12, 25_000))
        reply = client.stream_abort(stream_id)
        assert reply["aborted"]
        with pytest.raises(ServeError, match="unknown-stream"):
            client.stream_status(stream_id)


def _done_stream(client, keys: np.ndarray, **open_kwargs) -> tuple[str, dict]:
    """Open, push, close and wait: (stream_id, final status)."""
    stream_id = client.stream_open(keys.dtype, **open_kwargs)
    client.stream_push(stream_id, keys)
    client.stream_close(stream_id)
    status = client.stream_wait(stream_id, timeout_s=120.0)
    assert status["phase"] == "done", status
    return stream_id, status


def _drain(client, stream_id: str) -> np.ndarray:
    blocks = []
    while (block := client.stream_fetch(stream_id)) is not None:
        blocks.append(block)
    return np.concatenate(blocks)


class TestHeaderValidation:
    """Numeric header fields come from outside: a non-number is a typed
    ``bad-request`` naming the field, never an ``internal``."""

    @pytest.mark.parametrize("op, field", [
        ("submit", "radix"),
        ("submit", "deadline_s"),
        ("wait", "timeout_s"),
        ("stream-open", "chunk_keys"),
        ("stream-open", "fan_in"),
        ("stream-fetch", "max_keys"),
    ])
    def test_non_numeric_field_is_bad_request(self, client, op, field):
        header, payload = {"op": op, field: "seven"}, b""
        stream_id = None
        if op == "submit":
            fields, payload = encode_keys(_keys(20, 1_000))
            header.update(fields)
        elif op == "wait":
            header["job_id"] = client.submit(_keys(21, 1_000), "radix")
        elif op == "stream-fetch":
            stream_id, _ = _done_stream(client, _keys(22, 5_000))
            header["stream_id"] = stream_id
        with pytest.raises(ServeError) as excinfo:
            client._call(header, payload)
        assert excinfo.value.code == "bad-request"
        assert field in str(excinfo.value)
        # The connection survives a rejected request.
        assert client.stats()["streams"]["max"] >= 1
        if stream_id is not None:
            client.stream_abort(stream_id)

    @pytest.mark.parametrize("max_keys", [-1, 0])
    def test_rejected_fetch_leaves_the_stream_fetchable(self, client, max_keys):
        """``max_keys < 1`` used to read as EOF: the session was popped
        and the sorted output destroyed undelivered."""
        keys = _keys(23, 30_000)
        stream_id, _ = _done_stream(client, keys, chunk_keys=10_000)
        with pytest.raises(ServeError) as excinfo:
            client.stream_fetch(stream_id, max_keys=max_keys)
        assert excinfo.value.code == "bad-request"
        assert "max_keys" in str(excinfo.value)
        assert np.array_equal(_drain(client, stream_id), np.sort(keys))

    def test_null_max_keys_is_bad_request(self, client):
        """A null ``max_keys`` is no number either: a ``bad-request``
        naming the field, not an ``internal`` ``TypeError``."""
        keys = _keys(25, 5_000)
        stream_id, _ = _done_stream(client, keys)
        with pytest.raises(ServeError) as excinfo:
            client._call(
                {"op": "stream-fetch", "stream_id": stream_id, "max_keys": None}
            )
        assert excinfo.value.code == "bad-request"
        assert "max_keys" in str(excinfo.value)
        assert np.array_equal(_drain(client, stream_id), np.sort(keys))


class TestSessionIsTheLibrarySorter:
    """A served stream drives the same sorter as ``external_sort``: the
    same pass structure, spill retry, conservation report and spans."""

    def test_parity_with_external_sort(self, client):
        keys = _keys(24, 100_000)
        blocks: list[np.ndarray] = []
        lib = external_sort(
            keys, chunk_keys=8_000, fan_in=3, n_workers=1,
            on_block=blocks.append,
        )
        stream_id, status = _done_stream(
            client, keys, chunk_keys=8_000, fan_in=3
        )
        assert (status["runs"], status["merge_passes"]) == (
            lib.runs, lib.merge_passes
        )
        assert status["keys_merged"] == lib.n_keys
        served = _drain(client, stream_id)
        assert served.tobytes() == np.concatenate(blocks).tobytes()

    def test_enospc_in_the_final_merge_is_recovered(self):
        """Three one-frame runs take ``spill.enospc`` probes 0-2, so
        probe 3 is the output run's first frame: the final merge must
        drop the partial output, back off and rewrite it."""
        plan = FaultPlan.scripted({"spill.enospc": [3]})
        keys = _keys(25, 60_000)
        with server_in_thread(
            n_workers=2, queue_depth=8, fault_plan=plan
        ) as server:
            with ServeClient(port=server.port) as client:
                stream_id, status = _done_stream(
                    client, keys, chunk_keys=20_000, fan_in=4
                )
                assert (status["runs"], status["merge_passes"]) == (3, 0)
                assert np.array_equal(
                    _drain(client, stream_id), np.sort(keys)
                )
        stats = plan.stats()
        assert stats.injected.get("spill.enospc") == 1
        assert stats.all_recovered

    def test_key_conservation_reaches_the_sanitizer(self, client, sanitizer):
        before = sanitizer.checks["stream.key-conservation"]
        keys = _keys(26, 40_000)
        out = client.stream_sort(keys, chunk_keys=10_000)
        assert np.array_equal(out, np.sort(keys))
        assert sanitizer.checks["stream.key-conservation"] == before + 1
        assert not sanitizer.violations

    def test_spans_carry_the_stream_id(self, served, client):
        _, recorder = served
        stream_id, status = _done_stream(
            client, _keys(27, 40_000), chunk_keys=10_000
        )
        client.stream_abort(stream_id)
        mine = [
            e for e in recorder.events
            if (e.args or {}).get("stream_id") == stream_id
        ]
        names = [e.name for e in mine]
        assert names.count("stream.ingest") == status["runs"] == 4
        assert names.count("stream.run") == 4
        # Each spill ran behind a sort on the I/O thread, and still inside
        # the push that formed its run (the engine's recorder installed).
        assert names.count("stream.spill") == 4
        assert names.count("stream.merge.final") == 1


class TestRunFormationUsesTheArena:
    """Streamed runs that the planner sends to the pool sort in the
    arena's slabs like any other job: no fresh ``/dev/shm`` segment per
    run, and every lease comes back -- and unsigned chunks sort in their
    own dtype (never by radix: its kernels are signed-int64 paths)."""

    @pytest.mark.parametrize("dtype", ["<i8", "<u4"])
    def test_three_runs_create_no_segments(self, plan_table, dtype):
        from repro.native import shm
        from repro.serve import SortEngine, StreamSession
        from repro.stream import RunReader

        rng = np.random.default_rng(13)
        with SortEngine(n_workers=2) as eng:
            eng.warmup()
            for winner in ("sequential", "sample", "radix11"):
                plan_table(winner)
                sess = StreamSession(
                    eng, np.dtype(dtype), chunk_keys=20_000, fan_in=4
                )
                try:
                    before = shm.create_count()
                    leases = eng.arena.leases
                    for _ in range(3):
                        chunk = rng.integers(0, 1 << 32, 20_000).astype(dtype)
                        sess.push_on_engine(chunk)  # one full chunk: one run
                        assert shm.create_count() == before
                        assert eng.arena.in_use() == 0
                        with RunReader(sess.sorter.run_paths[-1]) as run:
                            assert np.array_equal(run.read_all(), np.sort(chunk))
                    public = sess.public()
                    assert public["runs"] == 3
                    ran = winner.rstrip("1")
                    if ran == "radix" and dtype == "<u4":
                        ran = "sequential"
                    assert public["chunk_plan"]["algorithm"] == ran
                    assert (eng.arena.leases > leases) == (ran != "sequential")
                finally:
                    sess.cleanup()
