"""The serve streaming job class: sessions whose lifetime spans many
frames and pool phases -- open/push/close/status/fetch/abort, the frame
cap on pushes and fetches, admission limits, and the structured
``FrameTooLarge`` cap report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    ServeClient,
    ServeError,
    server_in_thread,
)


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
                assert client._push_frame_keys(8) < len(keys)
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


class TestRunFormationUsesTheArena:
    """Streamed runs sort in the arena's slabs like any other job: no
    fresh ``/dev/shm`` segment per run, and every lease comes back."""

    @pytest.mark.parametrize("dtype", ["<i8", "<u4"])
    def test_three_runs_create_no_segments(self, dtype):
        from repro.native import shm
        from repro.serve import SortEngine, StreamSession
        from repro.stream import RunReader

        rng = np.random.default_rng(13)
        with SortEngine(n_workers=2) as eng:
            eng.warmup()
            sess = StreamSession(eng, np.dtype(dtype), chunk_keys=20_000, fan_in=4)
            try:
                before = shm.create_count()
                for _ in range(3):
                    chunk = rng.integers(0, 1 << 32, 20_000).astype(dtype)
                    sess.form_run_on_engine(chunk)
                    assert shm.create_count() == before
                    assert eng.arena.in_use() == 0
                    with RunReader(sess._run_paths[-1]) as run:
                        assert np.array_equal(run.read_all(), np.sort(chunk))
                assert sess.runs == 3
            finally:
                sess.cleanup()
