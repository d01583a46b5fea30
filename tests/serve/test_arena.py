"""Arena slab allocator (``repro.native.arena``, re-exported by
``repro.serve``): leasing, exhaustion, and the no-create contract of a
reserved arena -- the geometry the job server pins at start.  The
growing, pool-owned side is covered by ``tests/native/test_pool_arena.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.native import shm
from repro.native.arena import (
    N_DATA,
    N_META,
    SLAB_PREFIX,
    Arena,
    ArenaExhausted,
    JobTooLarge,
)


def _slab_files() -> set[str]:
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    return {p.name for p in shm_dir.glob(f"{SLAB_PREFIX}_*")}


class TestLeasing:
    def test_smallest_fit_prefers_meta_slabs(self):
        with Arena().reserve(1 << 20, 1 << 10) as arena:
            small = arena.lease(512)
            assert small.nbytes == 1 << 10
            big = arena.lease(1 << 16)
            assert big.nbytes == 1 << 20
            arena.release(small)
            arena.release(big)
            assert arena.in_use() == 0

    def test_exhaustion_is_typed(self):
        with Arena().reserve(1 << 16, 1 << 10) as arena:
            held = [arena.lease(1 << 16) for _ in range(N_DATA)]
            with pytest.raises(ArenaExhausted):
                arena.lease(1 << 16)
            for slab in held:
                arena.release(slab)
            assert arena.lease(1 << 16) is not None

    def test_job_too_large_is_typed(self):
        with Arena().reserve(1 << 16, 1 << 10) as arena:
            before = shm.create_count()
            with pytest.raises(JobTooLarge):
                arena.lease((1 << 16) + 1)
            assert shm.create_count() == before  # reserved: never regrows

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Arena().reserve(0, 1 << 10)
        with pytest.raises(ValueError):
            Arena().reserve(1 << 10, 0)


class TestBuffers:
    def test_views_alias_slab_memory_and_release(self):
        with Arena().reserve(1 << 16, 1 << 12) as arena:
            bufs = arena.buffers()
            src = np.arange(100, dtype=np.int64)
            view = bufs.from_array(src)
            assert np.array_equal(view.array, src)
            assert view.name.startswith(SLAB_PREFIX)
            assert np.array_equal(shm.resolve(view.handle), src)
            shm.forget(view.name)
            other = bufs.empty((4, 8), np.int64)
            other.array[...] = 7
            assert arena.in_use() == 2
            bufs.release_all()
            assert arena.in_use() == 0
            bufs.release_all()  # idempotent

    def test_buffers_never_create_segments(self):
        with Arena().reserve(1 << 16, 1 << 12) as arena:
            before = shm.create_count()
            bufs = arena.buffers()
            for _ in range(10):
                view = bufs.from_array(np.arange(64, dtype=np.int64))
                view.array.sort()
                bufs.release_all()
            assert shm.create_count() == before

    def test_creation_cost_is_slab_count(self):
        before = shm.create_count()
        with Arena() as arena:
            assert shm.create_count() == before  # lazy until reserved/leased
            arena.reserve(1 << 16, 1 << 12)
            assert shm.create_count() - before == N_DATA + N_META == 4


class TestLifecycle:
    def test_close_unlinks_every_slab(self):
        arena = Arena().reserve(1 << 16, 1 << 12)
        names = set(arena.slab_names)
        assert len(names) == 4 and names <= _slab_files()
        arena.close()
        assert not (names & _slab_files())
        arena.close()  # idempotent

    def test_construction_failure_leaves_nothing(self, monkeypatch):
        calls = {"n": 0}
        real_allocate = shm.allocate

        def failing_allocate(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise OSError("injected construction failure")
            return real_allocate(*args, **kwargs)

        monkeypatch.setattr(shm, "allocate", failing_allocate)
        before = _slab_files()
        with pytest.raises(OSError):
            Arena().reserve(1 << 16, 1 << 12)
        assert _slab_files() == before

    def test_lease_after_close_rejected(self):
        arena = Arena().reserve(1 << 16, 1 << 12)
        arena.close()
        with pytest.raises(RuntimeError):
            arena.lease(16)
