"""The bounded result store: byte accounting and eviction order."""

from __future__ import annotations

import numpy as np

from repro.serve.results import ResultStore


def _recount(store: ResultStore) -> int:
    return sum(len(r.sorted_bytes or b"") for r in store._records.values())


def _job(store: ResultStore) -> str:
    return store.new_job(
        algorithm=None, n_keys=0, dtype="<i8", radix=None, deadline_s=None
    ).job_id


class TestStoredBytes:
    def test_counter_tracks_a_scripted_mix(self):
        """Done, delivered, failed, running-then-done, still queued and
        evicted records: after every step the running counter is the
        recomputed sum, and after a sweep it is within budget."""
        store = ResultStore(max_records=6, max_result_bytes=1000)
        rng = np.random.default_rng(0)
        for i in range(40):
            job = _job(store)
            kind = i % 5
            if kind == 0:
                store.set_done(job, bytes(int(rng.integers(1, 400))))
            elif kind == 1:
                store.set_done(job, bytes(int(rng.integers(1, 400))))
                store.mark_delivered(job)
            elif kind == 2:
                store.set_failed(job, "Boom", "scripted")
            elif kind == 3:
                store.mark_running(job)
                store.set_done(job, bytes(300))
            # kind == 4: left queued -- never evictable
            assert store.stored_bytes == _recount(store)
            assert store.stats()["stored_bytes"] == store.stored_bytes <= 1000
        assert store.evicted > 0

    def test_evicted_record_gives_its_bytes_back(self):
        store = ResultStore(max_records=8, max_result_bytes=100)
        first, second = _job(store), _job(store)
        store.set_done(first, bytes(80))
        rec = store.get(first)
        store.set_done(second, bytes(80))  # over budget: the oldest goes
        assert store.get(first) is None and rec.sorted_bytes is None
        assert store.stored_bytes == 80 == _recount(store)

    def test_delivered_results_go_first(self):
        store = ResultStore(max_records=8, max_result_bytes=150)
        old, delivered, new = _job(store), _job(store), _job(store)
        store.set_done(old, bytes(70))
        store.set_done(delivered, bytes(70))
        store.mark_delivered(delivered)
        store.set_done(new, bytes(70))
        assert store.get(delivered) is None
        assert store.get(old) is not None and store.get(new) is not None
        assert store.stored_bytes == 140

