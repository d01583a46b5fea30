"""``ExperimentRunner.run_many`` tests: serial/parallel parity, memo and
disk-cache interplay, ordering, and progress trace spans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentRunner, RunSpec
from repro.core.gridcache import GridCache
from repro.trace import MemoryRecorder, PID_GRID, use_recorder

SPECS = [
    RunSpec("radix", m, 1 << 14, 16, r)
    for m in ("shmem", "ccsas")
    for r in (7, 8)
] + [RunSpec("sample", "shmem", 1 << 14, 16, 11)]


def _assert_outcomes_identical(a, b):
    assert a.time_ns == b.time_ns
    assert a.model_name == b.model_name
    assert np.array_equal(a.sorted_keys, b.sorted_keys)
    assert a.report.category_matrix().tobytes() == (
        b.report.category_matrix().tobytes()
    )


class TestRunMany:
    def test_serial_matches_run(self):
        r1 = ExperimentRunner(cache=False)
        many = r1.run_many(SPECS)
        r2 = ExperimentRunner(cache=False)
        for spec, outcome in zip(SPECS, many):
            _assert_outcomes_identical(outcome, r2.run(spec))

    def test_parallel_matches_serial(self):
        serial = ExperimentRunner(cache=False).run_many(SPECS)
        parallel = ExperimentRunner(cache=False).run_many(SPECS, parallel=2)
        for a, b in zip(serial, parallel):
            _assert_outcomes_identical(a, b)

    def test_preserves_order_and_duplicates(self):
        specs = [SPECS[0], SPECS[1], SPECS[0], SPECS[1]]
        outcomes = ExperimentRunner(cache=False).run_many(specs)
        assert len(outcomes) == 4
        assert outcomes[0] is outcomes[2]
        assert outcomes[1] is outcomes[3]
        assert outcomes[0].model_name != outcomes[1].model_name or (
            outcomes[0].radix != outcomes[1].radix
        )

    def test_merges_into_memo(self):
        runner = ExperimentRunner(cache=False)
        outcomes = runner.run_many(SPECS[:2], parallel=2)
        # subsequent run() calls are pure memo hits
        assert runner.run(SPECS[0]) is outcomes[0]
        assert runner.run(SPECS[1]) is outcomes[1]

    def test_parallel_workers_populate_shared_disk_cache(self, tmp_path):
        cache = GridCache(tmp_path)
        ExperimentRunner(cache=cache).run_many(SPECS[:3], parallel=2)
        assert GridCache(tmp_path).disk_stats()["by_kind"]["run"] == 3
        # a fresh runner serves all three from disk
        fresh = ExperimentRunner(cache=GridCache(tmp_path))
        fresh.run_many(SPECS[:3])
        assert fresh.cache.stats.hits == 3
        assert fresh.cache.stats.stores == 0

    def test_runner_default_parallelism(self):
        runner = ExperimentRunner(cache=False, parallel=2)
        outcomes = runner.run_many(SPECS[:2])
        baseline = ExperimentRunner(cache=False)
        for spec, outcome in zip(SPECS[:2], outcomes):
            _assert_outcomes_identical(outcome, baseline.run(spec))

    def test_parallel_disk_hits_skip_workers(self, tmp_path):
        warm = ExperimentRunner(cache=GridCache(tmp_path))
        warm.run_many(SPECS[:2])
        r = ExperimentRunner(cache=GridCache(tmp_path), parallel=2)
        r.run_many(SPECS[:2])
        assert r.cache.stats.hits == 2
        assert r.cache.stats.misses == 0

    def test_empty_specs(self):
        assert ExperimentRunner(cache=False).run_many([]) == []


class TestProgressSpans:
    def test_span_per_computed_cell(self):
        rec = MemoryRecorder()
        with use_recorder(rec):
            ExperimentRunner(cache=False).run_many(SPECS[:3])
        cells = [e for e in rec.events if e.cat == "grid.cell"]
        assert len(cells) == 3
        assert all(e.pid == PID_GRID for e in cells)
        assert {e.args["source"] for e in cells} == {"computed"}

    def test_span_source_disk(self, tmp_path):
        ExperimentRunner(cache=GridCache(tmp_path)).run_many(SPECS[:2])
        rec = MemoryRecorder()
        with use_recorder(rec):
            ExperimentRunner(cache=GridCache(tmp_path)).run_many(SPECS[:2])
        assert {e.args["source"] for e in rec.events if e.cat == "grid.cell"} == {"disk"}

    def test_span_source_worker(self):
        rec = MemoryRecorder()
        with use_recorder(rec):
            ExperimentRunner(cache=False).run_many(SPECS[:2], parallel=2)
        cells = [e for e in rec.events if e.cat == "grid.cell"]
        assert len(cells) == 2
        assert {e.args["source"] for e in cells} == {"worker"}

    def test_memo_hits_emit_no_spans(self):
        runner = ExperimentRunner(cache=False)
        runner.run_many(SPECS[:2])
        rec = MemoryRecorder()
        with use_recorder(rec):
            runner.run_many(SPECS[:2])
        assert not any(e.cat == "grid.cell" for e in rec.events)

    def test_cell_label_names_span(self):
        rec = MemoryRecorder()
        with use_recorder(rec):
            ExperimentRunner(cache=False).run_many([SPECS[0]])
        (event,) = [e for e in rec.events if e.cat == "grid.cell"]
        assert event.name == SPECS[0].cell_label()
        assert "radix/shmem" in event.name


class TestBestOverRadixPrefetch:
    def test_best_over_radix_unchanged(self):
        runner = ExperimentRunner(cache=False)
        spec = RunSpec("radix", "shmem", 1 << 16, 16, 8)
        best, r = runner.best_over_radix(spec, [6, 8, 11])
        assert r in (6, 8, 11)
        from dataclasses import replace

        for other in (6, 8, 11):
            assert best.time_ns <= runner.run(replace(spec, radix=other)).time_ns
