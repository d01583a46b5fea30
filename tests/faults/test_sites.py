"""Per-site fault tests outside the pool: shared-memory allocation, the
grid cache's degrade paths, simulated channels, and the backend seam."""

import numpy as np
import pytest

from repro.faults import SITES, FaultPlan, use_fault_plan
from repro.faults.context import RETRIES
from repro.native import shm
from repro.sim.engine import Simulator
from repro.sim.resources import Channel

pytestmark = pytest.mark.chaos


class TestShmAllocation:
    def test_create_failure_retried(self):
        plan = FaultPlan.scripted({"shm.create": [0]})
        with use_fault_plan(plan):
            sa = shm.allocate(128)
            try:
                sa.array[:] = 1
            finally:
                sa.close()
        assert plan.injected["shm.create"] == 1
        assert plan.recovered["shm.create"] == 1

    def test_exhausted_retries_raise(self):
        plan = FaultPlan.scripted({"shm.create": [0, 1, 2]})
        with use_fault_plan(plan):
            with pytest.raises(OSError, match="injected shm.create"):
                shm.allocate(128)
        assert plan.injected["shm.create"] == RETRIES + 1
        assert plan.recovered.get("shm.create", 0) == 0

    def test_injected_attach_failure_consumed_once(self):
        src = np.arange(32, dtype=np.int64)
        with shm.SharedArray(32) as sa:
            sa.array[:] = src
            handle = (sa.name, (32,), "<i8")
            shm.fail_next_attach()
            with pytest.raises(OSError, match="injected shm.attach"):
                shm.resolve(handle)
            # The armed failure is spent; the next attach succeeds.
            try:
                assert np.array_equal(shm.resolve(handle), src)
            finally:
                shm.forget(sa.name)


class TestCacheDegrade:
    def _cache(self, tmp_path):
        from repro.core.gridcache import GridCache

        return GridCache(tmp_path / "cache")

    def test_injected_corruption_degrades_to_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        key = {"cell": 1}
        assert cache.put("run", key, "payload")
        plan = FaultPlan.scripted({"cache.corrupt": [0]})
        with use_fault_plan(plan):
            assert cache.get("run", key) is None  # degraded, no raise
            # The on-disk entry was genuinely fine and must survive.
            assert cache.get("run", key) == "payload"
        assert cache.stats.errors == 1
        assert plan.recovered["cache.corrupt"] == 1

    def test_real_corruption_still_recomputes(self, tmp_path):
        """The degrade path the injection reuses: an actually-corrupt
        file is a miss (and removed), never an exception."""
        cache = self._cache(tmp_path)
        key = {"cell": 2}
        assert cache.put("run", key, "payload")
        path = cache.path_for("run", cache.key_digest("run", key))
        path.write_bytes(b"garbage" * 10)
        assert cache.get("run", key) is None
        assert not path.exists()  # truly-bad entries are reaped

    def test_injected_store_errors_drop_store(self, tmp_path):
        cache = self._cache(tmp_path)
        plan = FaultPlan.scripted(
            {"cache.enospc": [0], "cache.eacces": [0]}
        )
        with use_fault_plan(plan):
            assert not cache.put("run", {"cell": 3}, "x")  # ENOSPC
            assert not cache.put("run", {"cell": 3}, "x")  # EACCES
            assert cache.put("run", {"cell": 3}, "x")  # past the script
        assert cache.stats.errors == 2
        assert plan.stats().all_recovered


class TestChannelFaults:
    def _deliver_one(self, plan):
        """One put/get pair through a faulted channel; returns the
        (virtual arrival time, item) the consumer observed."""
        got = []
        with use_fault_plan(plan):
            sim = Simulator()
            ch = Channel(sim, capacity=4, name="c")

            def consumer():
                item = yield ch.get()
                got.append((sim.now, item))

            sim.process(consumer())
            ch.put("msg")
            sim.run()
        assert sim.idle
        return got[0]

    def test_delay_defers_delivery(self):
        plan = FaultPlan.scripted(
            {"channel.delay": [0]}, channel_delay_ns=500.0
        )
        at, item = self._deliver_one(plan)
        assert item == "msg"
        assert at == pytest.approx(500.0)
        assert plan.recovered["channel.delay"] == 1

    def test_drop_pays_retransmit_latency(self):
        plan = FaultPlan.scripted(
            {"channel.drop": [0]}, drop_retransmit_ns=2_000.0
        )
        at, item = self._deliver_one(plan)
        assert item == "msg"
        assert at == pytest.approx(2_000.0)
        assert plan.recovered["channel.drop"] == 1

    def test_zero_latency_fault_is_still_recovered(self):
        plan = FaultPlan.scripted({"channel.delay": [0]}, channel_delay_ns=0.0)
        at, item = self._deliver_one(plan)
        assert (at, item) == (0.0, "msg")
        assert plan.stats().all_recovered

    def test_no_fault_is_immediate(self):
        at, item = self._deliver_one(FaultPlan(0))
        assert (at, item) == (0.0, "msg")

    def test_sanitizer_counts_recoverable(self):
        from repro.verify import Sanitizer, use_sanitizer

        plan = FaultPlan.scripted({"channel.delay": [0]})
        san = Sanitizer()
        with use_sanitizer(san):
            self._deliver_one(plan)
        assert san.recoverable["channel.delay"] == 1
        assert not san.violations


class TestBackendFaultStats:
    def test_sim_result_carries_fault_delta(self):
        from repro.backend import get_backend
        from repro.backend.base import SortJob

        keys = np.random.default_rng(0).integers(
            0, 1 << 16, size=1024, dtype=np.int64
        )
        plan = FaultPlan.scripted({"channel.drop": [0]})
        with use_fault_plan(plan):
            res = get_backend("sim").run(
                SortJob(keys, algorithm="radix", model="mpi", n_procs=4)
            )
        assert np.array_equal(res.sorted_keys, np.sort(keys))
        assert res.faults is not None
        assert res.faults.injected == {"channel.drop": 1}
        assert res.faults.all_recovered

    def test_no_plan_no_fault_stats(self):
        from repro.backend import get_backend
        from repro.backend.base import SortJob

        keys = np.arange(512, dtype=np.int64)[::-1].copy()
        res = get_backend("sim").run(SortJob(keys, n_procs=4))
        assert res.faults is None

    def test_native_backend_arms_supervision(self):
        from repro.backend import get_backend
        from repro.backend.base import SortJob

        keys = np.random.default_rng(1).integers(
            0, 1 << 20, size=20_000, dtype=np.int64
        )
        plan = FaultPlan.scripted({"pool.worker.crash": [0]})
        with use_fault_plan(plan):
            res = get_backend("native").run(
                SortJob(keys, algorithm="radix", n_procs=4)
            )
        assert np.array_equal(res.sorted_keys, np.sort(keys))
        assert res.faults is not None
        assert res.faults.injected == {"pool.worker.crash": 1}
        assert res.faults.all_recovered


class TestFaultTrace:
    def test_faults_emit_on_fault_track(self):
        from repro.native.pool import WorkerPool
        from repro.native import parallel_radix_sort
        from repro.trace import MemoryRecorder, PID_FAULTS, use_recorder

        keys = np.random.default_rng(2).integers(
            0, 1 << 20, size=20_000, dtype=np.int64
        )
        plan = FaultPlan.scripted({"pool.worker.crash": [0]})
        rec = MemoryRecorder()
        with use_recorder(rec), use_fault_plan(plan):
            with WorkerPool(4, supervise=True, phase_timeout_s=10.0) as pool:
                parallel_radix_sort(keys, pool=pool)
        fault_events = [e for e in rec.events if e.pid == PID_FAULTS]
        cats = {e.cat for e in fault_events}
        assert "fault.pool" in cats  # the retry instant
        assert "fault.recovery" in cats  # the recovery span


def _pool_sort(tmp_path):
    from repro.native import parallel_radix_sort
    from repro.native.pool import WorkerPool

    keys = np.random.default_rng(3).integers(0, 1 << 20, 20_000, dtype=np.int64)
    with WorkerPool(2, supervise=True, phase_timeout_s=2.0) as pool:
        assert np.array_equal(parallel_radix_sort(keys, pool=pool), np.sort(keys))


def _shm_create(tmp_path):
    shm.allocate(128).close()


def _cache(tmp_path):
    from repro.core.gridcache import GridCache

    return GridCache(tmp_path / "cache")


def _cache_read(tmp_path):
    cache = _cache(tmp_path)
    cache.put("run", {"cell": 1}, "payload")
    assert cache.get("run", {"cell": 1}) is None


def _cache_store(tmp_path):
    assert not _cache(tmp_path).put("run", {"cell": 1}, "payload")


def _channel(tmp_path):
    sim = Simulator()
    ch = Channel(sim, capacity=4, name="c")
    ch.put("msg")
    sim.run()
    assert sim.idle


def _spill_write(tmp_path):
    from repro.stream import write_run

    write_run(tmp_path / "r.run", np.arange(4096, dtype=np.int64), frame_keys=1024)


def _spill_read(tmp_path):
    from repro.stream import RunReader

    keys = np.arange(4096, dtype=np.int64)
    _spill_write(tmp_path)
    with RunReader(tmp_path / "r.run") as reader:
        assert np.array_equal(reader.read_all(), keys)


#: One real code path per fault site, each absorbing the fault it meets.
_DRIVERS = {
    "pool.worker.crash": _pool_sort,
    "pool.worker.hang": _pool_sort,
    "pool.worker.slow": _pool_sort,
    "shm.create": _shm_create,
    "shm.attach": _pool_sort,
    "cache.corrupt": _cache_read,
    "cache.enospc": _cache_store,
    "cache.eacces": _cache_store,
    "channel.delay": _channel,
    "channel.drop": _channel,
    "spill.enospc": _spill_write,
    "spill.corrupt": _spill_read,
    "spill.short_write": _spill_write,
}


@pytest.mark.parametrize("site", SITES)
def test_every_site_is_on_the_fault_track(site, tmp_path):
    """Firing a site once puts exactly one ``fault.<site>`` instant and,
    since the runtime absorbs it, one ``fault.<site>.recovered`` instant
    on the ``PID_FAULTS`` track."""
    from repro.trace import PH_INSTANT, PID_FAULTS, MemoryRecorder, use_recorder

    plan = FaultPlan.scripted({site: [0]}, hang_s=30.0)
    rec = MemoryRecorder()
    with use_recorder(rec), use_fault_plan(plan):
        _DRIVERS[site](tmp_path)
    assert plan.injected[site] == 1
    assert plan.stats().all_recovered
    instants = [
        (e.name, e.cat)
        for e in rec.events
        if e.pid == PID_FAULTS and e.ph == PH_INSTANT
    ]
    assert instants.count((f"fault.{site}", "fault.inject")) == 1
    assert instants.count((f"fault.{site}.recovered", "fault.recovery")) == 1
