"""The chaos harness: a seeded fault matrix over the whole runtime.

``python -m repro chaos`` runs every fault scenario below under one
deterministic :class:`~repro.faults.FaultPlan` seed and asserts the
system's contract under faults:

- every sort (native radix/sample under worker crash/hang/slowdown and
  shared-memory failures; simulated radix/sample under message delay and
  drop) still produces exactly ``np.sort`` of its input;
- robust shared-memory allocation and the grid cache degrade instead of
  failing;
- every injected fault is *recovered* -- the recovery counters match the
  injection counters site for site;
- the matrix covers at least :data:`MIN_FAULT_KINDS` distinct fault
  kinds (guaranteed by construction: the scripted scenarios pin one
  fault of each core kind regardless of seed).

``--soak N`` repeats the matrix N times with derived seeds, for a
longer-running stability soak.  Scenario scheduling is deterministic per
seed; two runs with the same seed inject the identical fault schedule.
"""

from __future__ import annotations

import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, TextIO

import numpy as np

from ..trace import MemoryRecorder, use_recorder, write_chrome_trace
from ..verify.context import current_sanitizer, use_sanitizer
from ..verify.sanitizer import Sanitizer
from .context import use_fault_plan
from .plan import FaultPlan, FaultStats

#: The acceptance floor: one chaos run must exercise at least this many
#: distinct fault kinds (sites that actually injected).
MIN_FAULT_KINDS = 5


class ChaosError(AssertionError):
    """A chaos scenario's contract was violated."""


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's verdict and fault bookkeeping."""

    name: str
    stats: FaultStats
    elapsed_s: float
    detail: str = ""


def _keys(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 24, size=n, dtype=np.int64)


def _assert_sorted(out: np.ndarray, keys: np.ndarray, where: str) -> None:
    expect = np.sort(keys)
    if not np.array_equal(out, expect):
        bad = int(np.argmax(out != expect))
        raise ChaosError(
            f"{where}: output differs from np.sort at position {bad} "
            f"({out[bad]!r} != {expect[bad]!r})"
        )


# ----------------------------------------------------------------------
# Shared runners: one sort under one fault plan
# ----------------------------------------------------------------------
def _require_fired(stats: FaultStats, *sites: str) -> None:
    for site in sites:
        if stats.injected.get(site, 0) < 1:
            raise ChaosError(f"the scripted {site} never fired")


@dataclass(frozen=True)
class _NativeSort:
    """One native sort on a supervised 4-worker pool under ``plan(seed)``."""

    plan: Callable[[int], FaultPlan]
    algorithm: str
    keys_offset: int
    full_n: int
    phase_timeout_s: float = 10.0
    must_fire: tuple[str, ...] = ()

    def __call__(self, seed: int, small: bool) -> tuple[FaultStats, str]:
        from ..native import WorkerPool, parallel_sort

        plan = self.plan(seed)
        keys = _keys(seed + self.keys_offset, 20_000 if small else self.full_n)
        n_workers = 4
        with use_fault_plan(plan):
            with WorkerPool(
                n_workers, supervise=True, phase_timeout_s=self.phase_timeout_s
            ) as pool:
                out = parallel_sort(keys, self.algorithm, pool=pool)
                _assert_sorted(out, keys, f"native/{self.algorithm}")
                detail = (
                    f"{pool.phase_failures} phase failure(s) absorbed, "
                    f"{pool.n_workers}/{n_workers} workers at end"
                )
        stats = plan.stats()
        _require_fired(stats, *self.must_fire)
        return stats, detail


@dataclass(frozen=True)
class _SimSort:
    """Simulated MPI sorts under ``plan(seed)``; with ``report_sanitizer``
    they run under a fresh sanitizer whose counts become the detail."""

    plan: Callable[[int], FaultPlan]
    algorithms: tuple[str, ...]
    keys_offset: int
    full_n: int
    n_procs: int
    report_sanitizer: bool = False

    def __call__(self, seed: int, small: bool) -> tuple[FaultStats, str]:
        from ..backend import get_backend
        from ..backend.base import SortJob

        plan = self.plan(seed)
        keys = _keys(seed + self.keys_offset, 2_048 if small else self.full_n)
        backend = get_backend("sim")
        san = Sanitizer() if self.report_sanitizer else current_sanitizer()
        with use_sanitizer(san), use_fault_plan(plan):
            for algorithm in self.algorithms:
                job = SortJob(
                    keys, algorithm=algorithm, model="mpi", n_procs=self.n_procs
                )
                _assert_sorted(backend.run(job).sorted_keys, keys, f"sim/{algorithm}")
        detail = (
            f"sanitizer saw {sum(san.recoverable.values())} recoverable events, "
            f"{sum(san.checks.values())} checks"
            if self.report_sanitizer
            else ""
        )
        return plan.stats(), detail


# ----------------------------------------------------------------------
# Shared-memory and cache scenarios
# ----------------------------------------------------------------------
def _shm_alloc(seed: int, small: bool) -> tuple[FaultStats, str]:
    """Pinned back-to-back creation failures; robust allocation retries."""
    del small
    from ..native import shm

    plan = FaultPlan.scripted({"shm.create": [0, 1]}, seed)
    with use_fault_plan(plan):
        sa = shm.allocate(1024)
        try:
            sa.array[:] = 7
            if int(sa.array.sum()) != 7 * 1024:
                raise ChaosError("allocated array not writable")
        finally:
            sa.close()
    return plan.stats(), "2 ENOSPC retried"


def _cache_degrade(seed: int, small: bool) -> tuple[FaultStats, str]:
    """Pinned cache corruption + store errors; every read degrades to a
    recompute and every failed store is dropped, never raised."""
    del small
    from ..core.gridcache import GridCache

    # Probe index 1 per site: corrupt probes run per successful read
    # (the cold miss never reaches the probe), and an ENOSPC-failed put
    # short-circuits its EACCES probe, so all three sites line up at 1.
    plan = FaultPlan.scripted(
        {"cache.corrupt": [1], "cache.enospc": [1], "cache.eacces": [1]}, seed
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
        cache = GridCache(root)
        key = {"cell": "chaos", "seed": seed}
        with use_fault_plan(plan):
            if cache.get("run", key) is not None:  # probe 0: cold miss
                raise ChaosError("cold read returned a payload")
            if not cache.put("run", key, {"v": 1}):  # enospc probe 0: ok
                raise ChaosError("first store unexpectedly failed")
            if cache.get("run", key) != {"v": 1}:  # corrupt probe 0: ok
                raise ChaosError("clean read missed")
            if cache.get("run", key) is not None:  # corrupt probe 1: fires
                raise ChaosError("injected corruption did not degrade")
            # The entry itself must survive an injected-corrupt read.
            if cache.get("run", key) != {"v": 1}:
                raise ChaosError("entry lost after injected corruption")
            if cache.put("run", key, {"v": 2}):  # enospc probe 1: fires
                raise ChaosError("injected ENOSPC store succeeded")
            if cache.put("run", key, {"v": 3}):  # eacces probe 1: fires
                raise ChaosError("injected EACCES store succeeded")
            if not cache.put("run", key, {"v": 4}):  # both past script: ok
                raise ChaosError("post-fault store failed")
            if cache.get("run", key) != {"v": 4}:
                raise ChaosError("final read missed")
        detail = (
            f"{cache.stats.errors} degraded ops, {cache.stats.stores} stores"
        )
    return plan.stats(), detail


# ----------------------------------------------------------------------
# Job-server scenario
# ----------------------------------------------------------------------
def _serve_traffic(seed: int, small: bool) -> tuple[FaultStats, str]:
    """Worker crashes mid-traffic under the sort job server.

    A scripted plan kills pool workers while concurrent jobs flow through
    ``repro.serve``; the contract is the service one: the server stays
    up, every *accepted* job completes with exactly ``np.sort`` of its
    keys (none lost or corrupted by a crash), and overload is refused
    with the structured ``busy`` backpressure error carrying a
    ``retry_after_s`` hint -- clients are never hung up on or handed a
    stack trace.  The plan is passed to the server (its engine thread
    installs it per job) rather than installed here: the ambient slots
    are process-global and this thread is not the one sorting.
    """
    from ..serve import ServeClient, ServeRejected, server_in_thread

    plan = FaultPlan.scripted(
        {"pool.worker.crash": [1, 4], "pool.worker.slow": [6]},
        seed,
        slow_s=0.01,
    )
    n = 20_000 if small else 100_000
    rng = np.random.default_rng(seed + 707)
    accepted: dict[str, np.ndarray] = {}
    busy = 0
    with server_in_thread(
        n_workers=2,
        queue_depth=2,
        fault_plan=plan,
        phase_timeout_s=10.0,
        default_deadline_s=120.0,
    ) as server:
        with ServeClient(port=server.port) as client:
            # Burst: back-to-back submits must overrun the 2-job queue.
            for i in range(12):
                keys = rng.integers(0, 1 << 24, size=n, dtype=np.int64)
                try:
                    job_id = client.submit(
                        keys, "radix" if i % 2 == 0 else "sample"
                    )
                except ServeRejected as rej:
                    if rej.code != "busy":
                        raise ChaosError(
                            f"burst rejected with {rej.code!r}, expected 'busy'"
                        ) from None
                    if rej.retry_after_s is None:
                        raise ChaosError(
                            "busy rejection carried no retry_after_s hint"
                        ) from None
                    busy += 1
                    time.sleep(min(rej.retry_after_s, 0.2))
                    continue
                accepted[job_id] = keys
            if busy == 0:
                raise ChaosError(
                    "12-job burst against a depth-2 queue produced no busy "
                    "rejection"
                )
            if len(accepted) < 3:
                raise ChaosError(f"only {len(accepted)} job(s) accepted")
            # Every accepted job must finish and sort correctly -- the
            # crashes land on the pool underneath these very jobs.
            for job_id, keys in accepted.items():
                status = client.wait(job_id, timeout_s=120.0)
                if status.get("status") != "done":
                    raise ChaosError(
                        f"accepted job {job_id} ended "
                        f"{status.get('status')!r} "
                        f"({status.get('error')}: {status.get('message')})"
                    )
                _assert_sorted(
                    client.result(job_id), keys, f"serve/{job_id}"
                )
            failures_absorbed = server.engine.pool.phase_failures
    stats = plan.stats()
    _require_fired(stats, "pool.worker.crash")
    detail = (
        f"{len(accepted)} job(s) verified, {busy} busy rejection(s), "
        f"{failures_absorbed} phase failure(s) absorbed"
    )
    return stats, detail


# ----------------------------------------------------------------------
# Out-of-core stream scenario
# ----------------------------------------------------------------------
def _stream_merge(seed: int, small: bool) -> tuple[FaultStats, str]:
    """Worker kill mid-merge plus the full spill fault family.

    An external sort is driven over a shared supervised pool with a
    scripted plan firing (a) ``spill.enospc`` and ``spill.short_write``
    during run formation, (b) a ``pool.worker.crash`` pinned to the first
    *merge-phase* task -- the crash probe index is computed from the
    chunk sorts' plan so it lands after every run-formation phase -- and
    (c) ``spill.corrupt`` during the final in-parent merge reads.  The
    contract: the merged output is exactly ``np.sort`` of the input,
    every injected fault is recovered, and the pool's fault log shows the
    absorbed failure attributed to a ``stream.merge`` phase.
    """
    from ..native import plan_keys
    from ..native.plan import measure_key_bits
    from ..native.pool import WorkerPool
    from ..stream import external_sort

    n = 40_000 if small else 160_000
    chunk_keys = n // 8  # 8 chunks -> 8 runs; fan_in=4 forces a merge pass
    keys = _keys(seed + 808, n)
    p = 2  # worker count and the chunk sorts' task width
    # Run formation probes pool.worker.crash once per task of every pool
    # phase its plan dispatches -- none when the planner answers
    # ``sequential`` -- so this is the index of the first merge task.
    chunk_plan = plan_keys(keys[:chunk_keys], p)
    crash_idx = 8 * chunk_plan.phases(measure_key_bits(keys)) * chunk_plan.width
    plan = FaultPlan.scripted(
        {
            "pool.worker.crash": [crash_idx],
            "spill.enospc": [2],
            "spill.short_write": [4],
            "spill.corrupt": [5],
        },
        seed,
    )
    blocks: list[np.ndarray] = []
    with use_fault_plan(plan):
        with WorkerPool(p, supervise=True, phase_timeout_s=10.0) as pool:
            result = external_sort(
                keys,
                chunk_keys=chunk_keys,
                fan_in=4,
                frame_keys=4096,
                pool=pool,
                on_block=blocks.append,
            )
            merge_faults = [
                rec
                for rec in pool.fault_log
                if str(rec.get("phase", "")).startswith("stream.merge")
            ]
    out = (
        np.concatenate(blocks) if blocks else np.empty(0, dtype=keys.dtype)
    )
    _assert_sorted(out, keys, "merged output")
    stats = plan.stats()
    if stats.injected.get("pool.worker.crash", 0) < 1:
        raise ChaosError(
            "the scripted mid-merge crash never fired "
            f"(crash probes seen: {plan.probes('pool.worker.crash')}, "
            f"scripted index {crash_idx})"
        )
    if not merge_faults:
        raise ChaosError(
            "no absorbed failure was attributed to a stream.merge phase in "
            "the pool fault log"
        )
    _require_fired(stats, "spill.enospc", "spill.short_write", "spill.corrupt")
    if result.merge_passes < 1:
        raise ChaosError("the merge never went multi-pass")
    detail = (
        f"{result.runs} runs, {result.merge_passes} merge pass(es), "
        f"{len(merge_faults)} merge-phase failure(s) absorbed, "
        f"verified={result.verified}"
    )
    return stats, detail


class Scenario(NamedTuple):
    """One row of the matrix: the name ``--scenario`` takes and every run
    prints, and ``run(seed, small) -> (fault stats, detail)``, which
    raises :class:`ChaosError` when the contract breaks."""

    name: str
    run: Callable[[int, bool], tuple[FaultStats, str]]


_STORM = {
    "pool.worker.crash": 0.10,
    "pool.worker.slow": 0.15,
    "shm.attach": 0.10,
    "shm.create": 0.15,
}

SCENARIOS: tuple[Scenario, ...] = (
    # The seeded crash/slowdown/attach-failure storm, under each algorithm.
    Scenario("native-radix", _NativeSort(
        lambda seed: FaultPlan(seed, _STORM, slow_s=0.01, max_per_site=2),
        "radix", keys_offset=101, full_n=200_000,
    )),
    Scenario("native-sample", _NativeSort(
        lambda seed: FaultPlan(seed + 1, _STORM, slow_s=0.01, max_per_site=2),
        "sample", keys_offset=202, full_n=200_000,
    )),
    # Pinned worker crash + straggler + attach failure (every seed).
    Scenario("scripted-pool", _NativeSort(
        lambda seed: FaultPlan.scripted(
            {"pool.worker.crash": [0], "pool.worker.slow": [1], "shm.attach": [2]},
            seed, slow_s=0.01,
        ),
        "sample", keys_offset=303, full_n=100_000,
    )),
    # Pinned worker hang; the supervised phase timeout must fire.
    Scenario("hang-timeout", _NativeSort(
        lambda seed: FaultPlan.scripted({"pool.worker.hang": [0]}, seed, hang_s=30.0),
        "radix", keys_offset=404, full_n=100_000,
        phase_timeout_s=0.75, must_fire=("pool.worker.hang",),
    )),
    Scenario("shm-alloc", _shm_alloc),
    Scenario("cache-degrade", _cache_degrade),
    # Message delay/drop in the simulated MPI channels; the sort result
    # and the sanitizer's invariants must both survive.
    Scenario("sim-channels", _SimSort(
        lambda seed: FaultPlan(
            seed + 2, {"channel.delay": 0.05, "channel.drop": 0.02},
            max_per_site=64,
        ),
        ("radix", "sample"), keys_offset=505, full_n=16_384, n_procs=8,
        report_sanitizer=True,
    )),
    # Pinned drop + delay on the first two messages (every seed).
    Scenario("scripted-channels", _SimSort(
        lambda seed: FaultPlan.scripted(
            {"channel.drop": [0], "channel.delay": [1]}, seed
        ),
        ("radix",), keys_offset=606, full_n=8_192, n_procs=4,
    )),
    Scenario("serve-traffic", _serve_traffic),
    Scenario("stream-merge", _stream_merge),
)


# ----------------------------------------------------------------------
def run_chaos(
    seed: int = 0,
    small: bool = False,
    soak: int = 1,
    trace_out: str | None = None,
    stream: TextIO | None = None,
    scenario: str | None = None,
) -> int:
    """Run the chaos matrix; returns a process exit code (0 = pass).

    Raises nothing for fault-contract violations -- they are reported and
    reflected in the exit code, so a soak survives to report every
    scenario.

    ``scenario`` restricts the run to one named scenario (hyphens and
    underscores are interchangeable); the :data:`MIN_FAULT_KINDS`
    coverage floor applies only to full-matrix runs, since a single
    scenario legitimately exercises fewer kinds.
    """
    out = stream if stream is not None else sys.stdout
    if soak < 1:
        raise ValueError("soak count must be >= 1")
    scenarios = SCENARIOS
    if scenario is not None:
        wanted = scenario.replace("_", "-")
        scenarios = tuple(s for s in SCENARIOS if s.name == wanted)
        if not scenarios:
            known = ", ".join(s.name for s in SCENARIOS)
            print(f"unknown scenario {scenario!r}; choose from: {known}",
                  file=out)
            return 2
    recorder = MemoryRecorder() if trace_out else None
    injected_total: Counter[str] = Counter()
    recovered_total: Counter[str] = Counter()
    failures: list[str] = []
    t_start = time.perf_counter()
    with use_recorder(recorder):
        for round_i in range(soak):
            round_seed = seed + 1_000 * round_i
            if soak > 1:
                print(f"-- soak round {round_i + 1}/{soak} "
                      f"(seed {round_seed})", file=out)
            for name, run in scenarios:
                t0 = time.perf_counter()
                try:
                    stats, detail = run(round_seed, small)
                except ChaosError as err:
                    failures.append(f"{name}: {err}")
                    print(f"  FAIL {name:<18} {err}", file=out)
                    continue
                except Exception as err:  # noqa: BLE001 - chaos must report
                    failures.append(f"{name}: {type(err).__name__}: {err}")
                    print(
                        f"  FAIL {name:<18} {type(err).__name__}: {err}",
                        file=out,
                    )
                    continue
                r = ScenarioResult(name, stats, time.perf_counter() - t0, detail)
                injected_total.update(r.stats.injected)
                recovered_total.update(r.stats.recovered)
                if not r.stats.all_recovered:
                    unrec = {
                        site: n - r.stats.recovered.get(site, 0)
                        for site, n in r.stats.injected.items()
                        if n > r.stats.recovered.get(site, 0)
                    }
                    failures.append(f"{r.name}: unrecovered faults {unrec}")
                    print(f"  FAIL {r.name:<18} unrecovered: {unrec}", file=out)
                    continue
                kinds = ",".join(r.stats.kinds) or "none fired"
                print(
                    f"  ok   {r.name:<18} {r.stats.total_injected:>3} "
                    f"fault(s) in {r.elapsed_s:6.2f}s  [{kinds}]"
                    + (f"  ({r.detail})" if r.detail else ""),
                    file=out,
                )
    elapsed = time.perf_counter() - t_start
    kinds = sorted(k for k, v in injected_total.items() if v)
    print(
        f"chaos: {sum(injected_total.values())} fault(s) across "
        f"{len(kinds)} kind(s) injected, "
        f"{sum(recovered_total.values())} recovered, "
        f"{len(failures)} failure(s) in {elapsed:.1f}s",
        file=out,
    )
    if scenario is None:
        if len(kinds) < MIN_FAULT_KINDS:
            failures.append(
                f"coverage: only {len(kinds)} fault kind(s) fired "
                f"({kinds}); need >= {MIN_FAULT_KINDS}"
            )
        if sum(recovered_total.values()) == 0:
            failures.append(
                "coverage: no fault was recovered (counters all zero)"
            )
    if recorder is not None and trace_out:
        write_chrome_trace(trace_out, recorder)
        print(f"{len(recorder.events)} trace events -> {trace_out}", file=out)
    if failures:
        for f in failures:
            print(f"chaos FAILURE: {f}", file=out)
        return 1
    print(f"chaos: all scenarios passed ({', '.join(kinds)})", file=out)
    return 0
