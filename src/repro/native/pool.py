"""Worker pool for the native parallel sorts.

A thin wrapper over :class:`multiprocessing.pool.Pool` preferring the
``fork`` start method (workers inherit nothing they shouldn't -- all data
travels through named shared memory), falling back to ``spawn`` on
platforms without ``fork``.  Each bulk-synchronous phase of a sort is one
``map`` call; the map barrier plays the role of the paper's inter-phase
barriers.

When a structured-trace recorder is installed (see :mod:`repro.trace`) or
the pool is constructed with ``collect_timings=True``, every phase is
timed: the parent records the phase's begin/end wall-clock span and each
worker stamps its task with ``time.perf_counter()`` start/end times
(CLOCK_MONOTONIC is system-wide on Linux, so parent and worker clocks are
directly comparable).  These timings are what the native backend maps
onto the paper's BUSY/SYNC accounting.  Task spans are attributed to the
*worker slot* that executed them (trace tracks ``1..n_workers``), not to
the task index -- a phase of 100 tasks on 4 workers still renders as 4
worker tracks.

Supervised phases
-----------------
The paper's sorts are bulk-synchronous: one dead or hung worker stalls
every barrier forever (the very SYNC term its breakdowns measure).
``WorkerPool(..., supervise=True)`` therefore runs each phase under a
supervisor: the map is dispatched asynchronously, the parent polls for
completion while watching the worker processes, and a dead worker, a
phase timeout or a task exception triggers bounded retry with backoff --
terminating and rebuilding the pool (dead-worker replacement), and, after
repeated failures, rebuilding it *narrower* (graceful degradation to
fewer workers, down to ``min_workers``).  Retried phases are safe because
every task in :mod:`repro.native.radix` / :mod:`repro.native.sample`
writes its full output slice from an unmodified input buffer
(double-buffered phases), so re-running it is idempotent.

Fault injection (:mod:`repro.faults`) plugs in here: when a fault plan is
ambiently installed, the parent draws per-task directives (crash, hang,
slowdown, attach failure) from the plan -- decisions stay in the parent
so the schedule is deterministic -- and ships them with the task; the
worker-side wrapper executes them.  On the final retry attempt no new
faults are drawn, so a supervised phase under an (appropriately capped)
plan always converges.  Every failure and recovery is logged in
``fault_log``, emitted on the ``PID_FAULTS`` trace track, and counted
back into the plan's recovery counters.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from ..faults.context import current_fault_plan
from ..faults.plan import pool_directives
from ..trace import PID_FAULTS, PID_NATIVE, current_recorder
from . import shm
from .arena import Arena

#: Trace track of the parent process coordinating the pool (workers use
#: tracks ``1..n_workers``, one per worker slot).
POOL_TID = 0

#: Supervisor poll interval while waiting on an async phase (seconds).
_POLL_S = 0.02

#: How long a worker waits for its siblings in the arena mapping round
#: (seconds); only a dead or hung sibling makes anyone wait this long.
_MAP_ROUND_TIMEOUT_S = 1.0

#: This worker's rendezvous with its siblings (set by ``_worker_init``).
_siblings: Any = None


def _worker_init(
    siblings: Any, user_init: Callable[..., None] | None, user_args: tuple
) -> None:
    """Every-worker initializer: keep the pool's barrier, warm the active
    sort kernel (resolving the ``REPRO_NATIVE_KERNEL`` choice once, and
    JIT-compiling the numba kernels off the hot path if selected), then
    run the caller's own initializer, if any."""
    global _siblings
    from . import kernels

    _siblings = siblings
    kernels.warm()
    if user_init is not None:
        user_init(*user_args)


def _map_slabs_task(handles: tuple) -> int:
    """Map every slab in this worker, then hold it until every sibling
    has taken its own copy of this task -- which is what makes one round
    of ``n_workers`` tasks reach every worker.  Returns fresh attaches."""
    before = shm.attach_count()
    try:
        for handle in handles:
            shm.resolve(handle)
    except OSError:
        pass  # (injected) failure: left to the task that needs the slab
    try:
        _siblings.wait(_MAP_ROUND_TIMEOUT_S)
    except threading.BrokenBarrierError:
        pass  # a sibling never came; supervision deals with it
    return shm.attach_count() - before


class PhaseError(RuntimeError):
    """A supervised phase failed every retry attempt."""

    def __init__(self, phase: str, attempts: int, cause: BaseException | None):
        detail = f": {type(cause).__name__}: {cause}" if cause is not None else ""
        super().__init__(
            f"phase {phase!r} failed after {attempts} attempt(s){detail}"
        )
        self.phase = phase
        self.attempts = attempts
        self.cause = cause


class _WorkerDied(RuntimeError):
    """A pool worker process exited mid-phase (crash / SIGKILL)."""


class _PhaseTimeout(RuntimeError):
    """A phase overran its supervised deadline (hang / livelock)."""


def default_workers() -> int:
    """Default worker count: all CPUs, overridable via ``REPRO_WORKERS``.

    ``REPRO_WORKERS`` must parse as an integer >= 1; anything else raises
    ``ValueError`` rather than silently running with a surprise width.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {value}")
        return value
    return max(1, os.cpu_count() or 1)


def workers_available(pool: WorkerPool | None, n_workers: int | None) -> int:
    """Workers a sort may use -- the ``p`` its plan is asked about: the
    pool's width, else the requested one, else the default."""
    if pool is not None:
        return pool.n_workers
    return n_workers if n_workers is not None else default_workers()


def default_start_method() -> str:
    """``fork`` where available (cheap, shares the imported modules),
    else ``spawn`` (macOS/Windows-style platforms)."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class PhaseTiming:
    """Wall-clock record of one bulk-synchronous pool phase.

    ``begin``/``end`` bracket the whole phase in the parent (including
    any failed supervised attempts, whose cost thus shows up as SYNC);
    ``tasks[i]`` is task ``i``'s in-worker (start, end) span from the
    successful attempt and ``slots[i]`` the 1-based worker slot that
    executed it.  All times are ``time.perf_counter()`` seconds.
    """

    name: str
    begin: float
    end: float
    tasks: tuple[tuple[float, float], ...]
    slots: tuple[int, ...] = field(default=())
    #: Fresh shared-memory attaches task ``i`` performed in its worker,
    #: plus -- on task 0 -- those of the pool's slab-mapping round when
    #: one preceded this phase (zero from the second sort on a reused
    #: pool, where every worker holds every arena slab in its cache).
    attaches: tuple[int, ...] = field(default=())

    @property
    def elapsed_s(self) -> float:
        return self.end - self.begin


def _apply_directive(directive: tuple[str, float | None] | None) -> None:
    """Execute a fault directive inside the worker, at task start."""
    if directive is None:
        return
    kind, param = directive
    if kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        time.sleep(float(param or 60.0))
    elif kind == "slow":
        time.sleep(float(param or 0.05))
    elif kind == "attach-fail":
        shm.fail_next_attach()


def _timed_call(
    fn: Callable[[Any], Any], task: Any
) -> tuple[Any, float, float, int, int]:
    a0 = shm.attach_count()
    t0 = time.perf_counter()
    result = fn(task)
    t1 = time.perf_counter()
    return result, t0, t1, os.getpid(), shm.attach_count() - a0


def _directed_call(
    fn: Callable[[Any], Any],
    payload: tuple[Any, tuple[str, float | None] | None],
) -> tuple[Any, float, float, int, int]:
    task, directive = payload
    _apply_directive(directive)
    return _timed_call(fn, task)


class WorkerPool:
    """A persistent process pool with phase-style ``run_phase``.

    The pool owns the shared memory its sorts run in: ``arena`` holds no
    segment until the first parallel sort leases from it, keeps its slabs
    for the sorts that follow, and is unlinked by ``close``.  One sort at
    a time per pool.

    ``supervise=True`` arms per-phase supervision: ``phase_timeout_s``
    bounds each attempt (``None`` = wait forever, though dead workers are
    still detected promptly), ``max_phase_retries`` bounds re-execution,
    and after ``shrink_after`` failures within one phase the pool is
    rebuilt with half the workers (never below ``min_workers``).
    """

    def __init__(
        self,
        n_workers: int | None = None,
        collect_timings: bool = False,
        *,
        supervise: bool = False,
        phase_timeout_s: float | None = None,
        max_phase_retries: int = 2,
        min_workers: int = 1,
        shrink_after: int = 2,
        retry_backoff_s: float = 0.05,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        self.n_workers = n_workers if n_workers is not None else default_workers()
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_phase_retries < 0:
            raise ValueError("max_phase_retries must be >= 0")
        self.start_method = default_start_method()
        #: Run in every worker at start (and again after every supervised
        #: rebuild).
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self.arena = Arena()
        #: Worker OS pid -> 1-based slot, in order of first appearance.
        self._slot_by_pid: dict[int, int] = {}
        self._unreported_attaches = 0
        self._spawn()
        if self.n_workers == 1:
            _worker_init(None, self._initializer, self._initargs)  # inline "pool"
        self._closed = False
        self.collect_timings = collect_timings
        self.supervise = supervise
        self.phase_timeout_s = phase_timeout_s
        self.max_phase_retries = max_phase_retries
        self.min_workers = min_workers
        self.shrink_after = shrink_after
        self.retry_backoff_s = retry_backoff_s
        self.timings: list[PhaseTiming] = []
        #: One record per supervised failure: phase, attempt, reason, the
        #: action taken and the worker count after it.
        self.fault_log: list[dict[str, Any]] = []
        #: Total failed phase attempts absorbed over the pool's lifetime.
        self.phase_failures = 0
        self._phase_seq = 0

    # ------------------------------------------------------------------
    def _slot_of(self, pid: int) -> int:
        """Stable 1-based worker-slot index for ``pid``, capped at
        ``n_workers`` (a respawned worker reuses the last track rather
        than growing the documented ``1..n_workers`` range)."""
        slot = self._slot_by_pid.get(pid)
        if slot is None:
            slot = min(len(self._slot_by_pid) + 1, self.n_workers)
            self._slot_by_pid[pid] = slot
        return slot

    # ------------------------------------------------------------------
    # Supervision internals
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        """Fork ``n_workers`` fresh workers (none for the inline pool)."""
        self._siblings = self._pool = None
        if self.n_workers > 1:
            ctx = mp.get_context(self.start_method)
            self._siblings = ctx.Barrier(self.n_workers)
            self._pool = ctx.Pool(
                self.n_workers,
                _worker_init,
                (self._siblings, self._initializer, self._initargs),
            )
        self._slot_by_pid.clear()
        #: Slab names every worker is known to have mapped.
        self._mapped: tuple[str, ...] = ()

    def _map_arena(self) -> None:
        """Bring every worker's attach cache up to the arena's current
        slabs in one barrier-held round, so no sort task ever attaches:
        runs when a lease regrew a slab or workers were replaced, i.e.
        never on a reused pool's steady state.  Outside supervision and
        fault injection (it is not part of any sort's phase program);
        its attaches are reported with the next timed phase."""
        if self._pool is None:
            return  # inline tasks resolve in this process
        names = self.arena.slab_names
        if names == self._mapped:
            return
        self._siblings.reset()
        try:
            self._unreported_attaches += sum(
                self._pool.map_async(
                    _map_slabs_task, [self.arena.handles()] * self.n_workers
                ).get(2 * _MAP_ROUND_TIMEOUT_S)
            )
        except mp.TimeoutError:
            pass  # a worker died holding its task: the phase will notice
        self._mapped = names

    def _rebuild(self, shrink: bool) -> None:
        """Replace the worker processes (dead-worker replacement), at a
        reduced width when ``shrink`` (graceful degradation)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
        if shrink and self.n_workers > self.min_workers:
            self.n_workers = max(self.min_workers, self.n_workers // 2)
        self._spawn()
        self._map_arena()

    def _attempt(
        self,
        call: Callable[[Any], tuple[Any, float, float, int, int]],
        payloads: list[Any],
        deadline_s: float | None,
    ) -> list[tuple[Any, float, float, int, int]]:
        """Run one phase attempt; raises on worker death, timeout, or any
        task exception."""
        if self._pool is None:
            return [call(p) for p in payloads]
        procs = list(self._pool._pool)
        result = self._pool.map_async(call, payloads)
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        while not result.ready():
            result.wait(_POLL_S)
            if result.ready():
                break
            if any(p.exitcode is not None for p in procs):
                raise _WorkerDied(
                    "worker process exited mid-phase (task lost)"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise _PhaseTimeout(
                    f"phase exceeded its {deadline_s:g}s supervised timeout"
                )
        return result.get()

    def _note_failure(
        self, label: str, attempt: int, exc: BaseException, shrink: bool
    ) -> None:
        self.phase_failures += 1
        action = "shrink" if shrink else "retry"
        record = {
            "phase": label,
            "attempt": attempt,
            "reason": f"{type(exc).__name__}: {exc}",
            "action": action,
            "workers": self.n_workers,
        }
        self.fault_log.append(record)
        rec = current_recorder()
        if rec.enabled:
            rec.instant(
                f"fault.pool.{action}",
                cat="fault.pool",
                ts_us=time.perf_counter() * 1e6,
                pid=PID_FAULTS,
                args=record,
            )

    # ------------------------------------------------------------------
    def run_phase(
        self, fn: Callable[[Any], Any], tasks: Iterable[Any], name: str | None = None
    ) -> list[Any]:
        """Run one bulk-synchronous phase: ``fn`` over all tasks, barrier.

        Under supervision (or an ambient fault plan) the phase is retried
        on worker death, timeout or task exception; an unsupervised pool
        propagates the first failure unchanged."""
        if self._closed:
            raise RuntimeError("pool is closed")
        tasks = list(tasks)
        rec = current_recorder()
        plan = current_fault_plan()
        self._map_arena()
        self._phase_seq += 1
        timed = self.collect_timings or rec.enabled
        if not self.supervise and plan is None:
            # The pre-existing fast paths, untouched by supervision.
            if not timed:
                if self._pool is None:
                    return [fn(t) for t in tasks]
                return self._pool.map(fn, tasks)
            return self._run_timed_unsupervised(fn, tasks, name, rec)
        return self._run_supervised(fn, tasks, name, rec, plan, timed)

    def _run_timed_unsupervised(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        name: str | None,
        rec,
    ) -> list[Any]:
        label = name or f"phase{self._phase_seq}"
        call = partial(_timed_call, fn)
        begin = time.perf_counter()
        if self._pool is None:
            raw = [call(t) for t in tasks]
        else:
            raw = self._pool.map(call, tasks)
        end = time.perf_counter()
        self._record_phase(label, begin, end, raw, rec, len(tasks))
        return [r for r, _t0, _t1, _pid, _att in raw]

    def _run_supervised(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        name: str | None,
        rec,
        plan,
        timed: bool,
    ) -> list[Any]:
        label = name or f"phase{self._phase_seq}"
        retries = self.max_phase_retries if self.supervise else 0
        timeout = self.phase_timeout_s if self.supervise else None
        issued_sites: list[str] = []
        failures_this_phase = 0
        last_exc: BaseException | None = None
        begin = time.perf_counter()
        for attempt in range(retries + 1):
            # Draw fresh fault directives per attempt -- but never on the
            # final supervised attempt, so a capped plan cannot starve the
            # phase of its last chance to complete.
            allow = retries == 0 or attempt < retries
            directives, issued = pool_directives(
                plan if allow else None,
                len(tasks),
                allow_process_faults=self.supervise and self._pool is not None,
                allow_task_faults=True,
            )
            issued_sites.extend(issued)
            call = partial(_directed_call, fn)
            payloads = list(zip(tasks, directives))
            try:
                raw = self._attempt(call, payloads, timeout)
            except BaseException as exc:  # noqa: BLE001 - supervised retry
                last_exc = exc
                if attempt >= retries:
                    if not self.supervise:
                        raise
                    raise PhaseError(label, attempt + 1, exc) from exc
                failures_this_phase += 1
                shrink = failures_this_phase >= self.shrink_after
                self._note_failure(label, attempt, exc, shrink)
                self._rebuild(shrink=shrink)
                time.sleep(self.retry_backoff_s * (2.0**attempt))
                continue
            end = time.perf_counter()
            if failures_this_phase and rec.enabled:
                rec.complete(
                    f"fault.pool.recovered:{label}",
                    cat="fault.recovery",
                    ts_us=begin * 1e6,
                    dur_us=(end - begin) * 1e6,
                    pid=PID_FAULTS,
                    args={
                        "attempts": attempt + 1,
                        "failures": failures_this_phase,
                        "workers": self.n_workers,
                    },
                )
            if plan is not None:
                for site in issued_sites:
                    plan.note_recovered(site)
            if timed:
                self._record_phase(label, begin, end, raw, rec, len(tasks))
            return [r for r, _t0, _t1, _pid, _att in raw]
        raise PhaseError(label, retries + 1, last_exc)  # pragma: no cover

    def _record_phase(
        self,
        label: str,
        begin: float,
        end: float,
        raw: list[tuple[Any, float, float, int, int]],
        rec,
        n_tasks: int,
    ) -> None:
        slots = tuple(self._slot_of(pid) for _, _t0, _t1, pid, _att in raw)
        attaches = [att for _, _t0, _t1, _pid, att in raw]
        if attaches:
            attaches[0] += self._unreported_attaches
            self._unreported_attaches = 0
        timing = PhaseTiming(
            label, begin, end,
            tuple((t0, t1) for _, t0, t1, _pid, _att in raw),
            slots,
            tuple(attaches),
        )
        if self.collect_timings:
            self.timings.append(timing)
        if rec.enabled:
            rec.complete(
                label,
                cat="native.phase",
                ts_us=begin * 1e6,
                dur_us=(end - begin) * 1e6,
                pid=PID_NATIVE,
                tid=POOL_TID,
                args={"tasks": n_tasks, "attaches": sum(attaches)},
            )
            for slot, (t0, t1) in zip(slots, timing.tasks):
                rec.complete(
                    label,
                    cat="native.task",
                    ts_us=t0 * 1e6,
                    dur_us=(t1 - t0) * 1e6,
                    pid=PID_NATIVE,
                    tid=slot,
                )

    # ------------------------------------------------------------------
    def close(self, force: bool = False) -> None:
        """Shut the pool down, reap its workers and unlink its arena.

        ``force=True`` terminates workers instead of waiting for them to
        drain -- used on the exception path so a failed phase cannot leak
        forked processes holding shared-memory references.
        """
        try:
            if not self._closed and self._pool is not None:
                if force:
                    self._pool.terminate()
                else:
                    self._pool.close()
                self._pool.join()
        finally:
            self._closed = True
            self.arena.close()

    def terminate(self) -> None:
        """Kill workers immediately (``close(force=True)``)."""
        self.close(force=True)

    def __enter__(self) -> "WorkerPool":
        if self._closed:
            raise RuntimeError("pool is closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(force=exc_type is not None)
