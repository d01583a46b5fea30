"""Worker pool for the native parallel sorts.

A thin wrapper over :class:`multiprocessing.pool.Pool` preferring the
``fork`` start method (workers inherit nothing they shouldn't -- all data
travels through named shared memory), falling back to ``spawn`` on
platforms without ``fork``.  Each bulk-synchronous phase of a sort is one
``map`` call; the map barrier plays the role of the paper's inter-phase
barriers.

Every phase, on every pool, goes through one runner
(:meth:`WorkerPool.run_phase`): the map is dispatched asynchronously and
the parent waits on it while watching the worker processes, so a worker
that dies mid-phase surfaces promptly instead of stalling the barrier
forever (the very SYNC term the paper's breakdowns measure).  What a
failure *means* is the pool's ``supervise`` flag:

* unsupervised (the default), the first failure -- a task exception, a
  dead worker -- propagates unchanged: no retry, no rebuild;
* ``supervise=True`` retries the phase, bounded
  (:data:`MAX_PHASE_RETRIES`, backoff :data:`RETRY_BACKOFF_S`), after
  terminating and rebuilding the workers (dead-worker replacement) and,
  from the :data:`SHRINK_AFTER`-th failure within one phase, rebuilding
  them *narrower* (graceful degradation, never below
  :data:`MIN_WORKERS`); ``phase_timeout_s`` additionally bounds each
  attempt.  Retried phases are safe because every task in
  :mod:`repro.native.radix` / :mod:`repro.native.sample` writes its full
  output slice from an unmodified input buffer (double-buffered phases),
  so re-running it is idempotent.

Every task is stamped in its worker with ``time.perf_counter()`` start
and end times (CLOCK_MONOTONIC is system-wide on Linux, so parent and
worker clocks are directly comparable); when a structured-trace recorder
is installed (see :mod:`repro.trace`) or the pool was built with
``collect_timings=True`` those stamps and the parent's begin/end span
become a :class:`PhaseTiming` -- what the native backend maps onto the
paper's BUSY/SYNC accounting.  Task spans are attributed to the *worker
slot* that executed them (trace tracks ``1..n_workers``), not to the
task index -- a phase of 100 tasks on 4 workers still renders as 4
worker tracks.

Fault injection (:mod:`repro.faults`) plugs in here: when a fault plan is
ambiently installed, the parent draws per-task directives (crash, hang,
slowdown, attach failure) from the plan -- decisions stay in the parent
so the schedule is deterministic -- and ships them with the task; the
worker executes them at task start.  On the final retry attempt no new
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

#: How often the parent, waiting on a phase, looks at its workers'
#: exit codes and the phase deadline (seconds).
_POLL_S = 0.02

#: Supervision policy.  A failed supervised phase is re-run up to
#: ``MAX_PHASE_RETRIES`` times on rebuilt workers, sleeping
#: ``RETRY_BACKOFF_S * 2**attempt`` first; from the ``SHRINK_AFTER``-th
#: failure within one phase the rebuild halves the pool, never below
#: ``MIN_WORKERS``.
MAX_PHASE_RETRIES = 2
SHRINK_AFTER = 2
MIN_WORKERS = 1
RETRY_BACKOFF_S = 0.05

#: How long a worker waits for its siblings in the arena mapping round
#: (seconds): the allowance for a sibling still booting.  A dead one is
#: the parent's to notice; it aborts the barrier.
_MAP_ROUND_TIMEOUT_S = 10.0

#: Mapping rounds tried before the pool stops proving coverage and lets
#: the sort tasks attach what they find missing.
MAX_MAP_ROUNDS = 3

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


def _map_slabs_task(handles: tuple) -> tuple[int, bool]:
    """Map every slab in this worker, then hold it until every sibling
    has taken its own copy of this task -- which is what makes one round
    of ``n_workers`` tasks reach every worker.  Returns the fresh
    attaches and whether this worker can vouch for the round: it mapped
    every slab and met every sibling."""
    before = shm.attach_count()
    covered = True
    try:
        for handle in handles:
            shm.resolve(handle)
    except OSError:
        covered = False  # (injected) attach failure
    if _siblings is not None:  # the inline pool has none to wait for
        try:
            _siblings.wait(_MAP_ROUND_TIMEOUT_S)
        except threading.BrokenBarrierError:
            covered = False  # a sibling never came
    return shm.attach_count() - before, covered


class PhaseError(RuntimeError):
    """A supervised phase failed every retry attempt."""

    def __init__(self, phase: str, attempts: int, cause: BaseException):
        super().__init__(
            f"phase {phase!r} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
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


def _run_task(
    fn: Callable[[Any], Any],
    payload: tuple[Any, tuple[str, float | None] | None],
) -> tuple[Any, float, float, int, int]:
    """One task in its worker: execute the fault directive shipped with
    it, if any, then ``fn(task)`` between two clock stamps -- returned
    with the worker's pid and the fresh attaches the task performed."""
    task, directive = payload
    _apply_directive(directive)
    a0 = shm.attach_count()
    t0 = time.perf_counter()
    result = fn(task)
    t1 = time.perf_counter()
    return result, t0, t1, os.getpid(), shm.attach_count() - a0


class WorkerPool:
    """A persistent process pool with phase-style ``run_phase``.

    The pool owns the shared memory its sorts run in: ``arena`` holds no
    segment until the first parallel sort leases from it, keeps its slabs
    for the sorts that follow, and is unlinked by ``close``.  One sort at
    a time per pool.

    ``supervise=True`` arms per-phase supervision (retry, rebuild and
    shrink by the module's policy constants); ``phase_timeout_s`` then
    bounds each attempt (``None`` = wait forever).  A dead worker is
    detected promptly either way.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        collect_timings: bool = False,
        *,
        supervise: bool = False,
        phase_timeout_s: float | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        self.n_workers = n_workers if n_workers is not None else default_workers()
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
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
    # Workers and their mappings
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
        #: A dispatched task was lost with its worker (or abandoned in a
        #: hung one): ``multiprocessing`` waits for it forever on a
        #: graceful close, so these workers can only be terminated.
        self._orphaned = False

    def _map_round(self) -> list[tuple[int, bool]]:
        """One round of ``n_workers`` barrier-held :func:`_map_slabs_task`
        calls.  A worker dying (or overrunning the deadline) in it fails
        the round like any phase attempt, and the barrier is aborted so
        nobody keeps waiting for the lost sibling."""
        if self._siblings is not None:
            self._siblings.reset()
        try:
            return self._attempt(
                _map_slabs_task, [self.arena.handles()] * self.n_workers
            )
        except (_WorkerDied, _PhaseTimeout):
            self._siblings.abort()
            raise

    def map_arena(self) -> int:
        """Bring every worker's attach cache up to the arena's current
        slabs, so no sort task ever attaches; returns the rounds it took
        -- 0 when the workers already hold them (a reused pool's steady
        state: this only has work after a lease regrew a slab or workers
        were replaced), 1 on a healthy pool.  A round proves its own
        coverage (every task mapped every slab and met every sibling at
        the barrier); one that cannot is repeated, and after
        :data:`MAX_MAP_ROUNDS` the sort tasks are left to attach what
        they find missing.  It is not part of any sort's phase program
        (no fault directive is drawn for it), but it runs inside the
        phase attempt that needs it, so a worker lost here is retried
        or raised like one lost in the phase; its attaches are reported
        with the next timed phase."""
        names = self.arena.slab_names
        if names == self._mapped:
            return 0
        for rounds in range(1, MAX_MAP_ROUNDS + 1):
            vouchers = self._map_round()
            self._unreported_attaches += sum(att for att, _ in vouchers)
            if all(covered for _, covered in vouchers):
                break
        self._mapped = names
        return rounds

    def drain_attaches(self) -> int:
        """Fresh worker attaches since the last drain -- the recorded
        phases' and any mapping round's not yet reported with one --
        clearing ``timings`` (a long-lived ``collect_timings`` pool would
        otherwise grow them without bound)."""
        total = self._unreported_attaches + sum(
            sum(t.attaches) for t in self.timings
        )
        self._unreported_attaches = 0
        self.timings.clear()
        return total

    def _rebuild(self, shrink: bool) -> None:
        """Replace the worker processes (dead-worker replacement), at a
        reduced width when ``shrink`` (graceful degradation)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
        if shrink and self.n_workers > MIN_WORKERS:
            self.n_workers = max(MIN_WORKERS, self.n_workers // 2)
        self._spawn()

    def _attempt(self, call: Callable[[Any], Any], payloads: list[Any]) -> list[Any]:
        """``call`` over ``payloads`` on the workers, once: raises on
        worker death, any task exception and -- under supervision -- a
        missed ``phase_timeout_s``."""
        if self._pool is None:
            return [call(p) for p in payloads]
        procs = list(self._pool._pool)
        result = self._pool.map_async(call, payloads)
        deadline_s = self.phase_timeout_s if self.supervise else None
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        while True:
            result.wait(_POLL_S)
            if result.ready():
                return result.get()
            if any(p.exitcode is not None for p in procs):
                self._orphaned = True
                raise _WorkerDied(
                    "worker process exited mid-phase (task lost)"
                )
            if deadline is not None and time.monotonic() >= deadline:
                self._orphaned = True
                raise _PhaseTimeout(
                    f"phase exceeded its {deadline_s:g}s supervised timeout"
                )

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

        Under supervision the phase is retried on worker death, timeout
        or task exception, and ``PhaseError`` reports the last attempt's
        failure; an unsupervised pool is the same loop with no retry and
        no deadline, and propagates the first failure unchanged."""
        if self._closed:
            raise RuntimeError("pool is closed")
        tasks = list(tasks)
        rec = current_recorder()
        plan = current_fault_plan()
        self._phase_seq += 1
        label = name or f"phase{self._phase_seq}"
        retries = MAX_PHASE_RETRIES if self.supervise else 0
        call = partial(_run_task, fn)
        issued_sites: list[str] = []
        failures = 0
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
            )
            issued_sites.extend(issued)
            try:
                self.map_arena()
                raw = self._attempt(call, list(zip(tasks, directives)))
            except Exception as exc:
                if not self.supervise:
                    raise
                if attempt == retries:
                    raise PhaseError(label, attempt + 1, exc) from exc
                failures += 1
                shrink = failures >= SHRINK_AFTER
                self._note_failure(label, attempt, exc, shrink)
                self._rebuild(shrink=shrink)
                time.sleep(RETRY_BACKOFF_S * (2.0**attempt))
                continue
            break
        end = time.perf_counter()
        if failures and rec.enabled:
            rec.complete(
                f"fault.pool.recovered:{label}",
                cat="fault.recovery",
                ts_us=begin * 1e6,
                dur_us=(end - begin) * 1e6,
                pid=PID_FAULTS,
                args={
                    "attempts": attempt + 1,
                    "failures": failures,
                    "workers": self.n_workers,
                },
            )
        if plan is not None:
            for site in issued_sites:
                plan.note_recovered(site)
        if self.collect_timings or rec.enabled:
            self._record_phase(label, begin, end, raw, rec)
        return [r for r, _t0, _t1, _pid, _att in raw]

    def _record_phase(
        self,
        label: str,
        begin: float,
        end: float,
        raw: list[tuple[Any, float, float, int, int]],
        rec,
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
                args={"tasks": len(raw), "attaches": sum(attaches)},
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
                if force or self._orphaned:
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
