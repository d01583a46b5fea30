"""Worker pool for the native parallel sorts.

``n_workers`` daemon processes the pool starts itself -- ``fork`` where
available (workers inherit nothing they shouldn't: all data travels
through named shared memory), else ``spawn`` -- each on its own duplex
pipe, each running one loop: receive ``(call, payload)``, run it, send
back ``(ok, value | exception)``.  A worker exits on the stop message,
on end of file (the parent is gone, however it went) or when killed, so
none outlives the pool or the parent.

Every phase, on every pool, goes through one runner
(:meth:`WorkerPool.run_phase`).  The *calling* thread writes task ``i``
to a free worker -- the first ``n_workers`` tasks to workers ``0..n-1``
in order, each later one to whichever worker answers first; results come
back in task order -- and blocks in one
:func:`multiprocessing.connection.wait` on the pipes of the tasks in
flight *and* every worker's ``sentinel``, so a reply, a worker's death
and (under supervision) the phase deadline each wake it at once.  That
wait plays the role of the paper's inter-phase barriers, and nothing
stands between the caller and its workers (no task queue, no handler
thread): its cost is the SYNC term the paper's breakdowns measure.  An
attempt cut short takes its workers with it -- the pool kills them
rather than guess what they still hold -- and the next one starts fresh
ones.  What a failure *means* is the pool's ``supervise`` flag:

* unsupervised (the default), the first failure -- a task exception, a
  dead worker -- propagates unchanged: no retry;
* ``supervise=True`` retries the phase, bounded
  (:data:`MAX_PHASE_RETRIES`, backoff :data:`RETRY_BACKOFF_S`), on fresh
  workers (dead-worker replacement) and, from the
  :data:`SHRINK_AFTER`-th failure within one phase, on *fewer* of them
  (graceful degradation, never below :data:`MIN_WORKERS`);
  ``phase_timeout_s`` additionally bounds each attempt.  Retried phases
  are safe because every task in :mod:`repro.native.radix` /
  :mod:`repro.native.sample` writes its full output slice from an
  unmodified input buffer (double-buffered phases), so re-running it is
  idempotent.

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
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Iterable

from ..faults.context import recovered
from ..faults.plan import pool_directives
from ..trace import PID_FAULTS, PID_NATIVE, current_recorder, wall_instant, wall_span
from . import shm
from .arena import Arena

#: Trace track of the parent process coordinating the pool (workers use
#: tracks ``1..n_workers``, one per worker slot).
POOL_TID = 0

#: Supervision policy.  A failed supervised phase is re-run up to
#: ``MAX_PHASE_RETRIES`` times on fresh workers, sleeping
#: ``RETRY_BACKOFF_S * 2**attempt`` first; from the ``SHRINK_AFTER``-th
#: failure within one phase the rebuild halves the pool, never below
#: ``MIN_WORKERS``.
MAX_PHASE_RETRIES = 2
SHRINK_AFTER = 2
MIN_WORKERS = 1
RETRY_BACKOFF_S = 0.05

#: How long ``close()`` lets workers act on the stop message before it
#: kills them (seconds); an idle worker exits in under a millisecond.
_STOP_GRACE_S = 1.0


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


class ReplyError(RuntimeError):
    """A task ran, but its result (or exception) could not be pickled."""


class _WorkerDied(RuntimeError):
    """A pool worker process exited mid-phase (crash / SIGKILL)."""

    def __init__(self) -> None:
        super().__init__("worker process exited mid-phase (task lost)")


class _PhaseTimeout(RuntimeError):
    """A phase overran its supervised deadline (hang / livelock)."""


def _worker_main(
    conn: Connection,
    parent_ends: list[Connection],
    user_init: Callable[..., None] | None,
    user_args: tuple,
) -> None:
    """A worker's whole life: initialise, then answer one message at a
    time until the stop message (``None``) or end of file.

    ``parent_ends`` are the parent's ends of this worker's and its older
    siblings' pipes, which a forked child inherits.  It closes them
    first: while any process but the parent holds one, the parent's
    death does not reach that pipe's worker as end of file."""
    for end in parent_ends:
        end.close()
    if user_init is not None:
        user_init(*user_args)
    try:
        while (message := conn.recv()) is not None:
            call, payload = message
            try:
                reply = (True, call(payload))
            except Exception as exc:
                # Travels in the pickle; tracebacks show it from Python 3.11.
                where = f"in a pool worker:\n{traceback.format_exc()}"
                exc.__notes__ = [*getattr(exc, "__notes__", ()), where]
                reply = (False, exc)
            try:
                conn.send(reply)
            except OSError:
                raise
            except Exception as exc:  # not picklable: nothing was written
                what = "result" if reply[0] else f"exception {reply[1]!r}"
                error = ReplyError(f"task {what} cannot be pickled: {exc!r}")
                conn.send((False, error))
    except (EOFError, OSError):
        pass  # the parent is gone


def _map_slabs_task(handles: tuple) -> tuple[int, bool]:
    """Map every slab in this worker; returns the fresh attaches and
    whether every slab is now mapped (an injected attach failure leaves
    one out)."""
    before = shm.attach_count()
    mapped = True
    try:
        for handle in handles:
            shm.resolve(handle)
    except OSError:
        mapped = False
    return shm.attach_count() - before, mapped


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
) -> tuple[Any, float, float, int]:
    """One task in its worker: execute the fault directive shipped with
    it, if any, then ``fn(task)`` between two clock stamps -- returned
    with the fresh attaches the task performed."""
    task, directive = payload
    _apply_directive(directive)
    a0 = shm.attach_count()
    t0 = time.perf_counter()
    result = fn(task)
    t1 = time.perf_counter()
    return result, t0, t1, shm.attach_count() - a0


class WorkerPool:
    """A persistent process pool with phase-style ``run_phase``.

    The pool owns the shared memory its sorts run in: ``arena`` holds no
    segment until the first parallel sort leases from it, keeps its slabs
    for the sorts that follow, and is unlinked by ``close``.  One sort at
    a time per pool.

    ``supervise=True`` arms per-phase supervision (retry, rebuild and
    shrink by the module's policy constants); ``phase_timeout_s`` then
    bounds each attempt (``None`` = wait forever).  A dead worker is
    detected at once either way.
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
        #: Run in every worker at start (and again in every replacement).
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self.arena = Arena()
        self._unreported_attaches = 0
        #: (process, our end of its pipe); worker ``i`` is slot ``i + 1``.
        #: Empty for the inline 1-worker pool, and after an attempt was
        #: cut short until the next one needs them.
        self._workers: list[tuple[Any, Connection]] = []
        #: Slab names every worker is known to have mapped.
        self._mapped: tuple[str, ...] = ()
        if self.n_workers > 1:
            self._spawn()
        elif initializer is not None:
            initializer(*self._initargs)  # inline "pool"
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

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """OS pids of the current worker processes, in slot order."""
        return tuple(process.pid for process, _ in self._workers)

    # ------------------------------------------------------------------
    # Workers and their mappings
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        """Start ``n_workers`` fresh workers, each on its own pipe."""
        ctx = mp.get_context(self.start_method)
        forks = self.start_method == "fork"
        for _ in range(self.n_workers):
            ours, theirs = ctx.Pipe()
            inherited = [*(conn for _, conn in self._workers), ours] if forks else []
            process = ctx.Process(
                target=_worker_main,
                args=(theirs, inherited, self._initializer, self._initargs),
                daemon=True,
            )
            process.start()
            theirs.close()
            self._workers.append((process, ours))

    def _stop_workers(self, graceful: bool = False) -> None:
        """Reap every worker: asked to exit first when ``graceful``,
        killed when not -- or when asking was not enough."""
        workers, self._workers, self._mapped = self._workers, [], ()
        if graceful:
            for _, conn in workers:
                try:
                    conn.send(None)
                except OSError:
                    pass  # already dead
        deadline = time.monotonic() + (_STOP_GRACE_S if graceful else 0.0)
        for process, conn in workers:
            process.join(max(0.0, deadline - time.monotonic()))
            process.kill()
            process.join()
            process.close()
            conn.close()

    def map_arena(self) -> int:
        """Bring every worker's attach cache up to the arena's current
        slabs, so no sort task ever attaches: one message to each worker,
        answered when it has mapped them.  Returns 0 when the workers
        already hold them (a reused pool's steady state: this only has
        work after a lease regrew a slab or workers were replaced), else
        1.  A worker whose mapping failed is asked once more; after that
        its sort tasks attach what they find missing.  It is not part of
        any sort's phase program (no fault directive is drawn for it),
        but it runs inside the phase attempt that needs it, so a worker
        lost here is retried or raised like one lost in the phase; its
        attaches are reported with the next timed phase."""
        names = self.arena.slab_names
        if names == self._mapped:
            return 0
        handles = self.arena.handles()
        asked: list[tuple] = [handles] * self.n_workers
        for _ in range(2):
            replies, _slots = self._attempt(_map_slabs_task, asked)
            self._unreported_attaches += sum(att for att, _ in replies)
            if all(mapped for _, mapped in replies):
                break
            asked = [() if mapped else handles for _, mapped in replies]
        self._mapped = names
        return 1

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

    def _attempt(
        self, call: Callable[[Any], Any], payloads: list[Any]
    ) -> tuple[list[Any], list[int]]:
        """``call`` over ``payloads`` on the workers, once; returns the
        results in task order and the slot that ran each.  Raises on
        worker death, any task exception (once the tasks in flight have
        answered, so the workers stay in step) and -- under supervision
        -- a missed ``phase_timeout_s``."""
        if self.n_workers == 1:
            return [call(p) for p in payloads], [1] * len(payloads)
        if not self._workers:
            self._spawn()
        slot_of = {conn: slot for slot, (_, conn) in enumerate(self._workers, 1)}
        sentinels = [process.sentinel for process, _ in self._workers]
        deadline_s = self.phase_timeout_s if self.supervise else None
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        results: list[Any] = [None] * len(payloads)
        slots = [0] * len(payloads)
        free = list(slot_of)[::-1]  # a stack: worker 0 on top
        in_flight: dict[Connection, int] = {}
        failures: list[BaseException] = []
        sent = 0
        try:
            while True:
                while free and sent < len(payloads) and not failures:
                    conn = free.pop()
                    try:
                        conn.send((call, payloads[sent]))
                    except OSError as exc:
                        raise _WorkerDied() from exc
                    in_flight[conn], slots[sent] = sent, slot_of[conn]
                    sent += 1
                if not in_flight:
                    break
                ready = wait(
                    [*in_flight, *sentinels],
                    deadline and max(0.0, deadline - time.monotonic()),
                )
                if not ready:
                    raise _PhaseTimeout(
                        f"phase exceeded its {deadline_s:g}s supervised timeout"
                    )
                for conn in ready:
                    try:
                        index = in_flight.pop(conn)  # KeyError: a sentinel
                        ok, value = conn.recv()
                    except (KeyError, EOFError, OSError) as exc:
                        raise _WorkerDied() from exc
                    free.append(conn)
                    if ok:
                        results[index] = value
                    else:
                        failures.append(value)
        except BaseException:
            # Whatever cut the attempt short, workers may still hold its
            # tasks, and their replies must not meet the next attempt.
            self._stop_workers()
            raise
        if failures:
            raise failures[0]
        return results, slots

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
        wall_instant(
            f"fault.pool.{action}", "fault.pool", pid=PID_FAULTS, args=record
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
                len(tasks),
                allow_process_faults=(
                    allow and self.supervise and self.n_workers > 1
                ),
                allow_task_faults=allow,
            )
            issued_sites.extend(issued)
            try:
                self.map_arena()
                raw, slots = self._attempt(call, list(zip(tasks, directives)))
            except Exception as exc:
                if not self.supervise:
                    raise
                if attempt == retries:
                    raise PhaseError(label, attempt + 1, exc) from exc
                failures += 1
                shrink = failures >= SHRINK_AFTER
                self._note_failure(label, attempt, exc, shrink)
                self._stop_workers()  # the next attempt starts fresh ones
                if shrink and self.n_workers > MIN_WORKERS:
                    self.n_workers = max(MIN_WORKERS, self.n_workers // 2)
                time.sleep(RETRY_BACKOFF_S * (2.0**attempt))
                continue
            break
        end = time.perf_counter()
        if failures:
            wall_span(
                f"fault.pool.recovered:{label}", "fault.recovery", begin, end,
                pid=PID_FAULTS,
                args={
                    "attempts": attempt + 1,
                    "failures": failures,
                    "workers": self.n_workers,
                },
            )
        for site in issued_sites:
            recovered(site)
        if self.collect_timings or current_recorder().enabled:
            self._record_phase(label, begin, end, raw, slots)
        return [r for r, _t0, _t1, _att in raw]

    def _record_phase(
        self,
        label: str,
        begin: float,
        end: float,
        raw: list[tuple[Any, float, float, int]],
        slots: list[int],
    ) -> None:
        attaches = [att for _, _t0, _t1, att in raw]
        if attaches:
            attaches[0] += self._unreported_attaches
            self._unreported_attaches = 0
        timing = PhaseTiming(
            label, begin, end,
            tuple((t0, t1) for _, t0, t1, _att in raw),
            tuple(slots),
            tuple(attaches),
        )
        if self.collect_timings:
            self.timings.append(timing)
        if not current_recorder().enabled:
            return
        wall_span(
            label, "native.phase", begin, end, pid=PID_NATIVE, tid=POOL_TID,
            args={"tasks": len(raw), "attaches": sum(attaches)},
        )
        for slot, (t0, t1) in zip(slots, timing.tasks):
            wall_span(label, "native.task", t0, t1, pid=PID_NATIVE, tid=slot)

    # ------------------------------------------------------------------
    def close(self, force: bool = False) -> None:
        """Shut the pool down, reap its workers and unlink its arena.

        Workers are sent the stop message and joined, and whatever has
        not exited within a second is killed; ``force=True`` kills them
        outright -- used on the exception path so a failed phase cannot
        leak forked processes holding shared-memory references.
        """
        try:
            self._stop_workers(graceful=not force)
        finally:
            self._closed = True
            self.arena.close()

    def __enter__(self) -> "WorkerPool":
        if self._closed:
            raise RuntimeError("pool is closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(force=exc_type is not None)
