"""Shared-memory NumPy arrays for the native parallel sorts.

The GIL makes thread-based shared-memory sorting pointless in Python (the
very reason this reproduction simulates the paper's machine), so the
native backend uses *processes* sharing buffers through
:mod:`multiprocessing.shared_memory`.  :class:`SharedArray` wraps the
block lifecycle: create, view as ndarray, attach from a worker by name,
and unlink exactly once.

Two fault sites live here (see :mod:`repro.faults` and docs/FAULTS.md):
``shm.create`` makes creation raise ENOSPC (the classic full ``/dev/shm``)
and ``shm.attach`` makes the next attach in this process raise EACCES.
:func:`allocate` / :func:`allocate_from` are the resilient allocation
front doors the sorts use: bounded retry with backoff, so a transient
creation failure degrades to a short stall instead of a failed sort.

Serving support (see :mod:`repro.serve`): every successful create and
every *fresh* attach bumps a process-local counter
(:func:`create_count` / :func:`attach_count`), which is how the job
server proves its steady-state path performs neither.  Long-lived worker
processes call :func:`enable_attach_cache` so repeat attaches to the
same named block (the server's arena slabs) reuse the existing mapping
instead of re-opening it -- a cache hit is not counted as an attach, and
``close()`` on a cached attachment keeps the mapping alive for the next
job.  :class:`SortBuffers` is the per-sort buffer-provider seam: the
default implementation allocates and unlinks per sort, while the serve
arena substitutes leased slab views so a sort touches no new segments.

Buffer shapes do not depend on the kernel (:mod:`repro.native.kernels`):
radix leases two data arrays plus the ``(p, nb)`` histogram/offset pair,
sample sort two data arrays plus splitter/counts/place metadata, and the
blocked kernels' per-block cursor state lives in ordinary worker-local
memory, never in a shared segment.
"""

from __future__ import annotations

import errno
import sys
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from ..faults.context import current_fault_plan
from ..trace import PID_FAULTS, current_recorder

#: Python 3.13+ grows ``SharedMemory(..., track=...)``; older versions
#: need the resource-tracker registration suppressed by monkey-patch.
_HAS_TRACK_PARAM = sys.version_info >= (3, 13)

#: Serializes the register monkey-patch on < 3.13: concurrent attaches
#: from several threads used to race on saving/restoring the original
#: function, which could leave the no-op permanently installed.
_ATTACH_LOCK = threading.Lock()

#: Pending injected attach failures in *this* process (armed by the pool's
#: per-task fault directives; consumed, one per attach, by ``SharedArray``).
_fail_attach_count = 0

#: Process-local lifetime counters: successful creations and *fresh*
#: attaches (cache hits do not count).  The serve layer diffs these to
#: assert a steady-state job touched no new shared memory.
_create_count = 0
_attach_count = 0

#: When enabled (long-lived pool workers via ``enable_attach_cache``),
#: fresh attaches are memoized by block name and reused across tasks.
_attach_cache_enabled = False
_attach_cache: dict[str, shared_memory.SharedMemory] = {}


def create_count() -> int:
    """Shared-memory blocks created by this process so far."""
    return _create_count


def attach_count() -> int:
    """Fresh (non-cached) attaches performed by this process so far."""
    return _attach_count


def enable_attach_cache(on: bool = True) -> None:
    """Memoize attaches by block name in this process.

    Installed as the pool-worker initializer by the job server: arena
    slab names are stable for the server's lifetime, so after the first
    task touching a slab every later attach is a cache hit (no ``shm_open``,
    no counter bump).  Disabling does not drop existing cached mappings;
    call :func:`detach_cached` for that.
    """
    global _attach_cache_enabled
    _attach_cache_enabled = on


def attach_cache_size() -> int:
    return len(_attach_cache)


def detach_cached() -> int:
    """Close every cached attachment; returns how many were dropped."""
    n = len(_attach_cache)
    for cached in _attach_cache.values():
        try:
            cached.close()
        except OSError:  # pragma: no cover - already gone
            pass
    _attach_cache.clear()
    return n


def fail_next_attach(n: int = 1) -> None:
    """Arm ``n`` injected ``shm.attach`` failures in this process."""
    global _fail_attach_count
    _fail_attach_count += n


def _consume_injected_attach_failure() -> None:
    global _fail_attach_count
    if _fail_attach_count > 0:
        _fail_attach_count -= 1
        raise OSError(
            errno.EACCES, "injected shm.attach failure (repro.faults)"
        )


def _maybe_injected_create_failure() -> None:
    plan = current_fault_plan()
    if plan is not None and plan.should("shm.create"):
        rec = current_recorder()
        if rec.enabled:
            rec.instant(
                "fault.shm.create",
                cat="fault.inject",
                ts_us=time.perf_counter() * 1e6,
                pid=PID_FAULTS,
            )
        raise OSError(
            errno.ENOSPC, "injected shm.create failure (repro.faults)"
        )


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach without registering with the resource tracker.

    CPython < 3.13 registers attachments with the resource tracker, which
    is shared with the parent under fork -- the worker's registration /
    unregistration then fights the owner's (bpo-38119).  Only the creating
    process should track the block.  On 3.13+ ``track=False`` says exactly
    that; earlier versions need ``resource_tracker.register`` swapped for
    a no-op during the attach, which must be lock-guarded: two threads
    attaching concurrently could otherwise each save the *other's* no-op
    as "the original" and leave registration permanently disabled.
    """
    if _HAS_TRACK_PARAM:
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:
        real_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = real_register


class SharedArray:
    """A NumPy array backed by a named shared-memory block."""

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.int64,
        name: str | None = None,
        create: bool = True,
    ):
        global _create_count, _attach_count
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(self.shape)) * self.dtype.itemsize)
        self._cached = False
        if create:
            _maybe_injected_create_failure()
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
            self._owner = True
            _create_count += 1
        else:
            if name is None:
                raise ValueError("attaching requires a block name")
            _consume_injected_attach_failure()
            cached = _attach_cache.get(name) if _attach_cache_enabled else None
            if cached is not None:
                self._shm = cached
                self._cached = True
            else:
                self._shm = _attach_untracked(name)
                _attach_count += 1
                if _attach_cache_enabled:
                    _attach_cache[name] = self._shm
                    self._cached = True
            self._owner = False
        self.array: np.ndarray = np.ndarray(
            self.shape, dtype=self.dtype, buffer=self._shm.buf
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def attach(
        cls, name: str, shape: tuple[int, ...] | int, dtype: np.dtype | type
    ) -> "SharedArray":
        """Attach to an existing block from a worker process."""
        return cls(shape, dtype, name=name, create=False)

    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedArray":
        """Create a shared copy of ``source``."""
        sa = cls(source.shape, source.dtype)
        sa.array[...] = source
        return sa

    def close(self) -> None:
        """Detach; the owner also unlinks the block.

        A cache-backed attachment (see :func:`enable_attach_cache`) only
        drops its ndarray view: the underlying mapping stays open for the
        next attach to the same name, released by :func:`detach_cached`
        or process exit.
        """
        # Drop the ndarray view first: SharedMemory.close() refuses while
        # exported buffers exist.
        self.array = None  # type: ignore[assignment]
        if self._cached and not self._owner:
            return
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked
                pass
            self._owner = False

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedArray {self.name} {self.shape} {self.dtype}>"


# ----------------------------------------------------------------------
# Resilient allocation
# ----------------------------------------------------------------------
def _alloc_with_retry(factory, retries: int, backoff_s: float) -> SharedArray:
    failures = 0
    for attempt in range(retries + 1):
        try:
            sa = factory()
        except OSError:
            failures += 1
            if attempt == retries:
                raise
            time.sleep(backoff_s * (2.0**attempt))
            continue
        if failures:
            plan = current_fault_plan()
            if plan is not None:
                plan.note_recovered("shm.create", failures)
            rec = current_recorder()
            if rec.enabled:
                rec.instant(
                    "fault.shm.create.recovered",
                    cat="fault.recovery",
                    ts_us=time.perf_counter() * 1e6,
                    pid=PID_FAULTS,
                    args={"retries": failures},
                )
        return sa
    raise AssertionError("unreachable")  # pragma: no cover


def allocate(
    shape: tuple[int, ...] | int,
    dtype: np.dtype | type = np.int64,
    *,
    name: str | None = None,
    retries: int = 2,
    backoff_s: float = 0.005,
) -> SharedArray:
    """Create a :class:`SharedArray`, retrying transient OS failures
    (full ``/dev/shm``, injected ``shm.create`` faults) with backoff.
    ``name`` pins the block name (the serve arena uses a recognizable
    ``repro_slab_*`` prefix so leaks are attributable)."""
    return _alloc_with_retry(
        lambda: SharedArray(shape, dtype, name=name), retries, backoff_s
    )


def allocate_from(
    source: np.ndarray, *, retries: int = 2, backoff_s: float = 0.005
) -> SharedArray:
    """Create a shared copy of ``source`` with the same retry policy."""
    return _alloc_with_retry(
        lambda: SharedArray.from_array(source), retries, backoff_s
    )


# ----------------------------------------------------------------------
# Per-sort buffer provider
# ----------------------------------------------------------------------
class SortBuffers:
    """Provides the named shared buffers one sort needs, releases them all.

    The native sorts ask this seam for their buffers instead of calling
    :func:`allocate` directly, so the execution substrate decides the
    lifecycle: this default implementation creates fresh blocks and
    unlinks them in ``release_all`` (the pre-existing behavior), while
    :class:`repro.serve.arena.ArenaBuffers` hands out views into
    preallocated slabs and merely returns the leases -- zero creates on
    the server's steady-state path.

    Whatever ``empty``/``from_array`` return exposes ``.name`` (a block
    name workers can attach) and ``.array`` (the parent's ndarray view).
    """

    def __init__(self) -> None:
        self._held: list[SharedArray] = []

    def empty(
        self, shape: tuple[int, ...] | int, dtype: np.dtype | type = np.int64
    ) -> SharedArray:
        sa = allocate(shape, dtype)
        self._held.append(sa)
        return sa

    def from_array(self, source: np.ndarray) -> SharedArray:
        sa = allocate_from(source)
        self._held.append(sa)
        return sa

    def release_all(self) -> None:
        """Release every buffer handed out; idempotent, exception-safe."""
        held, self._held = self._held, []
        first_err: BaseException | None = None
        for sa in reversed(held):
            try:
                sa.close()
            except BaseException as err:  # noqa: BLE001 - release them all
                first_err = first_err or err
        if first_err is not None:
            raise first_err
