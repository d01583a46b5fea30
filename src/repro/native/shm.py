"""Shared-memory NumPy arrays for the native parallel sorts.

The GIL makes thread-based shared-memory sorting pointless in Python (the
very reason this reproduction simulates the paper's machine), so the
native backend uses *processes* sharing buffers through
:mod:`multiprocessing.shared_memory`.  :class:`SharedArray` wraps the
block lifecycle: create, view as ndarray, and unlink exactly once;
workers reach a block by name through :func:`resolve`.

Two fault sites live here (see :mod:`repro.faults` and docs/FAULTS.md):
``shm.create`` makes creation raise ENOSPC (the classic full ``/dev/shm``)
and ``shm.attach`` makes the next attach in this process raise EACCES.
:func:`allocate` is the resilient allocation front door (the arena
creates every slab through it): the one bounded retry with backoff
(:func:`repro.faults.context.retry`), so a transient creation failure
degrades to a short stall instead of a failed sort.

Every successful create and every *fresh* attach bumps a process-local
counter (:func:`create_count` / :func:`attach_count`), which is how a
reused pool -- and the job server on top of it -- proves its steady-state
path performs neither.  Pool tasks never attach by hand: they receive
buffer *handles* ``(block name, shape, dtype)`` and turn each into an
ndarray with :func:`resolve`, which memoizes one mapping per arena slab
in the worker (:mod:`repro.native.arena`), so after a worker's first
task on a slab every later resolve is a dictionary lookup -- no
``shm_open``, no ``mmap``, no first-touch page faults.
"""

from __future__ import annotations

import errno
import sys
import threading
from multiprocessing import shared_memory

import numpy as np

from ..faults.context import fire, retry

#: Python 3.13+ grows ``SharedMemory(..., track=...)``; older versions
#: need the resource-tracker registration suppressed by monkey-patch.
_HAS_TRACK_PARAM = sys.version_info >= (3, 13)

#: Serializes the register monkey-patch on < 3.13: concurrent attaches
#: from several threads used to race on saving/restoring the original
#: function, which could leave the no-op permanently installed.
_ATTACH_LOCK = threading.Lock()

#: Pending injected attach failures in *this* process (armed by the pool's
#: per-task fault directives; consumed one per :func:`resolve`).
_fail_attach_count = 0

#: Process-local lifetime counters: successful creations and *fresh*
#: attaches (cache hits do not count).  Tests and the serve layer diff
#: these to assert a steady-state sort touched no new shared memory.
_create_count = 0
_attach_count = 0

#: This process's :func:`resolve` mappings: slab key (the block name
#: minus its ``_g<generation>`` suffix) -> (block name, mapping).  One
#: entry per slab ever seen, so the cache is bounded by the slab count.
GENERATION_SEP = "_g"
_attach_cache: dict[str, tuple[str, shared_memory.SharedMemory]] = {}


def create_count() -> int:
    """Shared-memory blocks created by this process so far."""
    return _create_count


def attach_count() -> int:
    """Fresh (non-cached) attaches performed by this process so far."""
    return _attach_count


def enable_attach_cache(on: bool = True) -> None:
    """Does nothing: :func:`resolve` caches in every process, so every
    pool worker has the attach cache without asking.  Kept because
    callers still pass it as ``WorkerPool(initializer=...)``."""


def _slab_key(name: str) -> str:
    return name.rpartition(GENERATION_SEP)[0] or name


def _close_quietly(mapping: shared_memory.SharedMemory) -> None:
    try:
        mapping.close()
    except (OSError, BufferError):  # pragma: no cover - gone / still viewed
        pass


def forget(name: str) -> None:
    """Drop this process's cached mapping of block ``name``'s slab, if
    any (the arena calls it on every block it unlinks, so a parent that
    ran tasks inline does not keep dead segments mapped)."""
    cached = _attach_cache.pop(_slab_key(name), None)
    if cached is not None:
        _close_quietly(cached[1])


def resolve(handle: tuple[str, tuple[int, ...], str]) -> np.ndarray:
    """The ndarray a buffer handle ``(block name, shape, dtype)`` names,
    through this process's attach cache -- the one way a pool task
    reaches shared memory.

    A hit is a dictionary lookup.  A miss attaches (counted by
    :func:`attach_count`) and replaces whatever older generation of the
    same slab was cached, closing its mapping.  The returned array is
    valid until the slab's next generation is resolved here, i.e. for
    the task that asked.  An injected ``shm.attach`` failure is consumed
    before the lookup, so it fires on a warm cache too.
    """
    global _attach_count
    name, shape, dtype = handle
    _consume_injected_attach_failure()
    key = _slab_key(name)
    cached = _attach_cache.get(key)
    if cached is None or cached[0] != name:
        if cached is not None:
            _close_quietly(cached[1])
        cached = _attach_cache[key] = (name, _attach_untracked(name))
        _attach_count += 1
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=cached[1].buf)


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
    """A NumPy array backed by a shared-memory block this process
    creates, and unlinks on :meth:`close`."""

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.int64,
        name: str | None = None,
    ):
        global _create_count
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(self.shape)) * self.dtype.itemsize)
        if fire("shm.create"):
            raise OSError(errno.ENOSPC, "injected shm.create failure (repro.faults)")
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
        self._owner = True
        _create_count += 1
        self.array: np.ndarray = np.ndarray(
            self.shape, dtype=self.dtype, buffer=self._shm.buf
        )

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Detach and unlink the block; safe to call twice."""
        # Drop the ndarray view first: SharedMemory.close() refuses while
        # exported buffers exist.
        self.array = None  # type: ignore[assignment]
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
def allocate(
    shape: tuple[int, ...] | int,
    dtype: np.dtype | type = np.int64,
    *,
    name: str | None = None,
) -> SharedArray:
    """Create a :class:`SharedArray`, retrying transient OS failures
    (full ``/dev/shm``, injected ``shm.create`` faults) under the one
    :func:`~repro.faults.context.retry` policy.  ``name`` pins the block name
    (the arena uses a recognizable ``repro_slab_*`` prefix so leaks are
    attributable)."""
    return retry(lambda: SharedArray(shape, dtype, name=name), "shm.create")
