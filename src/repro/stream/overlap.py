"""One background I/O thread, so the stream path's disk work overlaps
the caller's sorting.

An external sort alternates work that needs the calling thread -- the
chunk sort, a merge step's block sort -- with I/O that does not: reading
the next input chunk, a run spill's CRC and write, reading and
CRC-checking a run's next frame.  Every one of those calls releases the
GIL (``np.sort`` does too), so an :class:`IOThread` runs the I/O on the
second core while the caller sorts.  Two shapes cover the whole path:

- :meth:`IOThread.behind` -- *write-behind*: start ``fn(*args)`` on the
  thread and return.  At most one call is in flight: the next
  :meth:`~IOThread.behind` (or :meth:`~IOThread.wait`) first waits for
  the previous one and re-raises its error in the caller.
- :meth:`IOThread.ahead` -- *read-ahead*: the next buffer is already
  being filled on the thread while the caller works on the current one.

Each shape holds one item beyond what the caller holds (one sorted
chunk, one frame per merge input).  Buffers are allocated in the
caller's thread: what the I/O thread allocated would be freed into its
own malloc arena and stay resident after the sort (and in every worker
process forked after it).  Calls run one at a time in the order
they were issued, so each ``spill.*`` fault site is still probed in a
deterministic order.  :attr:`IOThread.wait_s` is how long the caller
sat blocked on the thread: the I/O the overlap did not hide.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterator, TypeVar

import numpy as np

_T = TypeVar("_T")


def _settle(fut: Future) -> None:
    """Wait ``fut`` out (unless it never started), dropping its result
    or error: for unwinding, when the caller already has an error."""
    if not fut.cancel():
        try:
            fut.result()
        except BaseException:
            pass


class IOThread:
    """A lazily started single background thread (see module doc)."""

    def __init__(self) -> None:
        self._ex: ThreadPoolExecutor | None = None
        self._behind: Future | None = None
        self.wait_s = 0.0

    def _submit(self, fn: Callable, *args) -> Future:
        if self._ex is None:
            self._ex = ThreadPoolExecutor(1, thread_name_prefix="repro-stream-io")
        return self._ex.submit(fn, *args)

    def _result(self, fut: Future):
        t0 = time.perf_counter()
        try:
            return fut.result()
        finally:
            self.wait_s += time.perf_counter() - t0

    def behind(self, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` on the thread once the call in flight is
        done; re-raises that call's error instead of starting this one."""
        self.wait()
        self._behind = self._submit(fn, *args)

    def wait(self) -> None:
        """Block until the :meth:`behind` call in flight is done."""
        fut, self._behind = self._behind, None
        if fut is not None:
            self._result(fut)

    def ahead(
        self,
        fill: Callable[[np.ndarray], _T | None],
        alloc: Callable[[], np.ndarray],
    ) -> Iterator[_T]:
        """``fill(alloc())`` until it returns ``None``: each ``fill`` runs
        on the thread while the caller works on the item before it, each
        ``alloc`` in the caller's thread.  Closing the iterator early
        waits for the fill in flight, so the source may close right
        after."""
        nxt = self._submit(fill, alloc())
        try:
            while True:
                item = self._result(nxt)
                if item is None:
                    return
                nxt = self._submit(fill, alloc())
                yield item
        finally:
            _settle(nxt)

    def close(self) -> None:
        """Wait out the call in flight, dropping its error, and stop the
        thread; idempotent."""
        fut, self._behind = self._behind, None
        if fut is not None:
            _settle(fut)
        if self._ex is not None:
            self._ex.shutdown(wait=True)
            self._ex = None
