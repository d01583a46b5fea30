"""The pool's shared memory: a few persistent slabs, leased per sort.

A parallel sort needs two key-sized buffers (the double-buffered src/dst
pair) and, for radix, two small ones (histogram + offsets; sample sort
passes its run bounds as task arguments).  Creating them per sort means
two to four ``shm_open``/``mmap``/``shm_unlink`` round trips, 2n bytes of
first-touch page faults in the parent and the same again in every worker
in every phase -- the staging cost Shan & Singh remove from MPI, paid
before any kernel runs.  The arena removes it: every
:class:`~repro.native.pool.WorkerPool` owns one (``pool.arena``), the
sorts lease ndarray views into its slabs, and the workers reach a slab
through :func:`repro.native.shm.resolve`, which maps each slab once per
worker.  From the second sort on a reused pool, nothing is created,
attached or faulted.

An arena starts with no segment.  A lease that no free slab can hold
regrows the largest free slab to exactly the leased size: the old
generation is unlinked first (peak shared memory never holds both), the
new one carries the next ``_g<generation>`` name, and a worker that
resolves it drops its mapping of the old one -- so slabs grow to the
largest lease seen and a worker never maps more than one generation per
slab.  :meth:`Arena.reserve` instead sizes every slab up front and pins
the geometry: a reserved arena (the job server's) never regrows, and a
lease that does not fit raises :class:`JobTooLarge`.

Slabs carry a recognizable ``repro_slab_*`` name (instead of CPython's
anonymous ``psm_*``) so a leaked segment in ``/dev/shm`` is attributable;
the test suite's leak audit covers both prefixes.
"""

from __future__ import annotations

import os
import secrets
import threading

import numpy as np

from . import shm

#: Name prefix for arena slabs in /dev/shm (leak-audit greps for it).
SLAB_PREFIX = "repro_slab"

#: A sort holds the src/dst pair plus at most two metadata buffers
#: (radix: histogram and offsets; sample sort: none).
N_DATA, N_META = 2, 2


class ArenaError(RuntimeError):
    """Base class for arena failures."""


class ArenaExhausted(ArenaError):
    """Every slab that could hold the lease is in use (a leak, or two
    sorts sharing one pool at once)."""


class JobTooLarge(ArenaError):
    """A requested buffer exceeds every slab of a reserved arena."""


class _Slab:
    """One named segment and its successive generations."""

    def __init__(self, stem: str):
        self.stem = stem
        self.generation = 0
        self.sa: shm.SharedArray | None = None
        self.nbytes = 0
        self.in_use = False

    def drop(self) -> None:
        """Unlink the current generation, here and in this process's
        resolve cache; safe when there is none."""
        sa, self.sa, self.nbytes = self.sa, None, 0
        if sa is not None:
            shm.forget(sa.name)
            sa.close()

    def regrow(self, nbytes: int) -> None:
        self.drop()  # before the create: never hold both generations
        self.generation += 1
        self.sa = shm.allocate(
            (nbytes,), np.uint8,
            name=f"{self.stem}{shm.GENERATION_SEP}{self.generation}",
        )
        self.nbytes = nbytes


class SlabView:
    """One leased buffer: the parent's ndarray view into a slab, and the
    ``handle`` a pool task passes to :func:`repro.native.shm.resolve` to
    build the same view in a worker."""

    def __init__(self, slab: _Slab, shape: tuple[int, ...], dtype: np.dtype):
        self.name = slab.sa.name
        self.handle = (self.name, shape, dtype.str)
        self.array: np.ndarray = np.ndarray(shape, dtype=dtype, buffer=slab.sa.array)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SlabView {self.handle}>"


class Arena:
    """``N_DATA + N_META`` slabs with lease/release bookkeeping."""

    def __init__(self) -> None:
        stem = f"{SLAB_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
        self._slabs = [_Slab(f"{stem}_{i}") for i in range(N_DATA + N_META)]
        self._lock = threading.Lock()
        self._pinned = False
        self._closed = False
        #: Reserved capacities (0 until :meth:`reserve`).
        self.data_bytes = 0
        self.meta_bytes = 0
        self.leases = 0
        self.peak_in_use = 0

    def reserve(self, data_bytes: int, meta_bytes: int) -> "Arena":
        """Create every slab now -- ``N_DATA`` of ``data_bytes``, ``N_META``
        of ``meta_bytes`` -- and pin that geometry: no later lease creates
        or unlinks anything.  Leaves nothing behind if a create fails."""
        if data_bytes < 1 or meta_bytes < 1:
            raise ValueError("slab sizes must be positive")
        if self._closed:
            raise ArenaError("arena is closed")
        self.data_bytes, self.meta_bytes = int(data_bytes), int(meta_bytes)
        self._pinned = True
        try:
            for i, slab in enumerate(self._slabs):
                slab.regrow(self.data_bytes if i < N_DATA else self.meta_bytes)
        except BaseException:
            self.close()
            raise
        return self

    # ------------------------------------------------------------------
    @property
    def slab_names(self) -> tuple[str, ...]:
        """Block names of the slabs that currently have a segment."""
        return tuple(s.sa.name for s in self._slabs if s.sa is not None)

    def handles(self) -> tuple[tuple[str, tuple[int], str], ...]:
        """One 1-byte buffer handle per live slab: what a worker resolves
        to have the whole slab mapped."""
        return tuple((name, (1,), "|u1") for name in self.slab_names)

    @property
    def slab_sizes(self) -> tuple[int, ...]:
        return tuple(s.nbytes for s in self._slabs)

    def in_use(self) -> int:
        with self._lock:
            return sum(1 for s in self._slabs if s.in_use)

    # ------------------------------------------------------------------
    def lease(self, nbytes: int) -> _Slab:
        """The smallest free slab holding ``nbytes``; when none does, the
        largest free slab regrown to ``nbytes`` (never, once reserved)."""
        if self._closed:
            raise ArenaError("arena is closed")
        with self._lock:
            free = [s for s in self._slabs if not s.in_use]
            fits = [s for s in free if s.nbytes >= nbytes]
            if fits:
                slab = min(fits, key=lambda s: s.nbytes)
            elif self._pinned and max(self.slab_sizes) < nbytes:
                raise JobTooLarge(
                    f"{nbytes}-byte buffer exceeds the largest "
                    f"{max(self.slab_sizes)}-byte slab"
                )
            elif self._pinned or not free:
                raise ArenaExhausted(
                    f"no free slab for a {nbytes}-byte lease "
                    f"({len(self._slabs) - len(free)} of {len(self._slabs)} in use)"
                )
            else:
                slab = max(free, key=lambda s: s.nbytes)
                slab.regrow(nbytes)
            slab.in_use = True
            self.leases += 1
            self.peak_in_use = max(
                self.peak_in_use, len(self._slabs) - len(free) + 1
            )
            return slab

    def release(self, slab: _Slab) -> None:
        with self._lock:
            slab.in_use = False

    def buffers(self) -> "Lease":
        """A per-sort lease drawing from this arena."""
        return Lease(self)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every slab; safe to call twice and mid-``reserve``."""
        self._closed = True
        for slab in self._slabs:
            try:
                slab.drop()
            except OSError:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "Arena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "slabs": len(self.slab_names),
            "data_bytes": self.data_bytes,
            "meta_bytes": self.meta_bytes,
            "leases": self.leases,
            "in_use": self.in_use(),
            "peak_in_use": self.peak_in_use,
        }


class Lease:
    """The buffers of one sort: ``empty`` and ``from_array`` hand out slab
    views, ``release_all`` (or leaving the ``with`` block) returns every
    slab to the arena.  Nothing is unlinked; a slab's bytes are whatever
    its last holder left, so a sort must write every element it reads
    back."""

    def __init__(self, arena: Arena):
        self._arena = arena
        self._leased: list[_Slab] = []

    def empty(
        self, shape: tuple[int, ...] | int, dtype: np.dtype | type = np.int64
    ) -> SlabView:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        dtype = np.dtype(dtype)
        slab = self._arena.lease(max(1, int(np.prod(shape)) * dtype.itemsize))
        self._leased.append(slab)
        return SlabView(slab, shape, dtype)

    def from_array(self, source: np.ndarray) -> SlabView:
        view = self.empty(source.shape, source.dtype)
        view.array[...] = source
        return view

    def release_all(self) -> None:
        leased, self._leased = self._leased, []
        for slab in leased:
            self._arena.release(slab)

    def __enter__(self) -> "Lease":
        return self

    def __exit__(self, *exc) -> None:
        self.release_all()
