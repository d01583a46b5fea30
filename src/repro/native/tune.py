"""``python -m repro tune``: measure the table the planner reads.

The native analogue of the paper's radix-size sweeps (Figs 6/10): for
every key class and size, time one sequential ``np.sort`` against sample
sort and radix sort at each digit width on a reused pool of this host's
default width, best of a few repetitions, and write the milliseconds as
a host-fingerprinted ``native_plan.json``.  :func:`repro.native.plan.plan`
then answers unpinned sorts from the fastest eligible candidate of the
nearest cell instead of ``sequential`` every time.

Every cell is timed on the steady state a reused pool gives its callers:
the pool's arena is sized by the first repetition at each size (the one
sort that creates and faults the slabs in), and best-of-N discards it.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from . import parallel_radix_sort, parallel_sample_sort
from .plan import PlanTable, host_fingerprint
from .pool import WorkerPool, default_workers

#: Swept sizes, as log2 n.
SIZES = tuple(range(14, 23))
QUICK_SIZES = (14, 16, 18)

#: Swept key classes: (dtype, key_bits).  Copies scale with the key's
#: bytes and radix passes with its bits, so both are axes.
KEY_CLASSES = (("<i4", 16), ("<i4", 31), ("<i8", 16), ("<i8", 31), ("<i8", 63))
QUICK_KEY_CLASSES = (("<i8", 31),)

#: Digit widths tried for radix sort (the paper sweeps r the same way).
RADICES = (8, 11, 16)


def _best_ms(fn: Callable[[], object], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def sweep(quick: bool = False) -> PlanTable:
    """Run the sweep on a fresh pool of :func:`default_workers` workers."""
    p = default_workers()
    sizes = QUICK_SIZES if quick else SIZES
    rng = np.random.default_rng(0)
    cells: dict[tuple[int, int], dict[int, dict[str, float]]] = {}
    with WorkerPool(p) as pool:
        for dtype, bits in QUICK_KEY_CLASSES if quick else KEY_CLASSES:
            by_size = cells.setdefault((np.dtype(dtype).itemsize, bits), {})
            for lg in sizes:
                keys = rng.integers(0, 1 << bits, size=1 << lg, dtype=np.int64)
                keys = keys.astype(dtype)
                reps = 2 if quick else 3 if lg > 20 else 5
                ms = {
                    "sequential": _best_ms(lambda: np.sort(keys), reps),
                    "sample": _best_ms(
                        lambda: parallel_sample_sort(keys, pool=pool), reps
                    ),
                }
                for r in RADICES:
                    ms[f"radix{r}"] = _best_ms(
                        lambda: parallel_radix_sort(keys, pool=pool, radix=r),
                        reps,
                    )
                by_size[lg] = ms
    return PlanTable(p=p, cells=cells, host=host_fingerprint())


def format_table(table: PlanTable) -> str:
    """The sweep as text: one block per key class, one row per size."""
    lines = []
    for (itemsize, bits), by_size in sorted(table.cells.items()):
        names = list(next(iter(by_size.values())))
        lines.append(
            f"{itemsize}-byte keys, {bits} bits, {table.p} workers "
            "(best ms; * = planned)"
        )
        lines.append(
            f"  {'log2 n':>6} " + " ".join(f"{name:>11}" for name in names)
        )
        for lg, ms in sorted(by_size.items()):
            won = min(ms, key=ms.get)
            lines.append(
                f"  {lg:>6} "
                + " ".join(
                    f"{ms[name]:>10.2f}{'*' if name == won else ' '}"
                    for name in names
                )
            )
    return "\n".join(lines)
