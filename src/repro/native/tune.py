"""``python -m repro tune``: probe the constants the planner prices with.

Each probe times one term of :class:`~repro.native.plan.HostModel`, best
of five.  Then each candidate of a small grid runs through
:func:`repro.native.run_plan` on a reused pool of the default width,
predicted is printed beside measured, and the median ``|predicted /
measured - 1|`` is saved as the model's residual: the margin a parallel
plan must win by.
"""

from __future__ import annotations

import json
import math
import statistics
import timeit
from dataclasses import asdict
from pathlib import Path
from typing import Callable

import numpy as np

from . import run_plan
from .kernels import BLOCK_ELEMS, NUMPY_KERNEL
from .plan import (
    DEFAULT_RADIX, SAMPLE_PHASES, SEQUENTIAL, HostModel, Plan, host_fingerprint,
)
from .pool import WorkerPool, default_workers

#: The validation grid: int64 keys below 2**31, at these log2 n.
GRID = (14, 16, 18, 20)


def _best_ns(fn: Callable[[], object]) -> float:
    return min(timeit.repeat(fn, number=1, repeat=5)) * 1e9


def _radix_pass_ns(src: np.ndarray, out: np.ndarray, r: int) -> tuple[float, float]:
    """Histogram and scatter (into ``out``) ns of an ``r``-bit pass."""
    mask = (1 << r) - 1
    counts = NUMPY_KERNEL.histogram(src, 0, mask)
    cursor = np.cumsum(counts) - counts
    return (_best_ns(lambda: NUMPY_KERNEL.histogram(src, 0, mask)),
            _best_ns(lambda: NUMPY_KERNEL.scatter(src, out, cursor.copy(), 0, mask)))


def probe(pool: WorkerPool, keys: np.ndarray) -> dict[str, float]:
    """Every constant of the model but its residual, in nanoseconds,
    probed on ``keys`` (int64, below 2**31)."""
    n, nbytes, out = len(keys), keys.nbytes, keys.copy()
    runs = np.concatenate((np.sort(keys[: n // 2]), np.sort(keys[n // 2 :])))
    kept: list[np.ndarray] = []  # result copies stay alive: fresh pages
    tiny, sample = keys[:1024], Plan("sample", pool.n_workers)
    histogram, scatter = _radix_pass_ns(keys, out, DEFAULT_RADIX)
    block = keys[:BLOCK_ELEMS]
    wide, narrow = (sum(_radix_pass_ns(block, out, r)) for r in (16, 8))
    return {
        "sort_ns": _best_ns(lambda: np.sort(keys)) / (nbytes * math.log2(n)),
        "copy_in_ns": _best_ns(lambda: np.copyto(out, keys)) / nbytes,
        "copy_out_ns": _best_ns(lambda: kept.append(keys.copy())) / nbytes,
        "floor_ns": _best_ns(lambda: run_plan(tiny, sample, pool=pool))
        / SAMPLE_PHASES,
        "merge_ns": _best_ns(
            lambda: (np.copyto(out, runs), out.sort(kind="stable"))
        ) / n,
        "histogram_ns": histogram / n,
        "scatter_ns": scatter / n,
        "bucket_ns": max(0.0, (wide - narrow) / ((1 << 16) - (1 << 8))),
    }


def tune(path: Path) -> HostModel:
    """Probe, print the validation grid, and save the model to ``path``."""
    keys = np.random.default_rng(0).integers(0, 1 << 31, 1 << GRID[-1], dtype=np.int64)
    errors: list[float] = []
    print("log2 n  plan        predicted ms  measured ms  error")
    with WorkerPool(default_workers()) as pool:
        constants, p = probe(pool, keys), pool.n_workers
        model = HostModel(**constants, residual=0.0, host=host_fingerprint())
        for lg in GRID:
            part = keys[: 1 << lg]
            for chosen in (SEQUENTIAL, Plan("sample", p), Plan("radix", p, 11)):
                measured = _best_ns(lambda: run_plan(part, chosen, pool=pool)) / 1e6
                predicted = model.seconds(chosen, len(part), 31, 8) * 1e3
                errors.append(predicted / measured - 1)
                name = chosen.algorithm + str(chosen.radix or "")
                print(f"{lg:>6}  {name:<10} {predicted:>13.2f} "
                      f"{measured:>12.2f} {errors[-1]:>+6.0%}")
    doc = {**asdict(model), "residual": statistics.median(map(abs, errors))}
    print(f"median residual {doc['residual']:.0%}; "
          + ", ".join(f"{k} {v:.3g}" for k, v in constants.items()))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return HostModel(**doc)
