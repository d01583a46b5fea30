"""Workload statistics for the analytic predictor.

The predictor runs the simulated sorters' own phase program
(:func:`repro.sorts.drive`); what it needs from the *workload* is the
small set of statistics those phases consume
(:class:`~repro.sorts.common.WorkloadStats`): per-pass expected
histograms and communication matrices, write-stream locality, active
bucket counts, and -- for sample sort -- the splitter-induced
distribution matrix.  Given a key array, :func:`repro.sorts.measure` --
the simulator's own data-plane walk -- measures them exactly; this
module derives them without one:

- :func:`uniform_stats`: closed form for uniform random keys.  Every
  per-process histogram is ~``n/(p * 2^r)`` per bucket, the permutation
  moves ``4n/p^2`` bytes between every pair, chunk counts follow the
  Poisson occupancy ``cells * (1 - exp(-lambda))``, and destination
  locality is ``2^-r``.  No key array is ever materialized, so this path
  is O(p^2) per pass regardless of ``n``.
- :func:`family_stats`: statistics of a *distribution family* by name:
  a small deterministic model draw (the grid runner's ``actual_size``
  cap) is generated and measured.  This is how a paper-scale prediction
  (256M keys) derives its expected histograms from the ``RunSpec``
  distribution in milliseconds.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..data.distributions import KEY_BITS
from ..params import ELEM_BYTES, elem_bytes_for
from ..sorts.common import (
    CommMatrices,
    LocalSortStats,
    RadixPassStats,
    WorkloadStats,
    check_workload,
    n_passes,
)
from ..sorts.program import measure
from ..verify.context import current_sanitizer

#: Functional model-draw cap for family statistics -- the experiment
#: grid's default ``max_actual``.
DEFAULT_MAX_ACTUAL = 1 << 18


# ----------------------------------------------------------------------
# Closed-form uniform statistics
# ----------------------------------------------------------------------
def uniform_radix_comm(
    n: int, p: int, radix: int, elem_bytes: int = ELEM_BYTES
) -> CommMatrices:
    """Expected traffic of one radix pass over uniform random keys."""
    nb = 1 << radix
    bytes_m = np.full((p, p), n / (p * p) * elem_bytes)
    # Cells per (source, destination) block and their expected occupancy.
    cells = nb / p
    lam = n / (p * nb)  # expected keys per (process, digit) cell
    occupied = cells * (1.0 - math.exp(-lam)) if lam < 30 else cells
    # Non-zero traffic travels in at least one chunk (the sanitizer's
    # comm.chunkless-traffic invariant).
    chunks = np.full((p, p), max(occupied, 1.0))
    return CommMatrices(bytes_m, chunks)


def _uniform_active(n_keys: float, nb: int) -> int:
    """Expected occupied digit values of ``n_keys`` uniform keys."""
    lam = n_keys / nb
    occupied = nb * (1.0 - math.exp(-lam)) if lam < 30 else float(nb)
    return max(1, int(round(occupied)))


def uniform_stats(
    algorithm: str,
    n: int,
    p: int,
    radix: int,
    key_bits: int = KEY_BITS,
) -> WorkloadStats:
    """Closed-form statistics for uniform random keys (no key array)."""
    check_workload(algorithm, n, p, radix)
    nb = 1 << radix
    passes = n_passes(radix, key_bits)
    elem_bytes = elem_bytes_for(key_bits)
    n_per = n // p
    san = current_sanitizer()
    if algorithm == "radix":
        comm = uniform_radix_comm(n, p, radix, elem_bytes)
        if san is not None:
            san.on_comm(
                comm.bytes_matrix,
                comm.chunks_matrix,
                row_bytes=float(n_per * elem_bytes),
                col_bytes=float(n_per * elem_bytes),
                where="predict.uniform-comm",
            )
        pass_stats = RadixPassStats(
            comm=comm,
            locality=1.0 / nb,
            active_buckets=_uniform_active(float(n), nb),
        )
        return WorkloadStats(
            algorithm, n, p, radix, key_bits, passes,
            radix_passes=(pass_stats,) * passes,
        )

    counts = np.full(p, float(n_per))
    local = LocalSortStats(
        counts=counts,
        actives=np.full((passes, p), _uniform_active(float(n_per), nb)),
        localities=np.full((passes, p), 1.0 / nb),
    )
    # Phase 4: splitters carve near-equal ranges; one chunk per pair.
    dist_bytes = np.full((p, p), n_per / p * elem_bytes)
    distribute = CommMatrices(dist_bytes, np.ones((p, p)))
    if san is not None:
        san.on_comm(
            distribute.bytes_matrix,
            distribute.chunks_matrix,
            row_bytes=float(n_per * elem_bytes),
            col_bytes=None,
            where="predict.uniform-distribute",
        )
    return WorkloadStats(
        algorithm, n, p, radix, key_bits, passes,
        local1=local, local2=local, distribute=distribute,
    )


# ----------------------------------------------------------------------
# Family statistics (model draw of a named distribution)
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def family_stats(
    distribution: str,
    algorithm: str,
    n: int,
    p: int,
    radix: int,
    key_bits: int = KEY_BITS,
    seed: int = 1,
    max_actual: int = DEFAULT_MAX_ACTUAL,
) -> WorkloadStats:
    """Expected statistics of a named distribution family at labeled size
    ``n``: a deterministic model draw at the grid runner's functional cap
    is generated and measured.  ``distribution=None``/``"random"`` short-
    circuits to the closed uniform form.

    Memoized: the statistics are model-independent, so a sweep over all
    five programming models pays for each draw once.
    """
    if distribution is None or distribution == "random":
        return uniform_stats(algorithm, n, p, radix, key_bits)
    from ..core.experiment import actual_size
    from ..data import generate

    check_workload(algorithm, n, p, radix)
    n_model = actual_size(n, max_actual, floor=p * p)
    keys = generate(distribution, n_model, p, radix=radix, seed=seed)
    return measure(keys, algorithm, p, radix, n_labeled=n, key_bits=key_bits)[0]
