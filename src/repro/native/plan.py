"""The planner: the one place that decides how an unpinned sort runs.

Shan & Singh's Tables 2/3 and radix-size sweeps (Figs 6/10) show the
winner flipping with data-set size and processor count, and on a small
host it is often one sequential ``np.sort``: the parallel path pays a
copy into shared memory, a result copy and a dispatch/barrier floor per
phase before it sorts anything.  :func:`plan` answers ``sequential`` /
``sample`` / ``radix`` with a worker width and a digit width, and every
dispatcher (:func:`repro.native.parallel_sort`, the serve engine, the
external sort's run formation) asks it.  A pinned algorithm is never
overridden: the plan then owns only the width cap (at least four keys
per worker; a width of 1 means "no pool, no segment").

An unpinned sort is priced by this host's :class:`HostModel`, which
``python -m repro tune`` probes into ``native_plan.json``
(:func:`load_model`): the cheapest of ``sample`` and ``radix`` at every
eligible digit width runs if it beats ``np.sort`` by more than the
model's measured error.  Without a model the answer is ``sequential``,
always -- a parallel answer is never guessed (docs/PERF.md,
"Crossover").  Radix is planned only for non-negative keys of a *signed*
integer dtype (the kernel is a signed-int64 path) of at most 63 bits.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from ..sorts.common import n_passes
from .kernels import BLOCK_ELEMS, NUMPY_KERNEL

ALGORITHMS = ("sequential", "sample", "radix")

#: Digit width of a radix sort nobody chose a width for (a pinned
#: ``algorithm="radix"`` without ``radix=``).
DEFAULT_RADIX = 11

#: Pool phases of one sample sort: local sort, merge.
SAMPLE_PHASES = 2


@dataclass(frozen=True)
class Plan:
    """How one sort runs: ``algorithm`` on ``width`` workers, ``radix``
    the digit width (radix sort only)."""

    algorithm: str
    width: int
    radix: int | None = None

    def phases(self, key_bits: int) -> int:
        """Pool phases this plan dispatches for ``key_bits``-bit keys
        (each probes the fault plan once per task)."""
        if self.width == 1 or self.algorithm == "sequential":
            return 0
        if self.algorithm == "sample":
            return SAMPLE_PHASES
        return 2 * n_passes(self.radix, key_bits)

    def public(self) -> dict:
        """The JSON shape spans, status replies and results carry."""
        return asdict(self)


#: The first-class third answer: one ``np.sort`` in the caller.
SEQUENTIAL = Plan("sequential", 1)


def full_bits(dtype: np.dtype) -> int:
    """``key_bits`` of keys that use their dtype's whole width: floats,
    and signed integers holding a negative key (two's complement spends
    the sign bit)."""
    return np.dtype(dtype).itemsize * 8


def radix_eligible(dtype: np.dtype, key_bits: int) -> bool:
    """Radix is planned for non-negative keys of a signed integer dtype
    (``key_bits`` short of the sign bit).  Unsigned dtypes are left to
    sample sort and ``np.sort``: the radix kernel shifts keys by an
    integer digit offset, and ``uint64 >> int64`` has no common integer
    type (NumPy before 2.0 refuses it even for a Python ``int`` shift)."""
    dtype = np.dtype(dtype)
    return dtype.kind == "i" and key_bits < full_bits(dtype)


def widest_radix(meta_bytes: int, p: int) -> int:
    """The widest digit whose ``p x 2**r`` int64 histogram fits a
    ``meta_bytes`` slab (negative when not even one bin per worker
    does): the serve layer's one rule for admitting a pinned digit
    width and for capping a planned one."""
    return (meta_bytes // (8 * p)).bit_length() - 1


def measure_key_bits(keys: np.ndarray) -> int:
    """Significant bits of the largest key (one fused min/max pass), or
    :func:`full_bits` for floats and for any negative key."""
    if keys.dtype.kind not in "iu" or not len(keys):
        return full_bits(keys.dtype)
    lo, hi = NUMPY_KERNEL.minmax(keys)
    return full_bits(keys.dtype) if lo < 0 else max(1, hi.bit_length())


# ----------------------------------------------------------------------
# The host model
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    """What a host model is only valid for: this CPU, this core count
    and this NumPy (``np.sort`` is the baseline)."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    cpu = re.search(r"^model name\s*:(.*)$", cpuinfo, re.M)
    return {
        "cpu_model": cpu[1].strip() if cpu else "unknown",
        "cpu_count": os.cpu_count(),
        "machine": os.uname().machine,
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class HostModel:
    """What each term of a sort costs on one host, as ``tune`` probed it
    (docs/PERF.md, "Crossover"); nanoseconds, ``B`` the key bytes.  The
    field set is ``native_plan.json``'s schema."""

    #: ``np.sort`` of ``n`` keys costs ``sort_ns * B * log2 n``.
    sort_ns: float
    #: Keys into a warm slab, and the result copy out into fresh pages,
    #: per byte.
    copy_in_ns: float
    copy_out_ns: float
    #: Each pool phase of a sort too small to do work: dispatch, barrier
    #: and the parent's share between phases.
    floor_ns: float
    #: Sample sort's merge: two sorted runs copied and timsorted, per key.
    merge_ns: float
    #: One radix pass: histogram and scatter per key, and each bucket
    #: per block of keys a worker walks (``_np_scatter``'s per-run work).
    histogram_ns: float
    scatter_ns: float
    bucket_ns: float
    #: Median ``|predicted / measured - 1|`` over ``tune``'s grid.
    residual: float
    host: dict

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            number = type(value) in (int, float) and 0 <= value < math.inf
            if name != "host" and not number:
                raise ValueError(f"{name} must be a non-negative number")

    def seconds(self, plan: Plan, n: int, key_bits: int, itemsize: int) -> float:
        """Predicted wall time of ``plan`` on ``n`` keys: work, copies
        and one floor per phase (a BSP superstep's ``L``), the work split
        over at most ``cpu_count`` workers."""
        nbytes = n * itemsize
        phases = plan.phases(key_bits)
        if not phases:
            return self.sort_ns * nbytes * math.log2(max(n, 2)) * 1e-9
        p = min(plan.width, self.host.get("cpu_count") or plan.width)
        per = n / p
        ns = (self.copy_in_ns + self.copy_out_ns) * nbytes + self.floor_ns * phases
        if plan.algorithm == "sample":
            ns += self.sort_ns * per * itemsize * math.log2(per)
            ns += self.merge_ns * per * math.log2(p)
        else:
            blocks = math.ceil(per / BLOCK_ELEMS)
            per_pass = (self.histogram_ns + self.scatter_ns) * per
            ns += phases // 2 * (per_pass + self.bucket_ns * (1 << plan.radix) * blocks)
        return ns * 1e-9


def default_model_path() -> Path:
    """Where ``tune`` writes and :func:`load_model` looks."""
    from ..core.gridcache import default_cache_dir  # core imports native

    return default_cache_dir() / "native_plan.json"


#: One-entry memo of the last file state read, ``(path, mtime, size)`` ->
#: model: a fresh ``tune`` is picked up, a bad file warns once per state.
_loaded: tuple[tuple[str, int, int], HostModel | None] | None = None


def load_model(path: str | os.PathLike | None = None) -> HostModel | None:
    """The host model at ``path`` (default ``<cache dir>/native_plan.json``,
    ``$REPRO_CACHE_DIR`` aware), or ``None``: every unpinned plan is then
    ``sequential``.  An artifact that is corrupt, that ``HostModel(**doc)``
    refuses, or from another host is ignored with one warning."""
    global _loaded
    path = Path(path) if path is not None else default_model_path()
    try:
        st = path.stat()
    except OSError:
        return None
    state = (str(path), st.st_mtime_ns, st.st_size)
    if _loaded is not None and _loaded[0] == state:
        return _loaded[1]
    try:
        model = HostModel(**json.loads(path.read_text()))
        if model.host != host_fingerprint():
            raise ValueError("measured on another host")
    except (OSError, ValueError, TypeError) as err:
        warnings.warn(
            f"ignoring native plan artifact {path}: {err}; unpinned sorts "
            "plan sequential (re-run `python -m repro tune`)",
            RuntimeWarning,
            stacklevel=2,
        )
        model = None
    _loaded = (state, model)
    return model


# ----------------------------------------------------------------------
# The decision
# ----------------------------------------------------------------------
def plan(
    n: int,
    p: int,
    key_bits: int,
    dtype: np.dtype | type | str,
    algorithm: str | None = None,
    max_radix: int = 20,
) -> Plan:
    """How to sort ``n`` keys of ``dtype`` whose largest needs
    ``key_bits`` bits (:func:`measure_key_bits`) with ``p`` workers
    available.  ``algorithm`` pins the answer's algorithm; ``max_radix``
    caps the digit width of a *planned* radix (the serve engine's meta
    slabs hold only so wide a histogram)."""
    dtype = np.dtype(dtype)
    width = max(1, min(p, n // 4))
    if algorithm is None:
        model = load_model() if width > 1 else None
        if model is None:
            return SEQUENTIAL
        # Widest digit first: a tie goes to the fewest passes.
        widths = range(min(max_radix, 20), 0, -1)
        if not radix_eligible(dtype, key_bits):
            widths = range(0)
        candidates = [Plan("sample", width), *(Plan("radix", width, r) for r in widths)]
        price = partial(model.seconds, n=n, key_bits=key_bits, itemsize=dtype.itemsize)
        best = min(candidates, key=price)
        wins = price(best) < (1 - model.residual) * price(SEQUENTIAL)
        return best if wins else SEQUENTIAL
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "sequential":
        return SEQUENTIAL
    return Plan(algorithm, width, DEFAULT_RADIX if algorithm == "radix" else None)


def plan_keys(
    keys: np.ndarray,
    p: int,
    algorithm: str | None = None,
    radix: int | None = None,
    max_radix: int = 20,
) -> Plan:
    """:func:`plan` for an actual key array; ``radix`` pins the digit
    width of a radix answer, ``max_radix`` caps a planned one.
    Measuring ``key_bits`` costs a pass over the keys, so it is paid
    only when the answer can depend on it: when radix would win on the
    narrowest keys (a radix price never falls as the keys widen)."""
    n, dtype = len(keys), keys.dtype
    if algorithm is not None:
        chosen = plan(n, p, full_bits(dtype), dtype, algorithm)
    else:
        chosen = plan(n, p, 1, dtype, max_radix=max_radix)
        if chosen.algorithm == "radix":
            chosen = plan(n, p, measure_key_bits(keys), dtype, max_radix=max_radix)
    if radix is not None and chosen.algorithm == "radix":
        chosen = replace(chosen, radix=radix)
    return chosen
