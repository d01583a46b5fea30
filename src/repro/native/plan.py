"""The planner: the one place that decides how an unpinned sort runs.

Shan & Singh's Tables 2/3 and radix-size sweeps (Figs 6/10) show the
winning algorithm flipping with data-set size and processor count, and
on a small host the winner is often neither of the paper's algorithms
but one sequential ``np.sort``: the parallel path pays a copy into
shared memory, a result copy and a dispatch/barrier floor per phase
before it sorts anything.  :func:`plan` therefore answers with one of
``sequential`` / ``sample`` / ``radix``, a worker width and a digit
width, and every dispatcher (:func:`repro.native.parallel_sort`, the
serve engine, the external sort's run formation) asks it instead of
carrying a default of its own.

A caller that names an algorithm is never overridden: for a pinned
algorithm the plan owns only the degenerate width cap (at least four
keys per worker; a width of 1 means "no pool, no segment").

The unpinned answer is *measured* when ``python -m repro tune`` has
written ``native_plan.json`` for this host (:func:`load_table`: explicit
path -> ``<cache dir>/native_plan.json``, ``$REPRO_CACHE_DIR`` aware);
the table is used for the pool width it was swept at.  Without one the
built-in rule answers ``sequential``, always: no cell measured so far
has a parallel sort clearly ahead of ``np.sort`` (docs/PERF.md,
"Crossover" and "Sample sort in two phases"), so a parallel answer is
never guessed, only measured.  Radix is planned only for non-negative
keys of a *signed* integer dtype -- the kernel is a signed-int64 path
-- of at most 63 bits.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..sorts.common import n_passes
from .kernels import NUMPY_KERNEL

ALGORITHMS = ("sequential", "sample", "radix")

#: Digit width of a radix sort nobody chose a width for (a pinned
#: ``algorithm="radix"`` without ``radix=``).
DEFAULT_RADIX = 11

#: Pool phases of one sample sort: local sort, merge.
SAMPLE_PHASES = 2

#: 6: the host fingerprint no longer names a kernel (there is one).  A
#: version-5 table's timings hold, but its host carries that name; a
#: version-4 table was swept on the four-phase sample sort, which reads
#: it too slow (version 3: the r = 11 radix candidates ~10 % too slow, on
#: the stable-argsort grouping; version 2: every parallel candidate
#: ~0.6 ms per phase too slow, through ``multiprocessing.Pool``); an
#: older table is ignored (one warning) until ``python -m repro tune`` is
#: re-run.
TABLE_VERSION = 6
TABLE_NAME = "native_plan.json"

#: Names a table cell may time: an algorithm, radix with its digit width.
_CANDIDATE = re.compile(r"sequential|sample|radix([1-9]|1[0-9]|20)")


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
# The measured table
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    """What a measured table is only valid for: this CPU, this core
    count and this NumPy (``np.sort`` is the baseline)."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "machine": os.uname().machine,
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class PlanTable:
    """``tune``'s sweep: best-of-N milliseconds per candidate
    (``sequential``, ``sample``, ``radix<r>``) for every swept
    ``(itemsize, key_bits, log2 n)`` cell, on a pool of ``p`` workers."""

    p: int
    #: ``(itemsize, key_bits) -> {log2 n -> {candidate -> ms}}``
    cells: dict[tuple[int, int], dict[int, dict[str, float]]]
    host: dict

    def best(
        self, n: int, key_bits: int, dtype: np.dtype, max_radix: int = 20
    ) -> tuple[str, int | None] | None:
        """Fastest eligible candidate as ``(algorithm, radix)`` for the
        nearest swept cell (radix only for :func:`radix_eligible` keys,
        at digit widths up to ``max_radix``); ``None`` when no cell
        covers the keys.  Below the smallest swept size nothing was
        measured and nothing parallel is worth its floor:
        ``sequential``."""
        widths = sorted(
            b for size, b in self.cells if size == dtype.itemsize
        )
        if not widths:
            return None
        if not radix_eligible(dtype, key_bits):
            max_radix = 0
        bits = next((b for b in widths if b >= key_bits), widths[-1])
        by_size = self.cells[dtype.itemsize, bits]
        lg = min(round(math.log2(n)), max(by_size))
        if lg < min(by_size):
            return "sequential", None
        timed = {
            name: ms
            for name, ms in by_size[min(by_size, key=lambda s: abs(s - lg))].items()
            if not name.startswith("radix")
            or int(name.removeprefix("radix")) <= max_radix
        }
        name = min(timed, key=timed.get)
        if name.startswith("radix"):
            return "radix", int(name.removeprefix("radix"))
        return name, None

    def to_json(self) -> dict:
        return {
            "version": TABLE_VERSION,
            "host": self.host,
            "p": self.p,
            "cells": [
                {"itemsize": size, "key_bits": bits, "log2n": lg, "ms": ms}
                for (size, bits), by_size in sorted(self.cells.items())
                for lg, ms in sorted(by_size.items())
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PlanTable":
        if doc.get("version") != TABLE_VERSION:
            raise ValueError(
                f"schema version {doc.get('version')!r}, expected {TABLE_VERSION}"
            )
        if doc.get("host") != host_fingerprint():
            raise ValueError("measured on another host")
        cells: dict[tuple[int, int], dict[int, dict[str, float]]] = {}
        for cell in doc["cells"]:
            ms = {str(k): float(v) for k, v in cell["ms"].items()}
            if "sequential" not in ms:
                raise ValueError("cell without a sequential baseline")
            for name in ms:
                if not _CANDIDATE.fullmatch(name):
                    raise ValueError(f"unknown candidate {name!r}")
            cells.setdefault(
                (int(cell["itemsize"]), int(cell["key_bits"])), {}
            )[int(cell["log2n"])] = ms
        return cls(p=int(doc["p"]), cells=cells, host=doc["host"])

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n")
        return path


def default_table_path() -> Path:
    """Where ``tune`` writes and :func:`load_table` looks."""
    from ..core.gridcache import default_cache_dir  # core imports native

    return default_cache_dir() / TABLE_NAME


#: One-entry memo of the last file state read: ``(path, mtime, size)``
#: -> table.  Keyed on the file's state, so a fresh ``tune`` is picked up
#: and a bad file warns once, not once per sort.
_loaded: tuple[tuple[str, int, int], PlanTable | None] | None = None


def load_table(path: str | os.PathLike | None = None) -> PlanTable | None:
    """The measured table for this host, or ``None`` (every unpinned
    plan is then ``sequential``).  An artifact that is corrupt, of another schema version or
    from another host is ignored with one warning."""
    global _loaded
    path = Path(path) if path is not None else default_table_path()
    try:
        st = path.stat()
    except OSError:
        return None
    state = (str(path), st.st_mtime_ns, st.st_size)
    if _loaded is not None and _loaded[0] == state:
        return _loaded[1]
    try:
        table = PlanTable.from_json(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        warnings.warn(
            f"ignoring native plan artifact {path}: {err}; unpinned sorts "
            "plan sequential (re-run `python -m repro tune`)",
            RuntimeWarning,
            stacklevel=2,
        )
        table = None
    _loaded = (state, table)
    return table


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
    radix = None
    if algorithm is None:
        table = load_table() if width > 1 else None
        found = None
        if table is not None and table.p == p:
            found = table.best(n, key_bits, dtype, max_radix)
        algorithm, radix = found or ("sequential", None)
    elif algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    elif algorithm == "radix":
        radix = DEFAULT_RADIX
    return SEQUENTIAL if algorithm == "sequential" else Plan(algorithm, width, radix)


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
    narrowest keys."""
    n, dtype = len(keys), keys.dtype
    if algorithm is not None:
        chosen = plan(n, p, full_bits(dtype), dtype, algorithm)
    else:
        chosen = plan(n, p, 1, dtype, max_radix=max_radix)
        if chosen.algorithm == "radix":
            chosen = plan(
                n, p, measure_key_bits(keys), dtype, max_radix=max_radix
            )
    if radix is not None and chosen.algorithm == "radix":
        chosen = replace(chosen, radix=radix)
    return chosen
