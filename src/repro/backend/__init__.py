"""Unified execution backends.

One seam over every execution substrate::

    from repro.backend import SortJob, get_backend

    job = SortJob(keys, algorithm="radix")
    sim = get_backend("sim").run(job)      # simulated Origin2000 time
    host = get_backend("native").run(job)  # real multiprocessing wall-clock

All backends return a :class:`SortResult` with identically sorted keys
and a :class:`~repro.smp.perf.PerfReport` in the paper's
BUSY/LMEM/RMEM/SYNC vocabulary; ``get_backend("predict")`` adds the
calibrated analytic model (milliseconds per job, no DES).
:meth:`Backend.run` is the one run path: each backend supplies only its
``_sort``.  Pass a
:class:`~repro.trace.MemoryRecorder` to ``run`` to capture a structured
trace exportable with :func:`repro.trace.write_chrome_trace`.
"""

from .base import (
    ALGORITHMS,
    Backend,
    SortJob,
    SortResult,
    check_keys,
    infer_key_bits,
)
from .native import NativeBackend, report_from_timings
from .simulated import DEFAULT_RADIX, SimulatedBackend


def _predicted_backend() -> Backend:
    # Imported lazily: repro.predict pulls in the experiment layer, which
    # imports this package.
    from ..predict.backend import PredictedBackend

    return PredictedBackend()


#: Registered backend constructors by public name (plus aliases).
#: Values are constructors; entries may be thunks resolved at lookup.
BACKENDS: dict[str, object] = {
    "sim": SimulatedBackend,
    "simulated": SimulatedBackend,
    "native": NativeBackend,
    "predict": _predicted_backend,
    "predicted": _predicted_backend,
}


def get_backend(name: str | Backend) -> Backend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(name, Backend):
        return name
    try:
        return BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from "
            f"{sorted(set(BACKENDS))}"
        ) from None


__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "Backend",
    "DEFAULT_RADIX",
    "NativeBackend",
    "SimulatedBackend",
    "SortJob",
    "SortResult",
    "check_keys",
    "get_backend",
    "infer_key_bits",
    "report_from_timings",
]
