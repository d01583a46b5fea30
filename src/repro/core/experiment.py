"""Experiment grid runner.

Defines :class:`RunSpec` -- one cell of the paper's evaluation grid
(algorithm x model x labeled size x processor count x radix x key
distribution) -- and executes it on the simulated machine (or, with
``backend="predict"``, on the calibrated analytic predictor), with two
layers of caching so that figure/table harnesses sharing cells (e.g.
Table 2 and Table 3) pay for each run once per *machine*, not once per
invocation:

- an in-process memo (``run(spec) is run(spec)``), and
- a content-addressed on-disk cache (:mod:`repro.core.gridcache`,
  default ``~/.cache/repro`` / ``$REPRO_CACHE_DIR``) keyed by the spec,
  the machine configuration, the cost-model calibration and a
  fingerprint of the package source, so stale results are never served.

:meth:`ExperimentRunner.run_many` additionally fans independent grid
cells out over worker processes (:func:`fan_out`, the package's one
process fan-out; workers share the disk cache and the parent merges
results into the memo), emitting one :mod:`repro.trace` span per cell
for progress monitoring.

Labeled-vs-actual sizing: the functional arrays run at the largest
power-of-two fraction of the labeled size not exceeding ``max_actual``
(default 256K keys); the performance model sees labeled sizes throughout
(see ``repro.sorts.common`` for the chunk extrapolation).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..backend import Backend, SimulatedBackend, SortJob, get_backend
from ..data.distributions import KEY_BITS, generate
from ..machine.config import MachineConfig
from ..machine.costs import CostModel, DEFAULT_COSTS
from ..machine.zoo import MACHINES, get_machine
from ..native.pool import default_start_method
from ..sorts.radix import SortOutcome
from ..sorts.sequential import (
    SequentialResult,
    default_sequential_machine,
    sequential_radix_sort,
)
from ..trace import PID_GRID, current_recorder, wall_span
from .gridcache import GridCache

#: The paper's labeled data-set sizes.
SIZES: dict[str, int] = {
    "1M": 1 << 20,
    "4M": 1 << 22,
    "16M": 1 << 24,
    "64M": 1 << 26,
    "256M": 1 << 28,
}
SIZE_ORDER = ["1M", "4M", "16M", "64M", "256M"]
PROC_COUNTS = [16, 32, 64]

#: Models per algorithm (the paper's grid; sample sort has no CC-SAS-NEW
#: variant -- its distribution phase is already chunk-contiguous).
RADIX_MODELS = ("ccsas", "ccsas-new", "mpi-new", "mpi-sgi", "shmem")
SAMPLE_MODELS = ("ccsas", "mpi-new", "mpi-sgi", "shmem")
#: The grid's algorithm -> models pairing, in cell order.
ALGORITHM_MODELS = (("radix", RADIX_MODELS), ("sample", SAMPLE_MODELS))


def machine_model(machine: str) -> str:
    """A programming model whose transports ``machine`` supports (the
    AP1000 has no remote loads, so only message passing runs there)."""
    return "mpi-new" if machine == "ap1000" else "shmem"


def paper_page_bytes(n_labeled: int) -> int:
    """The paper's tuned page size: 64 KB up to 64M keys, 256 KB for 256M."""
    return 256 * 1024 if n_labeled >= SIZES["256M"] else 64 * 1024


def actual_size(n_labeled: int, max_actual: int, floor: int = 1) -> int:
    """Functional array size: halve ``n_labeled`` until it fits
    ``max_actual``, never dropping below ``floor`` (the divisibility
    requirement of whoever consumes the array -- ``p**2`` for the
    parallel bucket distribution, 1 for the sequential baseline).

    Both :attr:`RunSpec.n_actual` and the sequential baseline use this
    one helper so that a parallel run and its speedup denominator sample
    identically sized arrays.
    """
    n = n_labeled
    while n > max_actual and n % 2 == 0 and n // 2 >= floor:
        n //= 2
    return n


@dataclass(frozen=True)
class RunSpec:
    """One grid cell of the evaluation."""

    algorithm: str  # "radix" | "sample"
    model: str  # "ccsas" | "ccsas-new" | "mpi-new" | "mpi-sgi" | "shmem"
    n_labeled: int
    n_procs: int
    radix: int
    distribution: str = "gauss"
    seed: int = 1
    max_actual: int = 1 << 18
    #: Machine-zoo member to simulate on (see ``repro.machine.zoo``).
    machine: str = "origin2000"

    def __post_init__(self) -> None:
        if self.algorithm not in ("radix", "sample"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n_labeled <= 0 or self.n_procs <= 0:
            raise ValueError("sizes must be positive")
        if self.n_labeled % self.n_procs != 0:
            raise ValueError("labeled size must divide evenly over processors")
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r}; choose from "
                f"{sorted(MACHINES)}"
            )

    @property
    def n_actual(self) -> int:
        """Functional array size, keeping divisibility by p**2 (the
        bucket distribution needs n/p**2 sub-blocks)."""
        return actual_size(
            self.n_labeled, self.max_actual, floor=self.n_procs * self.n_procs
        )

    @property
    def scale(self) -> int:
        return self.n_labeled // self.n_actual

    def size_label(self) -> str:
        for label, value in SIZES.items():
            if value == self.n_labeled:
                return label
        if self.n_labeled % (1 << 20) == 0:
            return f"{self.n_labeled >> 20}M"
        return str(self.n_labeled)

    def cell_label(self) -> str:
        """Compact human-readable label for progress spans and logs."""
        base = (
            f"{self.algorithm}/{self.model} {self.size_label()} "
            f"p={self.n_procs} r={self.radix} {self.distribution}"
        )
        if self.machine != "origin2000":
            base += f" @{self.machine}"
        return base


def _cell_span(spec: RunSpec, t0: float, source: str) -> None:
    """One ``grid.cell`` span from ``t0`` to now (label built only when
    tracing)."""
    if current_recorder().enabled:
        wall_span(
            spec.cell_label(), "grid.cell", t0, pid=PID_GRID,
            args={"source": source},
        )


def _spec_machine(spec: RunSpec) -> MachineConfig:
    return get_machine(
        spec.machine,
        n_procs=spec.n_procs,
        page_bytes=paper_page_bytes(spec.n_labeled),
    )


def _compute_outcome(
    spec: RunSpec,
    costs: CostModel,
    keys: np.ndarray,
    backend: Backend | None = None,
) -> SortOutcome:
    result = (backend or SimulatedBackend()).run(
        SortJob(
            keys=keys,
            algorithm=spec.algorithm,
            model=spec.model,
            n_procs=spec.n_procs,
            radix=spec.radix,
            machine=_spec_machine(spec),
            costs=costs,
            n_labeled=spec.n_labeled,
            key_bits=KEY_BITS,
        )
    )
    outcome = result.outcome
    assert outcome is not None
    assert np.all(np.diff(outcome.sorted_keys) >= 0), "simulated sort failed"
    return outcome


def _run_key_material(spec: RunSpec, costs: CostModel) -> dict:
    return {"spec": spec, "machine": _spec_machine(spec), "costs": costs}


def _outcome_valid(outcome: object) -> bool:
    """Cheap validation of a disk-cache payload before trusting it."""
    return (
        isinstance(outcome, SortOutcome)
        and isinstance(outcome.sorted_keys, np.ndarray)
        and bool(np.all(np.diff(outcome.sorted_keys) >= 0))
    )


def _keys_id(spec: RunSpec) -> tuple:
    return (spec.distribution, spec.n_actual, spec.n_procs, spec.radix, spec.seed)


def spec_keys(spec: RunSpec, memo: dict[tuple, np.ndarray]) -> np.ndarray:
    """The cell's functional key array, generated once per ``memo`` entry
    (cells differing only in algorithm or model share it)."""
    key_id = _keys_id(spec)
    keys = memo.get(key_id)
    if keys is None:
        keys = memo[key_id] = generate(
            spec.distribution, spec.n_actual, spec.n_procs,
            radix=spec.radix, seed=spec.seed,
        )
    return keys


def _load_or_compute(
    spec: RunSpec,
    costs: CostModel,
    cache: GridCache | None,
    keys_memo: dict[tuple, np.ndarray],
    backend: Backend | None = None,
    compute: bool = True,
) -> SortOutcome | None:
    """One grid cell, from the disk cache or by running it.

    A valid cached payload is returned as is (an invalid one is dropped
    from the cache); otherwise the cell runs on :func:`spec_keys` and is
    published to the cache -- or, with ``compute=False``, the miss is
    reported as ``None`` for the caller to schedule.
    """
    if cache is not None:
        material = _run_key_material(spec, costs)
        cached = cache.get("run", material)
        if cached is not None:
            if _outcome_valid(cached):
                return cached
            cache.invalidate("run", material)
    if not compute:
        return None
    outcome = _compute_outcome(spec, costs, spec_keys(spec, keys_memo), backend)
    if cache is not None:
        cache.put("run", material, outcome)
    return outcome


def fan_out(
    fn: Callable, items: Sequence, workers: int, chunksize: int = 1
) -> Iterator:
    """``map(fn, items)`` over ``workers`` processes started the native
    pool's way; yields results in ``items`` order.  Every sweep that
    computes cells in worker processes (grid cells, ``repro check``
    cases) goes through here."""
    import concurrent.futures as cf
    import multiprocessing as mp

    if not items:
        return
    ctx = mp.get_context(default_start_method())
    workers = min(workers, len(items))
    with cf.ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)


#: Per-worker-process memo of generated key arrays, shared across the
#: grid cells one ``run_many`` worker executes (pool processes are
#: reused, so e.g. five models at the same size/p/radix generate once).
_worker_keys: dict[tuple, np.ndarray] = {}


def _grid_worker(
    spec: RunSpec, costs: CostModel, cache_root: str | None
) -> SortOutcome:
    """``run_many`` subprocess body: compute one cell, publish it to the
    shared disk cache, ship the outcome back to the parent."""
    cache = GridCache(cache_root) if cache_root is not None else None
    return _load_or_compute(spec, costs, cache, _worker_keys)


class ExperimentRunner:
    """Executes grid cells with memoization and persistent caching.

    ``cache`` may be a :class:`~repro.core.gridcache.GridCache`, ``None``
    (the default cache at ``$REPRO_CACHE_DIR`` / ``~/.cache/repro``,
    unless ``$REPRO_NO_CACHE`` is set), or ``False`` to disable
    persistence entirely.  ``parallel`` sets the default worker count for
    :meth:`run_many` (``None``/1 = serial).

    ``backend`` selects the execution substrate for grid cells: ``"sim"``
    (the default discrete-event simulation) or ``"predict"`` (the
    calibrated analytic model).  Predicted cells take milliseconds, so
    they bypass both the disk cache and the :meth:`run_many` process pool
    -- forking workers would cost more than the predictions themselves.
    The sequential baseline used by :meth:`speedup` is shared between
    backends (it is the paper's common denominator).
    """

    def __init__(
        self,
        costs: CostModel = DEFAULT_COSTS,
        cache: GridCache | None | bool = None,
        parallel: int | None = None,
        backend: str | Backend = "sim",
    ):
        self.costs = costs
        self.backend = get_backend(backend)
        self._predicted = self.backend.name == "predict"
        if self._predicted or cache is False:
            cache = None
        elif cache is None:
            cache = None if os.environ.get("REPRO_NO_CACHE") else GridCache()
        self.cache: GridCache | None = cache
        self.parallel = parallel
        self._runs: dict[RunSpec, SortOutcome] = {}
        self._seq: dict[tuple, SequentialResult] = {}
        self._keys: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    def sequential(
        self,
        n_labeled: int,
        radix: int = 8,
        distribution: str = "gauss",
        seed: int = 1,
        max_actual: int = 1 << 18,
        floor: int = 1,
    ) -> SequentialResult:
        """The shared uniprocessor baseline (paper Table 1 uses Gauss).

        ``max_actual``/``floor`` bound the functional array exactly as
        they do for :attr:`RunSpec.n_actual`, and are part of the memo
        key: a ``--small`` run and a full-size run in one process no
        longer alias each other's cached baseline.
        """
        key = (n_labeled, radix, distribution, seed, max_actual, floor)
        hit = self._seq.get(key)
        if hit is not None:
            return hit
        key_material = {
            "n_labeled": n_labeled,
            "radix": radix,
            "distribution": distribution,
            "seed": seed,
            "max_actual": max_actual,
            "floor": floor,
            "machine": default_sequential_machine(),
            "costs": self.costs,
        }
        if self.cache is not None:
            cached = self.cache.get("seq", key_material)
            if isinstance(cached, SequentialResult):
                self._seq[key] = cached
                return cached
        n_actual = actual_size(n_labeled, max_actual, floor=floor)
        keys = generate(distribution, n_actual, 1, radix=radix, seed=seed)
        result = sequential_radix_sort(
            keys, radix=radix, n_labeled=n_labeled,
            machine=default_sequential_machine(), costs=self.costs,
        )
        self._seq[key] = result
        if self.cache is not None:
            self.cache.put("seq", key_material, result)
        return result

    # ------------------------------------------------------------------
    def keys(self, spec: RunSpec) -> np.ndarray:
        """The functional key array ``spec`` runs on (the runner's memo)."""
        return spec_keys(spec, self._keys)

    def run(self, spec: RunSpec) -> SortOutcome:
        hit = self._runs.get(spec)
        if hit is None:
            hit = self._runs[spec] = _load_or_compute(
                spec, self.costs, self.cache, self._keys, self.backend
            )
        return hit

    # ------------------------------------------------------------------
    def run_many(
        self,
        specs: Iterable[RunSpec],
        parallel: int | None = None,
    ) -> list[SortOutcome]:
        """Run every grid cell, fanning cache misses out over worker
        processes, and return outcomes in ``specs`` order.

        ``parallel`` (default: the runner's ``parallel`` setting) caps
        concurrent workers; ``None`` or 1 runs serially in-process.
        Workers publish to the shared disk cache and the parent merges
        their outcomes into the in-memory memo, so the result is
        indistinguishable from a serial :meth:`run` loop.  One
        ``grid.cell`` trace span is emitted per executed cell.
        """
        spec_list = list(specs)
        parallel = self.parallel if parallel is None else parallel
        if self._predicted:
            parallel = 1  # predicted cells are cheaper than a fork
        # Serve what the disk cache already has (cheap, no processes).
        misses: list[RunSpec] = []
        for spec in dict.fromkeys(spec_list):
            if spec in self._runs:
                continue
            t0 = time.perf_counter()
            cached = _load_or_compute(
                spec, self.costs, self.cache, self._keys, compute=False
            )
            if cached is not None:
                self._runs[spec] = cached
                _cell_span(spec, t0, "disk")
            else:
                misses.append(spec)

        if (parallel or 1) > 1 and len(misses) > 1:
            self._run_parallel(misses, parallel)
        else:
            for spec in misses:
                t0 = time.perf_counter()
                self.run(spec)
                _cell_span(spec, t0, "computed")
        return [self._runs[spec] for spec in spec_list]

    def _run_parallel(self, specs: Sequence[RunSpec], n_workers: int) -> None:
        import functools

        cache_root = str(self.cache.root) if self.cache is not None else None
        # Cells sharing a generated key array (same distribution / size /
        # p / radix / seed, e.g. the five models of one Table 2 column)
        # are grouped into adjacent chunks so one worker's key memo
        # serves the whole group.
        ordered = sorted(
            specs, key=lambda s: (*_keys_id(s), s.algorithm, s.model)
        )
        chunksize = max(1, -(-len(ordered) // (n_workers * 2)))
        worker = functools.partial(
            _grid_worker, costs=self.costs, cache_root=cache_root
        )
        t_prev = time.perf_counter()
        for spec, outcome in zip(
            ordered, fan_out(worker, ordered, n_workers, chunksize)
        ):
            self._runs[spec] = outcome
            _cell_span(spec, t_prev, "worker")
            t_prev = time.perf_counter()

    # ------------------------------------------------------------------
    def speedup(self, spec: RunSpec) -> float:
        """Speedup vs. the shared sequential radix-sort baseline at the
        same labeled size, distribution and functional sizing (the
        paper's methodology)."""
        seq = self.sequential(
            spec.n_labeled, distribution=spec.distribution,
            seed=spec.seed, max_actual=spec.max_actual,
            floor=spec.n_procs * spec.n_procs,
        )
        return self.run(spec).speedup_vs(seq.time_ns)

    def best_over_radix(
        self, spec: RunSpec, radix_choices: list[int]
    ) -> tuple[SortOutcome, int]:
        """The fastest outcome over a set of radix sizes (Tables 2/3); the
        first of equally fast radices wins."""
        outcomes = self.run_many([replace(spec, radix=r) for r in radix_choices])
        best = min(range(len(outcomes)), key=lambda i: outcomes[i].time_ns)
        return outcomes[best], radix_choices[best]

    def clear(self) -> None:
        """Forget the in-process memo (the disk cache is unaffected;
        use ``python -m repro cache clear`` for that)."""
        self._runs.clear()
        self._seq.clear()
        self._keys.clear()
