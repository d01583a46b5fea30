"""Every workload and metric the ledger benchmark declares, in one place.

``BENCHMARK.json`` at the repository root is this module rendered in the
driver's shape (``python benchmarks/ledger/metrics.py`` prints it, and
``test_ledger.py`` fails when the two drift apart).  Later issues refer to
these names verbatim.

Two views of the end-to-end metrics exist because the driver requires
every end-to-end metric to be measured, non-zero, on every workload:

* :data:`END_TO_END` is the harness's own table -- eight metrics, each
  with the workloads it is defined on; ``agree.py`` compares all of them.
* the subset with ``contract=True`` (defined everywhere, never zero) is
  what ``BENCHMARK.json`` lists under ``end_to_end``; the other three are
  still measured and appear there under ``per_layer`` (``op_ms_p90``,
  ``pred_err_pct_p50``) or as the result line's ``failed`` / ``attempted``
  counts (``failed_frac``).

A per-layer metric is measured on the workloads whose path crosses its
layer group (:data:`ON_PATH`); in the driver's result line a workload
reports ``0`` for a layer it never enters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 12

WORKLOADS: dict[str, str] = {
    "native_large": (
        "4Mi-key radix sort on a reused 2-worker pool: kernel- and "
        "memory-bound, pool phases are noise; the np.sort gap of the ROADMAP"
    ),
    "native_small": (
        "64Ki-key sample sort: overhead-bound, pool dispatch/barrier and "
        "shared-memory creates dominate; a kernel speed-up must not move it"
    ),
    "serve_large": (
        "768000-key sample jobs from 2 closed-loop clients to a server "
        "process: copy-bound (frames, slab copy-in, result store, copy-out)"
    ),
    "serve_small": (
        "10000-key radix jobs, same server shape: fixed-cost-bound "
        "(supervised phase floor x 10, wire round trips); copies do nothing"
    ),
    "stream_spill": (
        "external sort of a 64 MB file never resident in the process: "
        "disk- and merge-bound, and the one workload where peak RSS matters"
    ),
    "sim_grid": (
        "12-cell simulator sweep (radix/sample x ccsas/mpi-new/shmem x "
        "p=16/64): host time is the metric, simulated counts must repeat exactly"
    ),
}

ALL = tuple(WORKLOADS)
NATIVE = ("native_large", "native_small")
SERVE = ("serve_large", "serve_small")
#: Hundreds of ops per run, so dozens lie beyond the 90th percentile.
MANY_OPS = ("native_small",) + SERVE


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the base by which the metric may worsen; 0 = may not worsen.
    bound: float
    workloads: tuple[str, ...]
    #: Listed under ``end_to_end`` in BENCHMARK.json (defined on every
    #: workload and never zero).
    contract: bool
    definition: str
    #: Exact given the inputs: only runs of the same seed are comparable.
    per_seed: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, ALL, True,
        "median of several cold set-ups: pool / server construction until "
        "the first op could be issued (sim: import + calibration load in a "
        "fresh interpreter); input generation excluded",
    ),
    EndToEnd(
        "op_ms_p50", "ms", "lower", 0.25, ALL, True,
        "median caller-observed time of one op (sim_grid: one sweep), of the "
        "median epoch",
    ),
    EndToEnd(
        "op_ms_p90", "ms", "lower", 0.25, MANY_OPS, False,
        "90th percentile over all ops of the run, where hundreds of samples "
        "leave dozens beyond it",
    ),
    EndToEnd(
        "mkeys_per_s", "Mkeys/s", "higher", 0.25, ALL, True,
        "keys in successful ops / sum of op times (one caller) or / loop "
        "wall first-submit to last-completion (2 clients); sim_grid counts "
        "simulated keys per host second",
    ),
    EndToEnd(
        "vs_npsort_ratio", "ratio", "lower", 0.25, ALL, True,
        "op_ms_p50 / median np.sort time of the same keys, timed in the same "
        "run by a helper process (sim_grid: 12 cells' worth of np.sort)",
    ),
    EndToEnd(
        "failed_frac", "fraction", "lower", 0.0, ALL, False,
        "ops that raised, were rejected, timed out or returned output != "
        "reference, / ops attempted",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.2, ALL, True,
        "sum of VmHWM over the workload process and its live descendants "
        "(pool workers, server) when a timed loop ends, largest epoch; a page "
        "shared between processes counts once per mapper; the np.sort helper "
        "is excluded",
    ),
    EndToEnd(
        "pred_err_pct_p50", "%", "lower", 0.0, ("sim_grid",), False,
        "median over the 12 cells of |predict - sim| / sim on total_time_ns; "
        "deterministic",
        per_seed=True,
    ),
)


#: Layer group -> workloads whose path crosses it.
ON_PATH: dict[str, tuple[str, ...]] = {
    "host": ALL,
    "bench": ALL,
    "native.kernels": ALL,
    "native.pool": ALL,
    "native.shm": NATIVE + ("stream_spill",),
    "native.radix": NATIVE,
    "native.sample": NATIVE,
    "serve": SERVE,
    "stream": ("stream_spill",),
    "sim": ("sim_grid",),
    "p90": MANY_OPS,
}


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    group: str
    #: The end-to-end metric (and workload) this layer metric should move.
    moves: str


def _native_sort_rows(x: str) -> list[PerLayer]:
    moves = "op_ms_p50 on native_large (task, serial) and native_small (sync)"
    g = f"native.{x}"
    return [
        PerLayer(f"{g}.wall_ms", "ms", "lower", g, moves),
        PerLayer(f"{g}.phases", "count", "lower", g, moves),
        PerLayer(f"{g}.task_ms", "ms", "lower", g, moves),
        PerLayer(f"{g}.sync_ms", "ms", "lower", g, moves),
        PerLayer(f"{g}.serial_ms", "ms", "lower", g, moves),
        PerLayer(f"{g}.task_imbalance", "ratio", "lower", g, moves),
    ]


_KERN = "op_ms_p50, vs_npsort_ratio on native_large; a share of stream_spill; flat on native_small, serve_small"
_POOL = "op_ms_p50 on native_small (plain) and serve_small (supervised); setup_s everywhere; flat on native_large"
_SHM = "op_ms_p50 on native_small; flat on both serve workloads (arena)"
_COPY = "op_ms_p50, mkeys_per_s, peak_rss_mb on serve_large; flat on serve_small"
_ENG = "op_ms_p50 on both serve workloads; warmup_rounds -> setup_s"
_SRV = "op_ms_p50 on both serve workloads (queue wait tracks the other client's engine time)"
_CLI = "op_ms_p50 on serve_small (ping) and serve_large (submit, result)"
_STR = "op_ms_p50, mkeys_per_s, peak_rss_mb on stream_spill only"
_SIM = "op_ms_p50, pred_err_pct_p50 on sim_grid; no other workload runs this code"

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("host.memcpy_gb_s", "GB/s", "higher", "host", "base of every overhead factor"),
    PerLayer("host.npsort_ms", "ms", "lower", "host", "base of vs_npsort_ratio"),
    PerLayer("native.kernels.minmax_ns_per_key", "ns/key", "lower", "native.kernels", _KERN),
    PerLayer("native.kernels.histogram_ns_per_key", "ns/key", "lower", "native.kernels", _KERN),
    PerLayer("native.kernels.scatter_ns_per_key", "ns/key", "lower", "native.kernels", _KERN),
    PerLayer("native.kernels.scatter_over_memcpy", "ratio", "lower", "native.kernels", _KERN),
    PerLayer("native.pool.startup_ms", "ms", "lower", "native.pool", _POOL),
    PerLayer("native.pool.phase_floor_us", "us", "lower", "native.pool", _POOL),
    PerLayer("native.pool.phase_floor_supervised_us", "us", "lower", "native.pool", _POOL),
    PerLayer("native.shm.copy_in_ms", "ms", "lower", "native.shm", _SHM),
    PerLayer("native.shm.alloc_release_ms", "ms", "lower", "native.shm", _SHM),
    PerLayer("native.shm.creates_per_sort", "count", "lower", "native.shm", _SHM),
    PerLayer("native.shm.attaches_per_sort", "count", "lower", "native.shm", _SHM),
    *_native_sort_rows("radix"),
    *_native_sort_rows("sample"),
    PerLayer("serve.protocol.encode_ms", "ms", "lower", "serve", _COPY),
    PerLayer("serve.protocol.decode_ms", "ms", "lower", "serve", _COPY),
    PerLayer("serve.protocol.frame_bytes", "B", "lower", "serve", _COPY),
    PerLayer("serve.arena.lease_release_us", "us", "lower", "serve", _COPY),
    PerLayer("serve.arena.copy_in_ms", "ms", "lower", "serve", _COPY),
    PerLayer("serve.arena.leases_per_job", "count", "lower", "serve", _COPY),
    PerLayer("serve.arena.peak_in_use", "count", "lower", "serve", _COPY),
    PerLayer("serve.results.stored_mb", "MB", "lower", "serve", _COPY),
    PerLayer("serve.results.evicted", "count", "lower", "serve", _COPY),
    PerLayer("serve.engine.run_ms", "ms", "lower", "serve", _ENG),
    PerLayer("serve.engine.warmup_rounds", "count", "lower", "serve", _ENG),
    PerLayer("serve.engine.steady_shm_creates", "count", "lower", "serve", _ENG),
    PerLayer("serve.engine.steady_shm_attaches", "count", "lower", "serve", _ENG),
    PerLayer("serve.engine.phase_failures", "count", "lower", "serve", _ENG),
    PerLayer("serve.server.queue_wait_ms_p50", "ms", "lower", "serve", _SRV),
    PerLayer("serve.server.engine_ms_p50", "ms", "lower", "serve", _SRV),
    PerLayer("serve.server.overhead_ms_p50", "ms", "lower", "serve", _SRV),
    PerLayer("serve.server.unexplained_ms", "ms", "lower", "serve", _SRV),
    PerLayer("serve.admission.rejected", "count", "lower", "serve", _SRV),
    PerLayer("serve.client.ping_us", "us", "lower", "serve", _CLI),
    PerLayer("serve.client.submit_ms_p50", "ms", "lower", "serve", _CLI),
    PerLayer("serve.client.wait_ms_p50", "ms", "lower", "serve", _CLI),
    PerLayer("serve.client.result_ms_p50", "ms", "lower", "serve", _CLI),
    PerLayer("stream.ingest.mb_s", "MB/s", "higher", "stream", _STR),
    PerLayer("stream.ingest.chunks", "count", "lower", "stream", _STR),
    PerLayer("stream.runfile.write_mb_s", "MB/s", "higher", "stream", _STR),
    PerLayer("stream.runfile.read_mb_s", "MB/s", "higher", "stream", _STR),
    PerLayer("stream.merge.kway_mb_s", "MB/s", "higher", "stream", _STR),
    PerLayer("stream.merge.reduce_ms", "ms", "lower", "stream", _STR),
    PerLayer("stream.external.runs", "count", "lower", "stream", _STR),
    PerLayer("stream.external.merge_passes", "count", "lower", "stream", _STR),
    PerLayer("stream.external.spill_amp", "ratio", "lower", "stream", _STR),
    PerLayer("stream.external.merge_read_amp", "ratio", "lower", "stream", _STR),
    PerLayer("stream.external.run_sort_ms", "ms", "lower", "stream", _STR),
    PerLayer("stream.external.residual_ms", "ms", "lower", "stream", _STR),
    PerLayer("backend.sim.total_ns_sum", "ns", "lower", "sim", _SIM),
    PerLayer("backend.sim.busy_frac", "fraction", "lower", "sim", _SIM),
    PerLayer("backend.sim.lmem_frac", "fraction", "lower", "sim", _SIM),
    PerLayer("backend.sim.rmem_frac", "fraction", "lower", "sim", _SIM),
    PerLayer("backend.sim.sync_frac", "fraction", "lower", "sim", _SIM),
    PerLayer("backend.sim.host_ms.ccsas", "ms", "lower", "sim", _SIM),
    PerLayer("backend.sim.host_ms.mpi-new", "ms", "lower", "sim", _SIM),
    PerLayer("backend.sim.host_ms.shmem", "ms", "lower", "sim", _SIM),
    PerLayer("predict.sweep_ms", "ms", "lower", "sim", _SIM),
    PerLayer("predict.err_pct_p95", "%", "lower", "sim", _SIM),
    PerLayer("predict.err_pct_max", "%", "lower", "sim", _SIM),
    PerLayer("pred_err_pct_p50", "%", "lower", "sim", "end-to-end on sim_grid (see END_TO_END)"),
    PerLayer("op_ms_p90", "ms", "lower", "p90", "end-to-end on native_small and both serve workloads, from the untraced leg (see END_TO_END)"),
    PerLayer("bench.untraced_op_ms_p50", "ms", "lower", "bench", "base of trace_overhead_frac"),
    PerLayer("bench.traced_op_ms_p50", "ms", "lower", "bench", "what the layer rows of the traced leg must account for"),
    PerLayer("bench.trace_overhead_frac", "fraction", "lower", "bench", "cost of the traced leg: traced / untraced op_ms_p50 - 1"),
    PerLayer("bench.ledger_residual_frac", "fraction", "lower", "bench", "share of op time no layer row explains"),
)

PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}
END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}


def contract_end_to_end() -> list[EndToEnd]:
    return [m for m in END_TO_END if m.contract]


def layer_on_path(metric: PerLayer, workload: str) -> bool:
    return workload in ON_PATH[metric.group]


def benchmark_json() -> dict:
    """The driver's ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in contract_end_to_end()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
