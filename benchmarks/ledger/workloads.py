"""The six workloads of the ledger benchmark.

Every workload is a closed loop: a caller issues its next op only after
the previous one returned.  Inputs are generated from the seed before any
timing starts, reference outputs are computed then too, and every op's
output is checked against its reference outside the timed interval.

A workload's ``run_ops(budget, rec)`` runs the loop untraced when ``rec``
is ``None`` and otherwise records one span per public call it makes,
all sharing the op's identifier.  ``layers(...)`` runs in the traced pass
only and returns the per-layer metrics of the layers this workload's path
crosses.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
import time
import zlib
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import probes
from harness import (
    N_WORKERS,
    NpSortBaseline,
    OpLog,
    SRC,
    child_env,
    median,
    median_time,
    percentile,
)
from spans import SpanRecorder

from repro.backend import SortJob, get_backend
from repro.data import generate
from repro.native import WorkerPool, parallel_radix_sort
from repro.predict import PredictedBackend, load_calibration
from repro.predict.calibration import PACKAGED_DEFAULT
from repro.serve import Arena, ServeClient, SortEngine
from repro.serve.protocol import (
    decode_keys,
    encode_keys,
    pack_frame,
    parse_header,
    unpack_body,
)
from repro.stream import (
    DEFAULT_FRAME_KEYS,
    RunReader,
    external_sort,
    iter_chunks,
    merge_iter,
    reduce_runs,
    write_run,
)


class Budget:
    """How long a closed loop runs: a fixed op count (warm-up) or until a
    deadline, with a floor of three ops so every statistic exists."""

    def __init__(self, seconds: float | None = None, ops: int | None = None):
        self.ops = ops
        self.deadline = None if seconds is None else time.perf_counter() + seconds

    def more(self, done: int) -> bool:
        if self.ops is not None:
            return done < self.ops
        return done < 3 or time.perf_counter() < self.deadline


def _span(rec: SpanRecorder | None, name: str, **kw):
    return rec.span(name, **kw) if rec is not None else nullcontext()


class Workload:
    """Common shape; see the module docstring."""

    #: Ops issued (and discarded) after each set-up, before its timed loop.
    warmup_ops = 1
    #: Epochs (set-up, warm-up, timed loop, tear-down) of an untraced run
    #: and of a traced one; see ``run.run_workload``.
    epochs = 3
    traced_epochs = 1
    #: Further cold set-ups, torn down at once, where one costs milliseconds.
    extra_setups = 0
    #: Sample the np.sort baseline after every this-many ops of the loop;
    #: 0 = before and after the loop (two-client workloads, whose clients
    #: must not compete with a sort for the two cores).
    baseline_every = 1
    baseline_scale = 1

    def __init__(self, name: str, seed: int, quick: bool, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        self.key_files: list[Path] = []
        self.keys_per_op = 0

    def _save_keys(self, keys: np.ndarray) -> None:
        path = self.workdir / f"keys_{len(self.key_files)}.bin"
        keys.tofile(path)
        self.key_files.append(path)

    def _make_input_pool(self, count: int, key_bits: int) -> None:
        """``count`` uniform key arrays, their references, their key files."""
        self.inputs = [
            self.rng.integers(0, 1 << key_bits, size=self.keys_per_op, dtype=np.int64)
            for _ in range(count)
        ]
        self.refs = [np.sort(k) for k in self.inputs]
        for keys in self.inputs:
            self._save_keys(keys)

    def input_digest(self) -> str:
        crc = 0
        for path in self.key_files:
            with open(path, "rb") as f:
                while block := f.read(1 << 20):
                    crc = zlib.crc32(block, crc)
        return f"{crc:08x}"

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def _op(self, i: int, log: OpLog, rec: SpanRecorder | None) -> None:
        """Issue op ``i``, time it, verify it, and log it."""
        raise NotImplementedError

    def run_ops(
        self,
        budget: Budget,
        rec: SpanRecorder | None = None,
        baseline: NpSortBaseline | None = None,
    ) -> OpLog:
        """One caller, one op at a time."""
        log = OpLog()
        i = 0
        while budget.more(i):
            self._op(i, log, rec)
            if baseline is not None and i % self.baseline_every == 0:
                baseline.sample()
            i += 1
        return log

    def probe_keys(self) -> np.ndarray:
        """The key array the shared layer probes run on."""
        raise NotImplementedError

    def mkeys_per_s(self, log: OpLog) -> float:
        """Keys in successful ops over the time the one caller spent in ops."""
        return log.keys / sum(log.durations) / 1e6

    def layers(
        self, rec: SpanRecorder, traced_p50_ms: float, shared: dict[str, float]
    ) -> dict[str, float]:
        """Family-specific per-layer metrics, called before the last traced
        epoch is torn down.  ``traced_p50_ms`` is the traced legs' op time;
        ``shared`` holds the probes every workload runs (host,
        native.kernels, native.pool)."""
        raise NotImplementedError


# ======================================================================
# native_large / native_small
# ======================================================================
class NativeWorkload(Workload):
    SPECS = {
        # name: (keys, algorithm, input pool, warm-up ops, baseline every,
        #        epochs, traced epochs)
        "native_large": (4 << 20, "radix", 2, 2, 1, 5, 1),
        "native_small": (64 << 10, "sample", 4, 30, 10, 8, 3),
    }
    QUICK = {"native_large": 256 << 10, "native_small": 8 << 10}
    #: A pool is up in ~10 ms, and blocks of ten such set-ups differ by a
    #: third on a shared host; the median of forty-odd holds still.
    extra_setups = 40

    def __init__(self, name, seed, quick, workdir):
        super().__init__(name, seed, quick, workdir)
        (n, self.algorithm, self.n_inputs, self.warmup_ops, self.baseline_every,
         self.epochs, self.traced_epochs) = self.SPECS[name]
        if quick:
            n, self.warmup_ops = self.QUICK[name], 2
        self.keys_per_op = n
        self.sort = probes.SORTS[self.algorithm]
        self.pool: WorkerPool | None = None

    def prepare(self) -> None:
        self._make_input_pool(self.n_inputs, key_bits=31)

    def setup(self) -> None:
        self.pool = WorkerPool(N_WORKERS)
        self.pool.run_phase(probes.noop, range(N_WORKERS))

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def probe_keys(self) -> np.ndarray:
        return self.inputs[0]

    def _op(self, i: int, log: OpLog, rec: SpanRecorder | None) -> None:
        keys = self.inputs[i % self.n_inputs]
        t0 = time.perf_counter()
        try:
            with _span(rec, f"native.{self.algorithm}.sort", op=i) as span:
                out = self.sort(keys, pool=self.pool)
        except Exception as err:  # the op boundary: count it, keep looping
            log.fail(repr(err))
            return
        t1 = time.perf_counter()
        if rec is not None:
            # The pool's own phase records become child spans of the sort.
            for t in self.pool.timings:
                phase = rec.add(
                    f"native.pool.phase:{t.name}", t.begin, t.end,
                    parent=span.id, op=i,
                )
                for (begin, end), slot in zip(t.tasks, t.slots):
                    rec.add("native.pool.task", begin, end, parent=phase, op=i, slot=slot)
            self.pool.timings.clear()
        if np.array_equal(out, self.refs[i % self.n_inputs]):
            log.ok(t0, t1, len(keys))
        else:
            log.fail("output differs from np.sort")

    def run_ops(self, budget, rec=None, baseline=None) -> OpLog:
        self.pool.collect_timings = rec is not None
        try:
            return super().run_ops(budget, rec, baseline)
        finally:
            self.pool.collect_timings = False

    def layers(self, rec, traced_p50_ms, shared) -> dict[str, float]:
        keys = self.probe_keys()
        reps = 3 if self.keys_per_op > (1 << 20) else 15
        out = probes.native_shm(keys, self.algorithm, reps)
        out.update(probes.native_sort_ledgers(keys, reps))
        # What of the sort's parent-side serial time the layer rows explain:
        # validation scan (radix), copy-in, two data segments' life, and the
        # result copy at memcpy speed.
        serial_ms = out[f"native.{self.algorithm}.serial_ms"]
        explained = (
            out["native.shm.copy_in_ms"]
            + 2 * out["native.shm.alloc_release_ms"]
            + keys.nbytes / (shared["host.memcpy_gb_s"] * 1e9) * 1e3
        )
        if self.algorithm == "radix":
            explained += shared["native.kernels.minmax_ns_per_key"] * len(keys) / 1e6
        wall_ms = out[f"native.{self.algorithm}.wall_ms"]
        out["bench.ledger_residual_frac"] = (serial_ms - explained) / wall_ms
        return out


# ======================================================================
# serve_large / serve_small
# ======================================================================
N_CLIENTS = 2


class ServeWorkload(Workload):
    SPECS = {
        # name: (keys, algorithm, warm-up ops per client)
        "serve_large": (768_000, "sample", 5),
        "serve_small": (10_000, "radix", 20),
    }
    QUICK = {"serve_large": 100_000, "serve_small": 2_000}
    epochs = 5
    traced_epochs = 3
    baseline_every = 0
    n_inputs = 4

    def __init__(self, name, seed, quick, workdir):
        super().__init__(name, seed, quick, workdir)
        n, self.algorithm, self.warmup_ops = self.SPECS[name]
        if quick:
            n, self.warmup_ops = self.QUICK[name], 2
        self.keys_per_op = n
        self.server: subprocess.Popen | None = None
        self.control: ServeClient | None = None
        #: (op seconds, queue wait seconds, engine wall seconds) per traced op.
        self.op_parts: list[tuple[float, float, float]] = []

    def prepare(self) -> None:
        self._make_input_pool(self.n_inputs, key_bits=48)

    def setup(self) -> None:
        """A server in its own process, default slabs, up to the first
        answered ping."""
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(N_WORKERS)],
            env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline()
        match = re.search(r":(\d+) ", line)
        if match is None:
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(match.group(1))
        self.control = ServeClient(port=self.port)
        self.control.ping()

    def teardown(self) -> None:
        if self.server is None:
            return
        try:
            if self.control is not None:
                self.control.shutdown()
                self.control.close()
            self.server.wait(timeout=30)
        except Exception:  # a wedged server must still be reaped
            self.server.kill()
            self.server.wait()
        finally:
            self.server.stdout.close()
            self.server = None
            self.control = None

    def probe_keys(self) -> np.ndarray:
        return self.inputs[0]

    def mkeys_per_s(self, log: OpLog) -> float:
        """Two clients overlap: keys over the loop's wall clock, first
        submit to last completion."""
        return log.keys / (log.t_last - log.t_first) / 1e6

    def _client(self, c: int, budget: Budget, rec, log: OpLog, start) -> None:
        with ServeClient(port=self.port) as client:
            start.wait()
            i = 0
            while budget.more(i):
                which = (i * N_CLIENTS + c) % self.n_inputs
                keys = self.inputs[which]
                t0 = time.perf_counter()
                try:
                    if rec is None:
                        out = client.sort(keys, self.algorithm)
                    else:
                        with rec.span("serve.client.sort", op=f"c{c}.{i}"):
                            with rec.span("serve.client.submit"):
                                job = client.submit(keys, self.algorithm)
                            with rec.span("serve.client.wait"):
                                client.wait(job)
                            with rec.span("serve.client.result"):
                                out = client.result(job)
                    t1 = time.perf_counter()
                except Exception as err:  # the op boundary
                    log.fail(repr(err))
                else:
                    if rec is not None:
                        status = client.status(job)
                        self.op_parts.append(
                            (t1 - t0, status["queue_wait_s"], status["wall_s"])
                        )
                    if np.array_equal(out, self.refs[which]):
                        log.ok(t0, t1, len(keys))
                    else:
                        log.fail("output differs from np.sort")
                i += 1

    def run_ops(self, budget, rec=None, baseline=None) -> OpLog:
        """Two closed-loop clients, one connection and one thread each."""
        def sample_baseline() -> None:
            for _ in range(3 if baseline is not None else 0):
                baseline.sample()

        sample_baseline()
        logs = [OpLog() for _ in range(N_CLIENTS)]
        start = threading.Barrier(N_CLIENTS)
        threads = [
            threading.Thread(target=self._client, args=(c, budget, rec, logs[c], start))
            for c in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sample_baseline()
        total = OpLog()
        for log in logs:
            total.merge(log)
        return total

    # ------------------------------------------------------------------
    def _decompose(self) -> dict[str, float]:
        """The median op, decomposed: component means over the ops between
        the 40th and 60th percentile of op time, so the three rows sum to
        that band's mean op time exactly."""
        parts = np.array(self.op_parts)
        lo, hi = np.percentile(parts[:, 0], [40, 60])
        band = parts[(parts[:, 0] >= lo) & (parts[:, 0] <= hi)]
        op, queue, engine = band.mean(axis=0)
        return {
            "serve.server.queue_wait_ms_p50": queue * 1e3,
            "serve.server.engine_ms_p50": engine * 1e3,
            "serve.server.overhead_ms_p50": (op - queue - engine) * 1e3,
        }

    def layers(self, rec, traced_p50_ms, shared) -> dict[str, float]:
        keys = self.probe_keys()
        reps = 10 if self.keys_per_op > 100_000 else 100
        out = self._decompose()

        # serve.client: the three wire calls of the traced ops, and an
        # idle-server ping as the round-trip floor.
        for call in ("submit", "wait", "result"):
            spans = rec.named(f"serve.client.{call}")
            out[f"serve.client.{call}_ms_p50"] = median(s.duration for s in spans) * 1e3
        ping = median_time(self.control.ping, 200)
        out["serve.client.ping_us"] = ping * 1e6

        # serve.protocol: what each side does to one frame of these keys.
        def encode() -> bytes:
            fields, payload = encode_keys(keys)
            header = {"op": "submit", "algorithm": self.algorithm, **fields}
            return pack_frame(header, payload)

        frame = encode()
        body = frame[-parse_header(frame[:8]) :]
        encode_s = median_time(encode, reps)
        decode_s = median_time(lambda: decode_keys(*unpack_body(body)), reps)
        out["serve.protocol.encode_ms"] = encode_s * 1e3
        out["serve.protocol.decode_ms"] = decode_s * 1e3
        out["serve.protocol.frame_bytes"] = len(frame)
        out["serve.server.unexplained_ms"] = (
            out["serve.server.overhead_ms_p50"]
            - 2 * (encode_s + decode_s) * 1e3 - 3 * ping * 1e3
        )
        out["bench.ledger_residual_frac"] = (
            out["serve.server.unexplained_ms"] / traced_p50_ms
        )

        # serve.arena: direct leases on a default-sized arena.
        with Arena() as arena:
            def lease_release():
                bufs = arena.buffers()
                bufs.empty(keys.shape, keys.dtype)
                bufs.release_all()

            def copy_in():
                bufs = arena.buffers()
                bufs.from_array(keys)
                bufs.release_all()

            lease = median_time(lease_release, reps)
            out["serve.arena.lease_release_us"] = lease * 1e6
            out["serve.arena.copy_in_ms"] = (median_time(copy_in, reps) - lease) * 1e3

        # serve.engine: the same jobs without the wire, in this process.
        with SortEngine(N_WORKERS) as engine:
            engine.warmup()
            walls = [
                engine.run(f"probe{i}", self.inputs[i % self.n_inputs],
                           self.algorithm).wall_s
                for i in range(reps)
            ]
            stats = engine.stats()
        out["serve.engine.run_ms"] = median(walls) * 1e3
        for key in ("warmup_rounds", "steady_shm_creates", "steady_shm_attaches",
                    "phase_failures"):
            out[f"serve.engine.{key}"] = stats[key]

        # Counters the served run left behind, read over the wire.
        served = self.control.stats()
        arena_stats = served["engine"]["arena"]
        out["serve.arena.leases_per_job"] = (
            arena_stats["leases"] / max(1, served["engine"]["jobs_run"])
        )
        out["serve.arena.peak_in_use"] = arena_stats["peak_in_use"]
        out["serve.results.stored_mb"] = served["store"]["stored_bytes"] / 1e6
        out["serve.results.evicted"] = served["store"]["evicted"]
        out["serve.admission.rejected"] = sum(served["admission"]["rejected"].values())
        return out


# ======================================================================
# stream_spill
# ======================================================================
class StreamWorkload(Workload):
    FAN_IN = 4
    epochs = 2
    extra_setups = 40

    def __init__(self, name, seed, quick, workdir):
        super().__init__(name, seed, quick, workdir)
        self.keys_per_op = (256 << 10) if quick else (8 << 20)
        self.chunk_keys = self.keys_per_op // 16
        self.out_path = workdir / "sorted.bin"
        self.pool: WorkerPool | None = None
        self.last_result = None

    def prepare(self) -> None:
        """Write the input chunk by chunk (it is never resident here) and
        keep its count and wrapping checksum as the reference."""
        path = self.workdir / "keys_0.bin"
        self.checksum = np.uint64(0)
        with open(path, "wb") as f:
            for _ in range(self.keys_per_op // self.chunk_keys):
                chunk = self.rng.integers(0, 1 << 31, size=self.chunk_keys, dtype=np.int64)
                self.checksum += chunk.view(np.uint64).sum(dtype=np.uint64)
                f.write(chunk.tobytes())
        self.key_files.append(path)

    def setup(self) -> None:
        # The pool external_sort would build for itself, reused across ops.
        self.pool = WorkerPool(N_WORKERS, supervise=True, phase_timeout_s=60.0)
        self.pool.run_phase(probes.noop, range(N_WORKERS))

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def probe_keys(self) -> np.ndarray:
        return np.fromfile(self.key_files[0], dtype=np.int64, count=self.chunk_keys)

    def _verify(self) -> str | None:
        """Streaming check of the output file: ascending, complete, and
        the same multiset (by count and checksum)."""
        count, checksum, last = 0, np.uint64(0), None
        with open(self.out_path, "rb") as f:
            while True:
                block = np.fromfile(f, dtype=np.int64, count=self.chunk_keys)
                if not len(block):
                    break
                if np.any(block[1:] < block[:-1]) or (last is not None and block[0] < last):
                    return "output not ascending"
                last = block[-1]
                count += len(block)
                checksum += block.view(np.uint64).sum(dtype=np.uint64)
        if count != self.keys_per_op or checksum != self.checksum:
            return f"output holds {count} keys, checksum {checksum}"
        return None

    def _op(self, i: int, log: OpLog, rec: SpanRecorder | None) -> None:
        t0 = time.perf_counter()
        try:
            with _span(rec, "stream.external.sort", op=i):
                self.last_result = external_sort(
                    self.key_files[0], dtype=np.int64, chunk_keys=self.chunk_keys,
                    fan_in=self.FAN_IN, out=self.out_path, workdir=self.workdir,
                    pool=self.pool,
                )
        except Exception as err:  # the op boundary
            log.fail(repr(err))
            return
        t1 = time.perf_counter()
        why = self._verify()
        if why is None:
            log.ok(t0, t1, self.keys_per_op)
        else:
            log.fail(why)

    def layers(self, rec, traced_p50_ms, shared) -> dict[str, float]:
        """Replay one op stage by stage through the public functions
        ``external_sort`` is built from, timing each stage alone."""
        src = self.key_files[0]
        mb = self.keys_per_op * 8 / 1e6
        stage = self.workdir / "stages"
        stage.mkdir()
        op_id = "replay"

        with rec.span("stream.ingest.iter_chunks", op=op_id) as s_ingest:
            chunks = sum(1 for _ in iter_chunks(src, self.chunk_keys, np.int64))

        sort_s = write_s = 0.0
        runs = []
        for k, chunk in enumerate(iter_chunks(src, self.chunk_keys, np.int64)):
            with rec.span("native.radix.sort", op=op_id) as s:
                ordered = parallel_radix_sort(chunk, pool=self.pool)
            sort_s += s.duration
            runs.append(str(stage / f"run_{k:04d}.run"))
            with rec.span("stream.runfile.write_run", op=op_id) as s:
                write_run(runs[-1], ordered)
            write_s += s.duration

        def read_one():
            with RunReader(runs[0]) as reader:
                reader.read_all()

        read_s = median_time(read_one, 5)
        with rec.span("stream.merge.merge_iter", op=op_id, runs=len(runs)) as s_kway:
            for _block in merge_iter(runs):
                pass
        with rec.span("stream.merge.reduce_runs", op=op_id) as s_reduce:
            survivors, _passes, _read, _written = reduce_runs(
                runs, fan_in=self.FAN_IN, workdir=str(stage),
                frame_keys=DEFAULT_FRAME_KEYS, dtype=np.dtype(np.int64), pool=self.pool,
            )
        with rec.span("stream.merge.final", op=op_id) as s_final:
            with open(stage / "final.bin", "wb") as sink:
                for block in merge_iter(survivors):
                    sink.write(block.tobytes())

        res = self.last_result
        in_bytes = self.keys_per_op * 8
        explained = (
            s_ingest.duration + sort_s + write_s + s_reduce.duration + s_final.duration
        )
        op_s = traced_p50_ms / 1e3
        return {
            "stream.ingest.mb_s": mb / s_ingest.duration,
            "stream.ingest.chunks": chunks,
            "stream.runfile.write_mb_s": mb / write_s,
            "stream.runfile.read_mb_s": mb / len(runs) / read_s,
            "stream.merge.kway_mb_s": mb / s_kway.duration,
            "stream.merge.reduce_ms": s_reduce.duration * 1e3,
            "stream.external.runs": res.runs,
            "stream.external.merge_passes": res.merge_passes,
            "stream.external.spill_amp": res.bytes_spilled / in_bytes,
            "stream.external.merge_read_amp": res.bytes_merge_read / in_bytes,
            "stream.external.run_sort_ms": sort_s * 1e3,
            "stream.external.residual_ms": (op_s - explained) * 1e3,
            "bench.ledger_residual_frac": (op_s - explained) / op_s,
            **probes.native_shm(self.probe_keys(), "radix", 10),
        }


# ======================================================================
# sim_grid
# ======================================================================
class SimWorkload(Workload):
    MODELS = ("ccsas", "mpi-new", "shmem")
    epochs = 1
    extra_setups = 6
    _COLD_START = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from repro.backend import get_backend;"
        "from repro.predict import load_calibration;"
        "from repro.predict.calibration import PACKAGED_DEFAULT;"
        "get_backend('sim'); load_calibration(PACKAGED_DEFAULT)"
    )

    def __init__(self, name, seed, quick, workdir):
        super().__init__(name, seed, quick, workdir)
        self.n = (16 << 10) if quick else (256 << 10)
        self.cells = [
            (algorithm, model, p)
            for p in ((4, 8) if quick else (16, 64))
            for algorithm in ("radix", "sample")
            for model in self.MODELS
        ]
        self.keys_per_op = self.n * len(self.cells)
        self.baseline_scale = len(self.cells)
        self.total_ns_sum: float | None = None
        self.last_reports = []

    def prepare(self) -> None:
        # The paper's generators take 1-based stream seeds.
        self.keys = generate("gauss", self.n, 64, seed=1 + self.seed % 97)
        self.ref = np.sort(self.keys)
        self._save_keys(self.keys)

    def setup(self) -> None:
        """Import plus calibration load, cold, in a fresh interpreter --
        then the same objects here, where the loop needs them."""
        subprocess.run(
            [sys.executable, "-c", self._COLD_START, str(SRC)],
            env=child_env(), check=True,
        )
        self.sim = get_backend("sim")
        self.predict = PredictedBackend(load_calibration(PACKAGED_DEFAULT))

    def teardown(self) -> None:
        pass

    def probe_keys(self) -> np.ndarray:
        return self.keys

    def _job(self, algorithm, model, p) -> SortJob:
        return SortJob(self.keys, algorithm=algorithm, model=model, n_procs=p)

    def _op(self, i: int, log: OpLog, rec: SpanRecorder | None) -> None:
        results = []
        t0 = time.perf_counter()
        try:
            with _span(rec, "backend.sim.sweep", op=i):
                for algorithm, model, p in self.cells:
                    with _span(rec, "backend.sim.run", algorithm=algorithm,
                               model=model, n_procs=p):
                        results.append(self.sim.run(self._job(algorithm, model, p)))
        except Exception as err:  # the op boundary
            log.fail(repr(err))
            return
        t1 = time.perf_counter()
        self.last_reports = [r.report for r in results]
        total = sum(r.report.total_time_ns for r in results)
        if self.total_ns_sum is None:
            self.total_ns_sum = total
        if not all(np.array_equal(r.sorted_keys, self.ref) for r in results):
            log.fail("a cell's output differs from np.sort")
        elif total != self.total_ns_sum:
            log.fail(f"simulated time changed between sweeps: {total} != {self.total_ns_sum}")
        else:
            log.ok(t0, t1, self.keys_per_op)

    def layers(self, rec, traced_p50_ms, shared) -> dict[str, float]:
        sim_ns = [r.total_time_ns for r in self.last_reports]
        categories = np.sum([r.category_matrix().sum(axis=0) for r in self.last_reports], axis=0)
        busy, lmem, rmem, sync = categories / categories.sum()
        out = {
            "backend.sim.total_ns_sum": sum(sim_ns),
            "backend.sim.busy_frac": busy,
            "backend.sim.lmem_frac": lmem,
            "backend.sim.rmem_frac": rmem,
            "backend.sim.sync_frac": sync,
        }
        # Host time per programming model: the median traced sweep's cells.
        sweeps = rec.named("backend.sim.sweep")
        cells = rec.named("backend.sim.run")
        for model in self.MODELS:
            per_sweep = [
                sum(c.duration for c in cells
                    if c.parent == s.id and c.args["model"] == model)
                for s in sweeps
            ]
            out[f"backend.sim.host_ms.{model}"] = median(per_sweep) * 1e3
        self_s = rec.self_times()
        out["bench.ledger_residual_frac"] = median(
            self_s[s.id] / s.duration for s in sweeps
        )

        with rec.span("predict.sweep", op="predict") as s_pred:
            predicted = [
                self.predict.run(self._job(*cell)).report.total_time_ns
                for cell in self.cells
            ]
        errors = [abs(p - s) / s * 100 for p, s in zip(predicted, sim_ns)]
        out["predict.sweep_ms"] = s_pred.duration * 1e3
        out["pred_err_pct_p50"] = median(errors)
        out["predict.err_pct_p95"] = percentile(errors, 95)
        out["predict.err_pct_max"] = max(errors)
        return out


WORKLOAD_CLASSES = {
    "native_large": NativeWorkload,
    "native_small": NativeWorkload,
    "serve_large": ServeWorkload,
    "serve_small": ServeWorkload,
    "stream_spill": StreamWorkload,
    "sim_grid": SimWorkload,
}


def make_workload(name: str, seed: int, quick: bool, workdir: Path) -> Workload:
    return WORKLOAD_CLASSES[name](name, seed, quick, workdir)
