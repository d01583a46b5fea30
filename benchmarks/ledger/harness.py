"""Shared plumbing of the ledger benchmark: environment, work dir, the
``np.sort`` baseline helper, peak-RSS accounting, host fingerprint and
the leak audit.  Nothing here knows about a particular workload."""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Every pool, engine and server the benchmark builds has this width (the
#: reference host has ``nproc`` = 2); never taken from the environment.
N_WORKERS = 2

#: Variables that would silently change what the program does.
_CLEARED_ENV = (
    "REPRO_WORKERS", "REPRO_NATIVE_KERNEL", "REPRO_CALIBRATION",
    "REPRO_CACHE_DIR",
)


def prepare_environment() -> None:
    """Drop the program's tuning variables and make ``repro`` importable;
    exits non-zero (printing no result) when the source tree is absent."""
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for the program's own processes (server, probes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class WorkDir:
    """The benchmark's scratch directory inside the checkout (spill runs,
    key files, per-workload documents); removed on every exit path."""

    def __init__(self) -> None:
        self.path = ROOT / ".ledger_work" / f"{os.getpid()}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        # ``tempfile`` users inside the program stay inside the checkout.
        os.environ["TMPDIR"] = str(self.path)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no sibling run is live
        except OSError:
            pass


class ProcessScope:
    """No process the run started outlives it.

    A workload's pools, server and helper are stopped by their owners; what
    those leave behind is not: ``multiprocessing``'s resource tracker of this
    process lives until its pipe closes, and the tracker of a server lives a
    few milliseconds past the server, as an orphan.  Entering makes this
    process the reaper of its orphaned descendants; leaving closes the
    tracker's pipe and waits until no child is left, killing what stays
    past ``grace_s`` (an exception path that left a pool open)."""

    _PR_SET_CHILD_SUBREAPER = 36

    def __init__(self, grace_s: float = 10.0) -> None:
        self.grace_s = grace_s

    def __enter__(self) -> "ProcessScope":
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(self._PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
        return self

    def __exit__(self, *exc) -> None:
        # Close our end of the tracker's pipe; it exits once no forked worker
        # holds the other copies, and is reaped below like any child.  (Its
        # own ``_stop`` would block for as long as a worker is left.)
        tracker = resource_tracker._resource_tracker
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
        deadline = time.monotonic() + self.grace_s
        killed: set[int] = set()
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return  # no child left, orphans included
            if pid:
                continue
            if time.monotonic() > deadline + self.grace_s:
                # An open multiprocessing.Pool respawns what is killed.
                print("ledger: gave up reaping; processes are left", file=sys.stderr)
                return
            if time.monotonic() > deadline:
                for child in _children(os.getpid()):
                    if child not in killed:
                        print(f"ledger: killing leftover process {child}", file=sys.stderr)
                        killed.add(child)
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.002)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median_time(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return median(out)


@dataclass
class OpLog:
    """What one closed loop did.  ``durations`` holds successful ops only;
    a failed op still counts in ``attempted``."""

    durations: list[float] = field(default_factory=list)
    keys: int = 0
    attempted: int = 0
    failed: int = 0
    t_first: float = float("inf")
    t_last: float = 0.0
    errors: list[str] = field(default_factory=list)

    def ok(self, t0: float, t1: float, n_keys: int) -> None:
        self.attempted += 1
        self.durations.append(t1 - t0)
        self.keys += n_keys
        self.t_first = min(self.t_first, t0)
        self.t_last = max(self.t_last, t1)

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def merge(self, other: "OpLog") -> None:
        self.durations += other.durations
        self.keys += other.keys
        self.attempted += other.attempted
        self.failed += other.failed
        self.t_first = min(self.t_first, other.t_first)
        self.t_last = max(self.t_last, other.t_last)
        self.errors += other.errors

    def p50_ms(self) -> float:
        return median(self.durations) * 1e3


# ----------------------------------------------------------------------
# np.sort baseline, timed in a helper process
# ----------------------------------------------------------------------
class NpSortBaseline:
    """Times ``np.sort`` of the workload's own key files on request.

    The helper is a separate process so that the baseline's arrays never
    count towards the workload's peak RSS (``stream_spill`` must not hold
    its input) and its requests interleave with the timed ops of the same
    run.  ``scale`` multiplies each sample (``sim_grid`` sorts the same
    keys once per grid cell)."""

    def __init__(self, key_files: list[Path], scale: int = 1):
        self.scale = scale
        self.samples_ms: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "npsort_helper.py"), *map(str, key_files)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("np.sort helper failed to start")

    @property
    def pid(self) -> int:
        return self._proc.pid

    def sample(self) -> None:
        self._proc.stdin.write("sort\n")
        self._proc.stdin.flush()
        self.samples_ms.append(float(self._proc.stdout.readline()) * self.scale)

    def median_ms(self) -> float:
        return median(self.samples_ms)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


# ----------------------------------------------------------------------
# Peak RSS
# ----------------------------------------------------------------------
def _parents() -> dict[int, int]:
    """pid -> parent pid of every process visible in ``/proc``."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # raced with an exiting process
            continue
        # The comm field may hold spaces and parentheses; ppid follows the
        # last ")" and the one-letter state.
        parent_of[int(entry)] = int(stat[stat.rindex(")") + 2 :].split()[1])
    return parent_of


def _children(pid: int) -> list[int]:
    return [p for p, pp in _parents().items() if pp == pid]


def _descendants(root_pid: int) -> list[int]:
    parent_of = _parents()
    out, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, pp in parent_of.items() if pp == pid]
        out += kids
        frontier += kids
    return out


def peak_rss_mb(exclude: tuple[int, ...] = ()) -> float:
    """Sum of ``VmHWM`` over this process and its live descendants, MB.
    Shared pages are counted once per process that mapped them."""
    total_kb = 0
    for pid in [os.getpid(), *_descendants(os.getpid())]:
        if pid in exclude:
            continue
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1e3


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _first_line_with(path: str, prefix: str) -> str:
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def llc_bytes() -> int:
    """Size of the last-level cache as the kernel reports it (0 if not)."""
    best_level, best = -1, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best_level and size.endswith("K"):
            best_level, best = level, int(size[:-1]) << 10
    return best


def cpu_ticks() -> tuple[int, int]:
    """(stolen, all) CPU ticks since boot, over every CPU.  The hypervisor
    reports as stolen the time a runnable vCPU waited for a physical core:
    a run during which this share rose was measured on a slower machine."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return fields[7], sum(fields)


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        _dev, mount, fstype = line.split()[:3]
        if target.startswith(mount) and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_meta(workdir: Path) -> dict:
    from repro.native import resolve_kernel
    from repro.native.pool import default_start_method

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _first_line_with("/proc/cpuinfo", "model name"),
        "llc_bytes": llc_bytes(),
        "ram_kb": _first_line_with("/proc/meminfo", "MemTotal").split()[0],
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernel": resolve_kernel().name,
        "n_workers": N_WORKERS,
        "pool_start_method": default_start_method(),
        "workdir_fs": fs_type(workdir),
        "git_commit": git_commit(),
    }


# ----------------------------------------------------------------------
# Leak audit
# ----------------------------------------------------------------------
def leak_candidates(workdir: Path) -> set[str]:
    """``repro_*`` shared-memory segments and ``repro_stream_*`` spill
    directories present right now.  A workload snapshots this before it
    starts; whatever is new afterwards outlived it."""
    found = {str(p) for p in workdir.rglob("repro_stream_*")}
    shm = Path("/dev/shm")
    if shm.is_dir():
        found |= {str(p) for p in shm.glob("repro_*")}
    return found
