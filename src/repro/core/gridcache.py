"""Content-addressed on-disk cache for experiment grid cells.

Every figure/table of the paper is a cell of the same grid (algorithm x
model x size x p x radix x distribution), and the in-process memo of
:class:`~repro.core.experiment.ExperimentRunner` forgets everything at
exit.  :class:`GridCache` persists each cell's payload
(:class:`~repro.sorts.radix.SortOutcome`,
:class:`~repro.sorts.sequential.SequentialResult`) on disk, keyed by a
stable digest of everything that determines the result:

- the grid-cell key material (``RunSpec`` fields, sequential-baseline
  parameters),
- the :class:`~repro.machine.config.MachineConfig` the cell runs on,
- the :class:`~repro.machine.costs.CostModel` calibration constants,
- a fingerprint of the ``repro`` package's own source code, so editing
  any model/simulator module invalidates every cached result, and
- the entry schema version (:data:`SCHEMA_VERSION`).

The cache is shared between processes (the parallel ``run_many`` workers
write to it concurrently) and between invocations, so a repeated
``python -m repro table2`` is served from disk.  Loads are
corruption-tolerant by design: a truncated, bit-flipped, unpicklable or
schema-mismatched entry is treated as a miss (and deleted), never an
error -- the worst a bad cache can do is cost a recompute.  The fault
sites ``cache.corrupt``, ``cache.enospc`` and ``cache.eacces``
(:mod:`repro.faults`, docs/FAULTS.md) exercise exactly these degrade
paths deterministically.

Layout::

    <root>/v<SCHEMA_VERSION>/<kind>/<digest[:2]>/<digest>.pkl

where ``<root>`` is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro`` and
``kind`` groups entries ("run" for parallel grid cells, "seq" for
sequential baselines).  Each file is a small framed container::

    MAGIC | sha256(body) | body = pickle({schema, kind, fingerprint,
                                          key, payload})

Inspect and manage it with ``python -m repro cache {stats,clear,gc}``.
See docs/CACHE.md for the invalidation rules.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any, Iterator

from ..faults.context import fire, recovered

#: Bump when the entry framing or payload schema changes; old versions
#: live in sibling ``v<N>`` directories and are reaped by ``gc``.
SCHEMA_VERSION = 1

#: File magic: identifies the framing so stray files are never unpickled.
_MAGIC = b"repro-cache\x01"

_DIGEST_BYTES = 32  # sha256


# ----------------------------------------------------------------------
# Cache directory and code fingerprint
# ----------------------------------------------------------------------
def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Digest of every ``.py`` source in the installed ``repro`` package.

    Any edit to the simulator, cost model, sorts or data generators
    changes this value and therefore every cache key -- results computed
    by old code can never be served for new code.  Computed once per
    process.
    """
    global _fingerprint
    if _fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\x00")
            h.update(path.read_bytes())
            h.update(b"\x00")
        _fingerprint = h.hexdigest()
    return _fingerprint


# ----------------------------------------------------------------------
# Canonical key material
# ----------------------------------------------------------------------
def canonical_key(obj: Any) -> Any:
    """Reduce key material to JSON-stable plain data.

    Dataclasses (``RunSpec``, ``MachineConfig``, ``CostModel``, nested
    cache/TLB configs) become ``{"__dataclass__": name, **fields}`` maps
    so that two *different* types with identical field values cannot
    alias each other's entries.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__dataclass__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical_key(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): canonical_key(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical_key(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"unhashable cache key material: {type(obj).__name__}")


@dataclasses.dataclass
class CacheStats:
    """In-process counters plus an on-disk inventory snapshot."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0  # corrupt entries encountered (treated as misses)

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class GridCache:
    """Content-addressed persistent result cache (see module docstring).

    All I/O failure modes degrade to cache misses or dropped stores; a
    read-only or unwritable cache directory disables persistence without
    affecting results.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key_digest(self, kind: str, key_material: dict[str, Any]) -> str:
        """Stable hex digest of one entry's full identity."""
        doc = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": code_fingerprint(),
            "key": canonical_key(key_material),
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{SCHEMA_VERSION}"

    def path_for(self, kind: str, digest: str) -> Path:
        return self.version_dir / kind / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # Get / put
    # ------------------------------------------------------------------
    def get(self, kind: str, key_material: dict[str, Any]) -> Any | None:
        """The stored payload, or ``None`` on any miss (including a
        corrupt or stale entry, which is removed)."""
        digest = self.key_digest(kind, key_material)
        path = self.path_for(kind, digest)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        if fire("cache.corrupt"):
            # Degrade-to-recompute, exactly as a genuinely corrupt frame
            # would -- but keep the (actually fine) on-disk entry.  The
            # cache degrades by contract, so the fault is absorbed here.
            recovered("cache.corrupt")
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        entry = self._decode(raw)
        if (
            entry is None
            or entry.get("schema") != SCHEMA_VERSION
            or entry.get("kind") != kind
            or entry.get("fingerprint") != code_fingerprint()
        ):
            self.stats.errors += 1
            self.stats.misses += 1
            self._remove(path)
            return None
        self.stats.hits += 1
        return entry["payload"]

    def put(self, kind: str, key_material: dict[str, Any], payload: Any) -> bool:
        """Store ``payload``; returns False (without raising) if the
        cache directory is unwritable or the payload cannot pickle."""
        digest = self.key_digest(kind, key_material)
        path = self.path_for(kind, digest)
        entry = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": code_fingerprint(),
            "key": canonical_key(key_material),
            "payload": payload,
        }
        try:
            body = zlib.compress(
                pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL), 1
            )
        except Exception:
            self.stats.errors += 1
            return False
        framed = _MAGIC + hashlib.sha256(body).digest() + body
        for site in ("cache.enospc", "cache.eacces"):
            if fire(site):
                # Dropped store, exactly as the OSError path below.
                recovered(site)
                self.stats.errors += 1
                return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: concurrent run_many workers racing on the
            # same cell each write a private temp file; the losing rename
            # simply replaces an identical entry.
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(framed)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        return True

    def invalidate(self, kind: str, key_material: dict[str, Any]) -> None:
        """Drop one entry (used when a loaded payload fails validation)."""
        self._remove(self.path_for(kind, self.key_digest(kind, key_material)))

    # ------------------------------------------------------------------
    # Maintenance: stats / clear / gc
    # ------------------------------------------------------------------
    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        yield from self.root.glob("v*/*/*/*.pkl")

    def disk_stats(self) -> dict[str, Any]:
        """Inventory of what is on disk right now."""
        by_kind: dict[str, int] = {}
        total_bytes = 0
        n = 0
        stale = 0
        for path in self._entries():
            n += 1
            kind = path.parent.parent.name
            by_kind[kind] = by_kind.get(kind, 0) + 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            if path.parent.parent.parent.name != f"v{SCHEMA_VERSION}":
                stale += 1
        return {
            "root": str(self.root),
            "entries": n,
            "bytes": total_bytes,
            "by_kind": by_kind,
            "stale_schema": stale,
        }

    def clear(self) -> int:
        """Remove every entry (all schema versions); returns the count."""
        n = 0
        for path in list(self._entries()):
            if self._remove(path):
                n += 1
        self._prune_empty_dirs()
        return n

    def gc(self, max_age_days: float | None = None) -> dict[str, int]:
        """Reap entries that can no longer be served: corrupt frames,
        old schema versions, fingerprints of edited code -- plus, when
        ``max_age_days`` is given, anything older."""
        removed = {"corrupt": 0, "schema": 0, "fingerprint": 0, "aged": 0}
        now = time.time()
        current_fp = code_fingerprint()
        for path in list(self._entries()):
            if path.parent.parent.parent.name != f"v{SCHEMA_VERSION}":
                if self._remove(path):
                    removed["schema"] += 1
                continue
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            entry = self._decode(raw)
            if entry is None:
                if self._remove(path):
                    removed["corrupt"] += 1
                continue
            if entry.get("fingerprint") != current_fp:
                if self._remove(path):
                    removed["fingerprint"] += 1
                continue
            if max_age_days is not None:
                try:
                    age_s = now - path.stat().st_mtime
                except OSError:
                    continue
                if age_s > max_age_days * 86400.0:
                    if self._remove(path):
                        removed["aged"] += 1
        self._prune_empty_dirs()
        return removed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _decode(raw: bytes) -> dict[str, Any] | None:
        """Entry dict from a framed file, or ``None`` if invalid."""
        head = len(_MAGIC) + _DIGEST_BYTES
        if len(raw) < head or not raw.startswith(_MAGIC):
            return None
        digest = raw[len(_MAGIC) : head]
        body = raw[head:]
        if hashlib.sha256(body).digest() != digest:
            return None
        try:
            entry = pickle.loads(zlib.decompress(body))
        except Exception:
            return None
        return entry if isinstance(entry, dict) else None

    @staticmethod
    def _remove(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def _prune_empty_dirs(self) -> None:
        if not self.root.is_dir():
            return
        # Deepest-first so emptied parents become removable too.
        for d in sorted(
            (p for p in self.root.glob("v*/**/") if p.is_dir()),
            key=lambda p: len(p.parts),
            reverse=True,
        ):
            try:
                d.rmdir()  # only succeeds when empty
            except OSError:
                pass


def format_stats(cache: GridCache) -> str:
    """Human-readable ``cache stats`` rendering."""
    disk = cache.disk_stats()
    buf = io.StringIO()
    print(f"cache root     {disk['root']}", file=buf)
    print(f"entries        {disk['entries']}", file=buf)
    print(f"size           {disk['bytes'] / 1e6:,.2f} MB", file=buf)
    for kind, n in sorted(disk["by_kind"].items()):
        print(f"  {kind:<12} {n}", file=buf)
    if disk["stale_schema"]:
        print(f"stale schema   {disk['stale_schema']} (run 'cache gc')", file=buf)
    s = cache.stats
    print(
        f"this process   {s.hits} hits / {s.misses} misses "
        f"({s.hit_rate:.0%} hit rate), {s.stores} stores, "
        f"{s.errors} errors",
        file=buf,
    )
    return buf.getvalue().rstrip()
