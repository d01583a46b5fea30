"""Suite-wide fixtures: opt-in runtime sanitization.

``pytest --sanitize`` installs a :class:`repro.verify.Sanitizer` around
every test, so the whole suite doubles as a stress workload for the
invariant checker (CI runs one job this way).  Individual tests can opt
in with ``@pytest.mark.sanitize`` or out with ``@pytest.mark.no_sanitize``
(for tests that deliberately corrupt state the sanitizer would catch
before the assertion under test).

The sanitizer is installed via ``pytest_runtest_setup``/``teardown``
hooks rather than an autouse function-scoped fixture so Hypothesis
``@given`` tests are not flagged by its function-scoped-fixture health
check: one sanitizer then spans all examples of a test, which is exactly
the semantics we want.

An explicit ``sanitizer`` fixture is also provided for tests that want to
inspect the check counters afterwards.
"""

from __future__ import annotations

import gc
import tempfile
from pathlib import Path

import pytest

from repro.verify import Sanitizer, use_sanitizer

_ACTIVE: dict[str, object] = {}

_SHM_DIR = Path("/dev/shm")

_TMP_DIR = Path(tempfile.gettempdir())


def _shm_segments() -> set[str]:
    """POSIX shared-memory segments currently backing this host
    (``psm_*`` is CPython's ``multiprocessing.shared_memory`` prefix;
    ``repro_*`` covers the job server's named arena slabs)."""
    if not _SHM_DIR.is_dir():
        return set()
    return {
        p.name
        for pattern in ("psm_*", "repro_*")
        for p in _SHM_DIR.glob(pattern)
    }


@pytest.fixture(scope="session", autouse=True)
def _shm_leak_audit():
    """Fail the suite if any test leaks a shared-memory segment.

    ``SharedArray`` owners must unlink their block exactly once; a
    crashed worker or an exception path that skips ``close()`` leaves a
    ``psm_*`` file -- or, for the job server's arena, a ``repro_slab_*``
    file -- in ``/dev/shm`` that outlives the process (the attach
    paths deliberately bypass the resource tracker, see
    ``repro.native.shm``).  Auditing the directory at session end turns
    any such leak into a hard suite failure instead of silent host-memory
    growth -- exactly what the fault-injection tests must prove cannot
    happen.
    """
    before = _shm_segments()
    yield
    gc.collect()  # drop forgotten SharedArray views before inspecting
    leaked = sorted(_shm_segments() - before)
    if leaked:
        raise RuntimeError(
            f"test suite leaked {len(leaked)} shared-memory segment(s) "
            f"in {_SHM_DIR}: {leaked}"
        )


def _spill_orphans() -> set[str]:
    """Out-of-core spill state in the system temp dir: per-sort
    ``repro_stream_*`` workdirs and any stray ``repro_run_*`` run file
    (or its ``.tmp`` partial) written outside one."""
    return {
        p.name
        for pattern in ("repro_stream_*", "repro_run_*")
        for p in _TMP_DIR.glob(pattern)
    }


@pytest.fixture(scope="session", autouse=True)
def _spill_leak_audit():
    """Fail the suite if any test leaks external-sort spill state.

    ``external_sort`` and serve's :class:`StreamSession` must remove
    their ``repro_stream_*`` workdir on every path -- including
    mid-merge exceptions, injected ``spill.*`` faults, and aborted
    serve streams.  An orphaned run file is silent disk growth, so the
    audit turns it into a hard suite failure (the tmpdir counterpart of
    the ``/dev/shm`` audit above).
    """
    before = _spill_orphans()
    yield
    gc.collect()
    leaked = sorted(_spill_orphans() - before)
    if leaked:
        raise RuntimeError(
            f"test suite leaked {len(leaked)} spill file(s)/dir(s) "
            f"in {_TMP_DIR}: {leaked}"
        )


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Point the persistent grid cache at a per-session temp directory so
    tests never read from or write to the user's real ~/.cache/repro."""
    import os

    path = tmp_path_factory.mktemp("repro-cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="run every test under the repro.verify runtime sanitizer",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "sanitize: run this test under the runtime sanitizer"
    )
    config.addinivalue_line(
        "markers",
        "no_sanitize: never sanitize this test (it corrupts state on "
        "purpose)",
    )
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection / resilience test (CI also runs the "
        "'-m chaos' subset as its own job)",
    )


def _wants_sanitizer(item) -> bool:
    if item.get_closest_marker("no_sanitize") is not None:
        return False
    if item.get_closest_marker("sanitize") is not None:
        return True
    return bool(item.config.getoption("--sanitize"))


def pytest_runtest_setup(item):
    if not _wants_sanitizer(item):
        return
    cm = use_sanitizer(Sanitizer())
    cm.__enter__()
    _ACTIVE[item.nodeid] = cm


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item, nextitem):
    # After the fixture finalizers: the ``sanitizer`` fixture nests its
    # own install inside this one, so it must be restored first -- or it
    # would put this test's sanitizer back for every later test.
    cm = _ACTIVE.pop(item.nodeid, None)
    if cm is not None:
        cm.__exit__(None, None, None)


@pytest.fixture
def sanitizer():
    """A fresh sanitizer installed for the duration of the test; yields
    the :class:`~repro.verify.Sanitizer` so the test can assert on its
    ``checks`` counters and recorded ``violations``."""
    san = Sanitizer()
    with use_sanitizer(san):
        yield san


@pytest.fixture
def host_model(monkeypatch, tmp_path):
    """Install a native host model for this host.

    Yields ``install(preset, **fields)``: writes a ``native_plan.json``
    (into a private ``REPRO_CACHE_DIR``) whose constants make ``preset``
    the plan of every unpinned sort that may take it -- ``"sequential"``,
    ``"sample"``, or ``"radix"`` at the widest digit width allowed (keys
    radix may not touch then plan ``sequential``); ``fields`` replace or
    add document fields (``host=``, ``residual=``, a key the model does
    not have).  Returns the artifact's path.
    """
    import json
    import os

    from repro.native.plan import default_model_path, host_fingerprint

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    installs: list[str] = []
    presets = {
        "sequential": {"sort_ns": 0.0},  # nothing beats a free np.sort
        "sample": {"histogram_ns": 1e9},
        "radix": {"sort_ns": 1e3, "merge_ns": 1e9},  # fewest passes wins
    }

    def install(preset: str, **fields):
        doc = {
            "sort_ns": 1.0, "copy_in_ns": 0.0, "copy_out_ns": 0.0,
            "floor_ns": 0.0, "merge_ns": 0.0, "histogram_ns": 1.0,
            "scatter_ns": 1.0, "bucket_ns": 0.0, "residual": 0.0,
            "host": host_fingerprint(), **presets[preset], **fields,
        }
        path = default_model_path()  # in tmp_path: REPRO_CACHE_DIR
        path.write_text(json.dumps(doc))
        # The loader memoizes on (mtime, size); two installs inside one
        # timestamp tick must still read as different files.
        installs.append(preset)
        os.utime(path, ns=(len(installs), len(installs)))
        return path

    return install
