"""The backend seam's contract, once for every backend.

:meth:`repro.backend.Backend.run` is the one run path: whatever the
substrate, a run names its backend, checks the accounting identity once,
hands a memory recorder's trace back, reports the fault delta of *this*
run, and round-trips widened workloads (float keys, record payloads).
"""

import numpy as np
import pytest

from repro.backend import SortJob, get_backend
from repro.data import generate
from repro.faults import FaultPlan, use_fault_plan
from repro.machine.zoo import get_machine
from repro.predict import PredictedBackend
from repro.trace import MemoryRecorder
from repro.verify import Sanitizer, use_sanitizer

P = 4
BACKENDS = ["sim", "predict", "native"]


def _backend(name):
    # Raw predictions: the contract does not depend on the calibration.
    if name == "predict":
        return PredictedBackend(calibration=False)
    return get_backend(name)


def _job(name, keys, **kw):
    # The native backend has no programming model (and warns if given one).
    model = "shmem" if name == "native" else "mpi-new"
    return SortJob(keys, "radix", model, n_procs=P, **kw)


@pytest.fixture(scope="module")
def keys():
    return generate("gauss", P * 256, P)


@pytest.mark.parametrize("name", BACKENDS)
class TestSeamContract:
    def test_names_itself_and_checks_the_identity_once(self, name, keys):
        job = SortJob(keys, "radix", n_procs=P)
        san = Sanitizer()
        with use_sanitizer(san):
            result = _backend(name).run(job)
            assert san.checks["report.accounting-identity"] == 1
            _backend(name).run(job)
            assert san.checks["report.accounting-identity"] == 2
        assert result.backend == name
        assert result.report.n_procs == P
        assert result.time_ns > 0

    def test_memory_recorder_captures_the_trace(self, name, keys):
        rec = MemoryRecorder()
        result = _backend(name).run(SortJob(keys, "sample", n_procs=P), recorder=rec)
        assert rec.events
        assert result.trace == tuple(rec.events)
        assert _backend(name).run(SortJob(keys, "sample", n_procs=P)).trace == ()

    def test_faults_are_this_runs_delta(self, name, keys):
        """Under an ambient plan ``faults`` counts this run only (the
        scripted drop fires on the first simulated MPI message, once);
        without a plan it is ``None``."""
        plan = FaultPlan.scripted({"channel.drop": [0]})
        with use_fault_plan(plan):
            first = _backend(name).run(_job(name, keys))
            second = _backend(name).run(_job(name, keys))
        expected = {"channel.drop": 1} if name == "sim" else {}
        assert np.array_equal(first.sorted_keys, np.sort(keys))
        assert first.faults is not None and second.faults is not None
        assert first.faults.injected == expected
        assert first.faults.all_recovered
        assert second.faults.injected == {}
        assert plan.stats().injected == expected
        assert _backend(name).run(_job(name, keys)).faults is None

    def test_float_keys_and_payload_round_trip(self, name, keys):
        floats = np.random.default_rng(1).normal(size=len(keys))
        payload = np.arange(len(keys))
        result = _backend(name).run(_job(name, floats, payload=payload))
        order = np.argsort(floats, kind="stable")
        assert np.array_equal(result.sorted_keys, floats[order])
        assert np.array_equal(result.payload, payload[order])
        assert result.backend == name

    def test_unknown_algorithm_rejected(self, name, keys):
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            _backend(name).run(SortJob(keys, algorithm="bogus", n_procs=P))


@pytest.mark.parametrize("name", ["sim", "predict"])
def test_processor_count_defaults_to_the_machines(name, keys):
    machine = get_machine("origin2000", n_procs=P)
    result = _backend(name).run(SortJob(keys, machine=machine))
    assert result.n_procs == P
    assert np.array_equal(result.sorted_keys, np.sort(keys))
