"""The registered ``predict`` backend: parity with the simulator,
structural invariants, and the ignored-field warnings at the seam."""

import warnings

import numpy as np
import pytest

from repro.backend import SortJob, get_backend
from repro.core.experiment import RADIX_MODELS, SAMPLE_MODELS
from repro.data import generate
from repro.predict import PredictedBackend
from repro.verify import Sanitizer, use_sanitizer

N, P = 16 * 128, 16

#: Uncalibrated tolerance on total time vs. the simulator.  CC-SAS
#: exchanges reuse the simulator's code paths exactly; the MPI/SHMEM
#: closed forms were fitted well under this band.
PARITY_RTOL = 0.10


@pytest.fixture(scope="module")
def keys():
    return generate("gauss", N, P, radix=8)


def _cases():
    for model in RADIX_MODELS:
        yield "radix", model
    for model in SAMPLE_MODELS:
        yield "sample", model


class TestParity:
    @pytest.mark.parametrize("algorithm,model", list(_cases()))
    def test_predicted_time_matches_simulated(self, keys, algorithm, model):
        job = SortJob(keys=keys, algorithm=algorithm, model=model, n_procs=P)
        sim = get_backend("sim").run(job)
        pred = PredictedBackend(calibration=False).run(job)
        assert np.array_equal(pred.sorted_keys, sim.sorted_keys)
        assert pred.time_ns == pytest.approx(sim.time_ns, rel=PARITY_RTOL)

    def test_ccsas_reuses_simulated_exchange_exactly(self, keys):
        """One program, two teams: CC-SAS has no closed-form stand-in, so
        the same ``measure`` + ``drive`` yields bit-identical reports."""
        job = SortJob(keys=keys, algorithm="radix", model="ccsas", n_procs=P)
        sim = get_backend("sim").run(job)
        pred = PredictedBackend(calibration=False).run(job)
        assert pred.time_ns == sim.time_ns
        assert pred.report.category_means_ns() == sim.report.category_means_ns()


class TestStructure:
    def test_identity_survives_calibration(self, keys):
        """Scaling outcome arrays by calibration factors must not break
        the per-processor accounting."""
        from repro.predict import Calibration

        cal = Calibration(
            version=1,
            factors={
                "radix/mpi-new": {
                    "BUSY": 1.1, "LMEM": 0.9, "RMEM": 1.2, "SYNC": 0.8,
                }
            },
            error={},
            meta={},
        )
        san = Sanitizer()
        with use_sanitizer(san):
            PredictedBackend(calibration=cal).run(
                SortJob(keys=keys, algorithm="radix", model="mpi-new", n_procs=P)
            )
        assert san.checks["report.accounting-identity"] > 0


class TestFamilyMode:
    def test_empty_keys_with_distribution(self):
        result = PredictedBackend(calibration=False).run(
            SortJob(
                keys=np.empty(0, dtype=np.int64),
                algorithm="radix",
                model="shmem",
                n_procs=16,
                n_labeled=1 << 22,
                distribution="gauss",
            )
        )
        assert result.time_ns > 0
        assert len(result.sorted_keys) == 0

    def test_empty_keys_without_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            PredictedBackend(calibration=False).run(
                SortJob(keys=np.empty(0, dtype=np.int64), algorithm="radix")
            )

    def test_paper_scale_is_fast(self):
        """256M x 64p predicts without materializing 256M keys."""
        import time

        t0 = time.perf_counter()
        result = PredictedBackend(calibration=False).run(
            SortJob(
                keys=np.empty(0, dtype=np.int64),
                algorithm="radix",
                model="shmem",
                n_procs=64,
                n_labeled=1 << 28,
                distribution="gauss",
            )
        )
        assert result.time_ns > 0
        assert time.perf_counter() - t0 < 30.0  # seconds of slack in CI


class TestInputValidation:
    def test_negative_keys_rejected(self):
        keys = np.array([-1, 2, 3, 4] * (N // 4), dtype=np.int64)
        with pytest.raises(ValueError, match="non-negative"):
            PredictedBackend(calibration=False).run(
                SortJob(keys=keys, algorithm="radix", n_procs=P)
            )

    def test_float_keys_transformed(self):
        # Floats now go through the order-preserving transform at the
        # seam; dtypes with no such mapping are still rejected.
        keys = np.linspace(0, 1, N)
        result = PredictedBackend(calibration=False).run(
            SortJob(keys=keys, algorithm="radix", n_procs=P)
        )
        assert np.array_equal(result.sorted_keys, np.sort(keys))
        with pytest.raises(TypeError, match="integer"):
            PredictedBackend(calibration=False).run(
                SortJob(keys=np.ones(N, dtype=complex), n_procs=P)
            )


class TestIgnoredFieldWarnings:
    def test_native_warns_on_sim_only_fields(self, keys):
        with pytest.warns(RuntimeWarning, match="model"):
            get_backend("native").run(
                SortJob(keys=keys[:64], algorithm="sample", model="ccsas")
            )

    def test_sim_warns_on_distribution(self, keys):
        with pytest.warns(RuntimeWarning, match="distribution"):
            get_backend("sim").run(
                SortJob(
                    keys=keys, algorithm="radix", n_procs=P,
                    distribution="gauss",
                )
            )

    def test_sim_silent_on_applicable_fields(self, keys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            get_backend("sim").run(
                SortJob(keys=keys, algorithm="radix", model="ccsas", n_procs=P)
            )

    def test_predict_accepts_all_fields_silently(self, keys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            PredictedBackend(calibration=False).run(
                SortJob(
                    keys=keys, algorithm="radix", model="shmem", n_procs=P,
                    key_bits=20,
                )
            )
