"""Integration tests: the paper's qualitative results must reproduce.

Each test asserts one claim from the paper's evaluation (Section 4) on a
reduced grid.  Absolute numbers are not asserted -- who wins, rough
factors and crossovers are (DESIGN.md Section 5).
"""

import pytest

from repro.core.experiment import SIZE_ORDER, SIZES
from repro.data.distributions import PAPER_ORDER

pytestmark = pytest.mark.integration


class TestTable1Baseline:
    def test_sequential_times_within_factor_two_of_paper(self, runner):
        from repro.report.experiments import PAPER_TABLE1_US

        for label, paper_us in PAPER_TABLE1_US.items():
            seq_us = runner.sequential(SIZES[label]).time_ns / 1e3
            assert 0.5 < seq_us / paper_us < 2.0, label

    def test_times_grow_with_size(self, runner):
        times = [runner.sequential(SIZES[label]).time_ns for label in SIZE_ORDER]
        assert times == sorted(times)

    def test_per_key_time_grows_with_size(self, runner):
        seq_1m = runner.sequential(SIZES["1M"])
        seq_64m = runner.sequential(SIZES["64M"])
        per_key_1m = seq_1m.time_ns / seq_1m.n_labeled
        per_key_64m = seq_64m.time_ns / seq_64m.n_labeled
        assert per_key_64m > per_key_1m


class TestFigure1MPIImplementations:
    def test_new_beats_sgi_everywhere(self, speedup):
        for size in ("1M", "64M"):
            for p in (16, 64):
                assert speedup("radix", "mpi-new", size, p, 8) > speedup(
                    "radix", "mpi-sgi", size, p, 8
                )

    def test_gap_widens_with_processors(self, speedup):
        gap16 = speedup("radix", "mpi-new", "1M", 16, 8) / speedup(
            "radix", "mpi-sgi", "1M", 16, 8
        )
        gap64 = speedup("radix", "mpi-new", "1M", 64, 8) / speedup(
            "radix", "mpi-sgi", "1M", 64, 8
        )
        assert gap64 > gap16


class TestFigure2SampleMPI:
    def test_new_beats_sgi(self, speedup):
        for size in ("1M", "64M"):
            assert speedup("sample", "mpi-new", size, 64, 11) > speedup(
                "sample", "mpi-sgi", size, 64, 11
            )

    def test_gap_smaller_than_radix(self, speedup):
        """Sample sort has one communication phase and two local sorts, so
        the MPI implementation matters less (Section 4.1)."""
        radix_gap = speedup("radix", "mpi-new", "64M", 64, 8) / speedup(
            "radix", "mpi-sgi", "64M", 64, 8
        )
        sample_gap = speedup("sample", "mpi-new", "64M", 64, 11) / speedup(
            "sample", "mpi-sgi", "64M", 64, 11
        )
        assert sample_gap < radix_gap


class TestFigure3RadixModels:
    def test_shmem_best_at_large_sizes(self, run_time):
        for size in ("16M", "64M"):
            t_shmem = run_time("radix", "shmem", size, 64, 8)
            for other in ("ccsas", "ccsas-new", "mpi-new", "mpi-sgi"):
                assert t_shmem < run_time("radix", other, size, 64, 8), (size, other)

    def test_ccsas_best_at_1m_high_p(self, run_time):
        """The paper's exception: CC-SAS wins the smallest data set."""
        t_cc = run_time("radix", "ccsas", "1M", 64, 8)
        for other in ("ccsas-new", "mpi-new", "mpi-sgi", "shmem"):
            assert t_cc < run_time("radix", other, "1M", 64, 8), other

    def test_ccsas_new_inferior_to_original_at_1m(self, run_time):
        """Section 4.2.1: buffering costs more than it saves at 1M keys."""
        assert run_time("radix", "ccsas-new", "1M", 64, 8) > run_time(
            "radix", "ccsas", "1M", 64, 8
        )

    def test_ccsas_collapses_at_large_sizes(self, speedup):
        """The original CC-SAS program's scattered remote writes: far below
        SHMEM at 64M (factor ~3 in the paper)."""
        ratio = speedup("radix", "shmem", "64M", 64, 8) / speedup(
            "radix", "ccsas", "64M", 64, 8
        )
        assert ratio > 2.0

    def test_ccsas_new_recovers_most_of_the_gap(self, speedup):
        s_new = speedup("radix", "ccsas-new", "64M", 64, 8)
        s_old = speedup("radix", "ccsas", "64M", 64, 8)
        s_shmem = speedup("radix", "shmem", "64M", 64, 8)
        assert s_old < s_new < s_shmem

    def test_superlinear_speedups_at_16m_and_up(self, speedup):
        """Capacity-induced superlinearity (the paper reports ~2x)."""
        for size in ("16M", "64M"):
            assert speedup("radix", "shmem", size, 64, 8) > 64

    def test_no_superlinearity_at_1m(self, speedup):
        assert speedup("radix", "shmem", "1M", 64, 8) < 64

    def test_mpi_between_ccsas_and_shmem_at_64m(self, speedup):
        s = {
            m: speedup("radix", m, "64M", 64, 8)
            for m in ("ccsas", "mpi-new", "shmem")
        }
        assert s["ccsas"] < s["mpi-new"] < s["shmem"]


class TestFigure4Breakdown:
    def test_ccsas_dominated_by_mem(self, report_of):
        rep = report_of("radix", "ccsas", "64M", 64, 8)
        fr = rep.category_fractions()
        assert fr["LMEM"] + fr["RMEM"] > 0.5

    def test_shmem_dominated_by_busy(self, report_of):
        fr = report_of("radix", "shmem", "64M", 64, 8).category_fractions()
        assert fr["BUSY"] > 0.5

    def test_mpi_sync_exceeds_shmem_sync(self, report_of):
        mpi = report_of("radix", "mpi-new", "64M", 64, 8).category_means_ns()
        shm = report_of("radix", "shmem", "64M", 64, 8).category_means_ns()
        assert mpi["SYNC"] > 1.5 * shm["SYNC"]

    def test_ccsas_mem_absolute_exceeds_others(self, report_of):
        cc = report_of("radix", "ccsas", "64M", 64, 8).category_means_ns()
        shm = report_of("radix", "shmem", "64M", 64, 8).category_means_ns()
        assert cc["LMEM"] + cc["RMEM"] > 3 * (shm["LMEM"] + shm["RMEM"])


class TestFigure5RadixDistributions:
    def test_local_is_best(self, run_time):
        for size in ("1M", "64M"):
            row = {
                d: run_time("radix", "shmem", size, 64, 8, d)
                for d in PAPER_ORDER
            }
            assert min(row, key=row.get) == "local", size

    def test_realistic_distributions_similar(self, run_time):
        base = run_time("radix", "shmem", "16M", 64, 8, "gauss")
        for d in ("random", "zero", "bucket", "stagger"):
            rel = run_time("radix", "shmem", "16M", 64, 8, d) / base
            assert 0.8 < rel < 1.2, d

    def test_remote_gains_at_256m(self, run_time):
        """Section 4.2.2: remote counter-intuitively beats gauss at 256M
        via spatial locality in the local permutation."""
        rel_256 = run_time("radix", "shmem", "256M", 64, 8, "remote") / run_time(
            "radix", "shmem", "256M", 64, 8, "gauss"
        )
        rel_16 = run_time("radix", "shmem", "16M", 64, 8, "remote") / run_time(
            "radix", "shmem", "16M", 64, 8, "gauss"
        )
        assert rel_256 < rel_16
        assert rel_256 < 1.0


class TestFigure6RadixSize:
    def test_small_radix_wins_small_sizes(self, run_time):
        """At 1M, extra passes beat extra messages: r<=8 beats r=12."""
        assert run_time("radix", "shmem", "1M", 64, 8) < run_time(
            "radix", "shmem", "1M", 64, 12
        )

    def test_large_radix_wins_large_sizes(self, run_time):
        assert run_time("radix", "shmem", "256M", 64, 12) < run_time(
            "radix", "shmem", "256M", 64, 8
        )

    def test_optimal_radix_grows_with_size(self, run_time):
        def best(size):
            return min(range(6, 13), key=lambda r: run_time("radix", "shmem", size, 64, r))

        assert best("1M") in (7, 8)
        assert best("256M") in (11, 12)

    def test_radix8_good_everywhere(self, run_time):
        """'The performance of radix 8 is quite good across all the data
        set sizes' -- within 1.6x of the best."""
        for size in ("1M", "16M", "256M"):
            times = {r: run_time("radix", "shmem", size, 64, r) for r in range(6, 13)}
            assert times[8] < 1.6 * min(times.values()), size


class TestFigure7SampleModels:
    def test_ccsas_best_at_small_sizes(self, run_time):
        t_cc = run_time("sample", "ccsas", "1M", 64, 11)
        for other in ("mpi-new", "mpi-sgi", "shmem"):
            assert t_cc < run_time("sample", other, "1M", 64, 11)

    def test_ccsas_similar_to_shmem_at_large(self, run_time):
        t_cc = run_time("sample", "ccsas", "64M", 64, 11)
        t_shm = run_time("sample", "shmem", "64M", 64, 11)
        assert abs(t_cc - t_shm) / t_shm < 0.15

    def test_mpi_behind(self, run_time):
        for size in ("1M", "64M"):
            t_mpi = run_time("sample", "mpi-new", size, 64, 11)
            for other in ("ccsas", "shmem"):
                assert t_mpi > run_time("sample", other, size, 64, 11)


class TestFigure8SampleBreakdown:
    def test_busy_fraction_exceeds_radix(self, report_of):
        """Two local sorts: BUSY dominates more than in radix sort."""
        sample_busy = report_of("sample", "shmem", "64M", 64, 11).category_fractions()["BUSY"]
        assert sample_busy > 0.55

    def test_busy_dominates_every_model(self, report_of):
        for m in ("ccsas", "mpi-new", "shmem"):
            fr = report_of("sample", m, "64M", 64, 11).category_fractions()
            assert fr["BUSY"] > 0.5, m

    def test_models_closer_than_radix(self, report_of):
        s_tot = [
            report_of("sample", m, "64M", 64, 11).total_time_ns
            for m in ("ccsas", "mpi-new", "shmem")
        ]
        r_tot = [
            report_of("radix", m, "64M", 64, 8).total_time_ns
            for m in ("ccsas", "mpi-new", "shmem")
        ]
        assert max(s_tot) / min(s_tot) < max(r_tot) / min(r_tot)


class TestFigure9SampleDistributions:
    def test_local_best(self, run_time):
        t_local = run_time("sample", "ccsas", "256M", 64, 11, "local")
        for d in ("gauss", "random", "zero"):
            assert t_local < run_time("sample", "ccsas", "256M", 64, 11, d)

    def test_zero_not_catastrophic(self, run_time):
        """Duplicate splitters must be balanced (10% equal keys)."""
        rel = run_time("sample", "ccsas", "64M", 64, 11, "zero") / run_time(
            "sample", "ccsas", "64M", 64, 11, "gauss"
        )
        assert rel < 1.3

    def test_locality_effect_grows_with_size(self, run_time):
        rel_1m = run_time("sample", "ccsas", "1M", 64, 11, "local") / run_time(
            "sample", "ccsas", "1M", 64, 11, "gauss"
        )
        rel_256m = run_time("sample", "ccsas", "256M", 64, 11, "local") / run_time(
            "sample", "ccsas", "256M", 64, 11, "gauss"
        )
        assert rel_256m < rel_1m
        assert rel_256m < 0.95

    def test_no_distribution_effect_at_1m(self, run_time):
        rel = run_time("sample", "ccsas", "1M", 64, 11, "random") / run_time(
            "sample", "ccsas", "1M", 64, 11, "gauss"
        )
        assert abs(rel - 1.0) < 0.2


class TestFigure10SampleRadixSize:
    def test_r11_beats_small_radixes(self, run_time):
        for r in (6, 7, 8):
            assert run_time("sample", "ccsas", "16M", 64, 11) < run_time(
                "sample", "ccsas", "16M", 64, r
            )

    def test_best_to_worst_within_factor_two(self, run_time):
        times = [run_time("sample", "ccsas", "16M", 64, r) for r in range(6, 13)]
        assert max(times) / min(times) < 2.1

    def test_best_radix_is_11_or_12_at_every_size(self, run_time):
        for size in ("1M", "16M", "256M"):
            times = {
                r: run_time("sample", "ccsas", size, 64, r)
                for r in range(6, 13)
            }
            assert min(times, key=times.get) in (11, 12), size
            assert max(times.values()) / min(times.values()) < 2.2, size


class TestTables2And3Conclusions:
    def test_sample_wins_small_radix_wins_large_at_64p(self, run_time):
        """'sample sort is better than radix sort up to 64K integers per
        processor ... and becomes worse after that point' -- at 64
        processors our crossover sits at 1M total keys (16K/proc)."""
        best_radix_1m = min(
            run_time("radix", m, "1M", 64, 8)
            for m in ("ccsas", "ccsas-new", "shmem", "mpi-new")
        )
        best_sample_1m = min(
            run_time("sample", m, "1M", 64, 11) for m in ("ccsas", "shmem", "mpi-new")
        )
        assert best_sample_1m < best_radix_1m

        best_radix_64m = min(
            run_time("radix", m, "64M", 64, 8)
            for m in ("ccsas", "ccsas-new", "shmem", "mpi-new")
        )
        best_sample_64m = min(
            run_time("sample", m, "64M", 64, 11) for m in ("ccsas", "shmem", "mpi-new")
        )
        assert best_radix_64m < best_sample_64m

    def test_radix_wins_1m_at_16p(self, run_time):
        """At 16 processors (64K keys/proc) radix already wins 1M, as in
        the paper's Table 2 (63.2ms vs 74.3ms)."""
        assert run_time("radix", "ccsas", "1M", 16, 8) < run_time(
            "sample", "ccsas", "1M", 16, 11
        )

    def test_headline_combinations(self, run_time):
        """'The best combination is sample sort under CC-SAS for smaller
        data sets and radix sort under SHMEM for larger data sets.'"""
        cells_1m = {
            ("sample", "ccsas"): run_time("sample", "ccsas", "1M", 64, 11),
            ("radix", "shmem"): run_time("radix", "shmem", "1M", 64, 8),
            ("radix", "mpi-new"): run_time("radix", "mpi-new", "1M", 64, 8),
            ("sample", "mpi-new"): run_time("sample", "mpi-new", "1M", 64, 11),
        }
        assert min(cells_1m, key=cells_1m.get) == ("sample", "ccsas")
        cells_64m = {
            ("sample", "ccsas"): run_time("sample", "ccsas", "64M", 64, 11),
            ("radix", "shmem"): run_time("radix", "shmem", "64M", 64, 8),
            ("radix", "mpi-new"): run_time("radix", "mpi-new", "64M", 64, 8),
            ("sample", "shmem"): run_time("sample", "shmem", "64M", 64, 11),
        }
        assert min(cells_64m, key=cells_64m.get) == ("radix", "shmem")


class TestSummaryBestCombinations:
    """Section 4.4 over the six algorithm x model combinations the
    ``summary`` experiment compares."""

    COMBOS = [
        ("radix", "ccsas", 8), ("radix", "shmem", 8), ("radix", "mpi-new", 8),
        ("sample", "ccsas", 11), ("sample", "shmem", 11),
        ("sample", "mpi-new", 11),
    ]

    def test_sample_ccsas_small_radix_shmem_large(self, run_time):
        def winner(size):
            cell = {
                (alg, m): run_time(alg, m, size, 64, r)
                for alg, m, r in self.COMBOS
            }
            return min(cell, key=cell.get)

        assert winner("1M") == ("sample", "ccsas")
        for size in ("16M", "64M", "256M"):
            assert winner(size) == ("radix", "shmem"), size
