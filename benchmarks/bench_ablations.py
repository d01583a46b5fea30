"""Ablation benchmarks: turn off one modeled mechanism at a time.

Each ablation zeroes one of the machine mechanisms the paper identifies
and checks that the corresponding headline result *disappears* -- evidence
that the reproduction gets the paper's effects from the paper's causes,
not from tuning coincidences.

- no protocol contention  -> the CC-SAS radix collapse vanishes (Fig 3/4)
- no staging copies       -> MPI-SGI ~ MPI-NEW (Fig 1)
- no 1-deep channel stall -> MPI SYNC drops toward SHMEM's (Fig 4)
- no TLB costs            -> the sequential baseline flattens, killing
                             most of the superlinearity (Fig 3)
"""

import pytest

from repro.core.experiment import ExperimentRunner, RunSpec, SIZES
from repro.machine.costs import DEFAULT_COSTS

SPEC_CCSAS = RunSpec("radix", "ccsas", SIZES["64M"], 64, 8)
SPEC_SHMEM = RunSpec("radix", "shmem", SIZES["64M"], 64, 8)
SPEC_SGI = RunSpec("radix", "mpi-sgi", SIZES["64M"], 64, 8)
SPEC_NEW = RunSpec("radix", "mpi-new", SIZES["64M"], 64, 8)


def _simulate(keys, model, machine):
    """Radix sort of ``keys`` at 64M labeled keys on 64 simulated
    processors; ``model`` may be a variant model object."""
    from repro.backend import SimulatedBackend, SortJob
    from repro.data.distributions import KEY_BITS

    return SimulatedBackend().run(
        SortJob(
            keys, "radix", model, n_procs=64, radix=8, machine=machine,
            n_labeled=SIZES["64M"], key_bits=KEY_BITS,
        )
    )


@pytest.fixture(scope="module")
def baseline():
    return ExperimentRunner(DEFAULT_COSTS)


def test_ablation_protocol_contention(benchmark, baseline):
    """Without protocol-transaction contention, scattered CC-SAS writes
    cost no more than bulk ones and the collapse disappears."""
    ablated_costs = DEFAULT_COSTS.scaled(
        scattered_write_contention=DEFAULT_COSTS.bulk_write_contention,
        scattered_write_contention_span=0.0,
    )

    def run():
        ablated = ExperimentRunner(ablated_costs)
        return (
            baseline.run(SPEC_CCSAS).time_ns / baseline.run(SPEC_SHMEM).time_ns,
            ablated.run(SPEC_CCSAS).time_ns / ablated.run(SPEC_SHMEM).time_ns,
        )

    with_contention, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nCC-SAS/SHMEM time ratio at 64M: {with_contention:.2f} with "
          f"contention, {without:.2f} without")
    assert with_contention > 2.0
    assert without < 1.5


def test_ablation_staging_copy(benchmark, baseline):
    """Without the staging copy and its overhead gap, SGI ~ NEW."""
    ablated_costs = DEFAULT_COSTS.scaled(
        mpi_sgi_overhead_ns=DEFAULT_COSTS.mpi_new_overhead_ns,
        mpi_sgi_ns_per_byte=DEFAULT_COSTS.mpi_new_ns_per_byte,
        mpi_sgi_stage_ns_per_byte=0.0,
        allgather_mpi_sgi_factor=DEFAULT_COSTS.allgather_mpi_new_factor,
    )

    def run():
        ablated = ExperimentRunner(ablated_costs)
        return (
            baseline.run(SPEC_SGI).time_ns / baseline.run(SPEC_NEW).time_ns,
            ablated.run(SPEC_SGI).time_ns / ablated.run(SPEC_NEW).time_ns,
        )

    with_copy, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nSGI/NEW time ratio at 64M: {with_copy:.2f} with staging, "
          f"{without:.2f} without")
    assert with_copy > 1.3
    assert without == pytest.approx(1.0, abs=0.05)


def test_ablation_channel_stall(benchmark, baseline):
    """Without the 1-deep channel drain, MPI's SYNC time shrinks."""
    ablated_costs = DEFAULT_COSTS.scaled(mpi_channel_drain_ns=0.0)

    def run():
        ablated = ExperimentRunner(ablated_costs)
        return (
            baseline.run(SPEC_NEW).report.category_means_ns()["SYNC"],
            ablated.run(SPEC_NEW).report.category_means_ns()["SYNC"],
        )

    with_stall, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nMPI mean SYNC at 64M: {with_stall / 1e6:.1f} ms with the "
          f"1-deep stall, {without / 1e6:.1f} ms without")
    assert without < with_stall


def test_ablation_tlb(benchmark):
    """Without TLB costs the sequential baseline loses its capacity
    growth, cutting the superlinear speedup."""
    ablated_costs = DEFAULT_COSTS.scaled(tlb_miss_ns=0.0)

    def run():
        base = ExperimentRunner(DEFAULT_COSTS)
        ablated = ExperimentRunner(ablated_costs)
        return (
            base.speedup(SPEC_SHMEM),
            ablated.speedup(SPEC_SHMEM),
        )

    with_tlb, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nSHMEM 64M/64p speedup: {with_tlb:.0f} with TLB costs, "
          f"{without:.0f} without")
    assert with_tlb > 64  # superlinear
    assert without < with_tlb - 10


def test_variant_mpi_message_strategy(benchmark):
    """The paper's Section 3.1 implementation tradeoff: one message per
    chunk (chosen) vs one packed message per destination (rejected)."""
    from repro.data import generate
    from repro.machine import MachineConfig
    from repro.models import MPINewModel

    machine = MachineConfig.origin2000(n_processors=64, scale=1)
    keys = generate("gauss", 1 << 17, 64)

    def run():
        times = {}
        for label, combine in (("per-chunk", False), ("per-dest", True)):
            out = _simulate(
                keys, MPINewModel(combine_messages=combine), machine
            )
            times[label] = out.time_ns
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nMPI radix 64M/64p: per-chunk {times['per-chunk'] / 1e6:.0f} ms, "
          f"per-destination {times['per-dest'] / 1e6:.0f} ms")
    assert times["per-chunk"] < times["per-dest"]


def test_variant_shmem_put_vs_get(benchmark):
    """Get deposits data in the requester's cache; put leaves it cold."""
    from repro.data import generate
    from repro.machine import MachineConfig
    from repro.models import SHMEMModel

    machine = MachineConfig.origin2000(n_processors=64, scale=1)
    keys = generate("gauss", 1 << 17, 64)

    def run():
        return {
            op: _simulate(keys, SHMEMModel(op=op), machine).time_ns
            for op in ("get", "put")
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nSHMEM radix 64M/64p: get {times['get'] / 1e6:.0f} ms, "
          f"put {times['put'] / 1e6:.0f} ms")
    assert times["get"] < times["put"]


def test_variant_page_placement(benchmark):
    """First-touch partition-local pages vs round-robin striping."""
    from repro.data import generate
    from repro.machine import MachineConfig

    keys = generate("gauss", 1 << 17, 64)

    def run():
        times = {}
        for policy in ("first-touch", "round-robin"):
            machine = MachineConfig.origin2000(
                n_processors=64, scale=1
            ).with_placement(policy)
            times[policy] = _simulate(keys, "shmem", machine).time_ns
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nSHMEM radix 64M/64p: first-touch "
          f"{times['first-touch'] / 1e6:.0f} ms, round-robin "
          f"{times['round-robin'] / 1e6:.0f} ms")
    assert times["first-touch"] < times["round-robin"]
