"""Tests for the paper's secondary mechanism choices.

Three implementation alternatives the paper discusses and decides between:

1. MPI message strategy (Section 3.1): one message per contiguous chunk
   (chosen) vs one packed message per destination with receiver-side
   reorganization ("similar to the NAS IS algorithm"; rejected as slower
   on this machine).
2. SHMEM get vs put (Section 3.1): get chosen because it deposits data in
   the requester's cache.
3. Page placement: the SPMD programs rely on first-touch partition-local
   pages; round-robin striping makes "local" phases remote.
"""

import numpy as np
import pytest

from repro.backend import SimulatedBackend, SortJob
from repro.data import generate
from repro.data.distributions import KEY_BITS
from repro.machine import MachineConfig
from repro.models import MPINewModel, SHMEMModel

pytestmark = pytest.mark.integration

N_LAB = 1 << 26  # 64M labeled
SAMPLE = 1 << 16


def run(model, p=64, n_labeled=N_LAB, machine=None, radix=8):
    machine = machine or MachineConfig.origin2000(n_processors=p, scale=1)
    keys = generate("gauss", SAMPLE, p, radix=radix)
    return SimulatedBackend().run(
        SortJob(
            keys, "radix", model, n_procs=p, radix=radix, machine=machine,
            n_labeled=n_labeled, key_bits=KEY_BITS,
        )
    )


class TestMPIMessageStrategy:
    def test_per_chunk_wins_at_large_sizes(self):
        """The paper: 'Our experiments show that the latter [message per
        chunk] performs better than the former on this machine.'"""
        per_chunk = run(MPINewModel(combine_messages=False))
        combined = run(MPINewModel(combine_messages=True))
        assert per_chunk.time_ns < combined.time_ns

    def test_combined_sends_fewer_messages(self):
        per_chunk = run(MPINewModel(combine_messages=False))
        combined = run(MPINewModel(combine_messages=True))
        assert (
            combined.report.merged().messages
            < per_chunk.report.merged().messages
        )

    def test_both_sort_correctly(self):
        for combine in (False, True):
            out = run(MPINewModel(combine_messages=combine), n_labeled=None)
            assert np.all(np.diff(out.sorted_keys) >= 0)


class TestSHMEMPutVsGet:
    def test_get_beats_put(self):
        """Get warms the requester's cache for the next pass."""
        get = run(SHMEMModel(op="get"))
        put = run(SHMEMModel(op="put"))
        assert get.time_ns < put.time_ns

    def test_put_costs_show_as_cold_reads(self):
        get = run(SHMEMModel(op="get"))
        put = run(SHMEMModel(op="put"))
        assert (
            put.report.merged().lmem_ns > get.report.merged().lmem_ns
        )

    def test_put_sorts_correctly(self):
        out = run(SHMEMModel(op="put"), n_labeled=None)
        assert np.all(np.diff(out.sorted_keys) >= 0)

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            SHMEMModel(op="swap")


class TestPagePlacement:
    def test_round_robin_slower(self):
        ft = MachineConfig.origin2000(n_processors=64, scale=1)
        rr = ft.with_placement("round-robin")
        t_ft = run("shmem", machine=ft).time_ns
        t_rr = run("shmem", machine=rr).time_ns
        assert t_rr > 1.15 * t_ft

    def test_round_robin_charges_rmem(self):
        rr = MachineConfig.origin2000(n_processors=64, scale=1).with_placement(
            "round-robin"
        )
        out = run("shmem", machine=rr)
        base = run("shmem")
        assert out.report.merged().rmem_ns > base.report.merged().rmem_ns

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig.origin2000(64).with_placement("numa-magic")

    def test_single_node_round_robin_is_local(self):
        from repro.machine import partition_home

        m = MachineConfig(
            n_processors=2, procs_per_node=2, nodes_per_router=1,
            placement="round-robin",
        )
        assert partition_home(m).remote_fraction == 0.0
