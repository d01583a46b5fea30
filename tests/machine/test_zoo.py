"""The machine-model zoo registry (docs/MACHINES.md): resolution,
aliases, per-kind cost shape, transport gating, and the grid plumbing."""

import numpy as np
import pytest

from repro.machine.config import MACHINE_KINDS, MachineConfig
from repro.machine.zoo import (
    MACHINES,
    SUPPORTED_MODELS,
    UnsupportedTransportError,
    check_transport,
    get_machine,
    supported_models,
)
from repro.smp.phases import Transport


class TestRegistry:
    def test_every_member_resolves_to_its_kind(self):
        kinds = {
            "origin2000": "ccdsm",
            "multicore": "multicore",
            "bsp": "bsp",
            "ap1000": "ap1000",
        }
        assert set(MACHINES) == set(kinds)
        for name, kind in kinds.items():
            machine = get_machine(name, n_procs=16)
            assert machine.kind == kind
            assert machine.n_processors == 16
            assert machine.kind in MACHINE_KINDS

    @pytest.mark.parametrize(
        "alias,canonical",
        [("origin", "origin2000"), ("o2k", "origin2000"), ("smp", "multicore"),
         ("llc", "multicore"), ("bsp-gl", "bsp"), ("ap-1000", "ap1000"),
         ("AP1000", "ap1000")],
    )
    def test_aliases_and_case(self, alias, canonical):
        assert get_machine(alias, n_procs=8) == get_machine(canonical, n_procs=8)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown machine"):
            get_machine("cray-t3e")

    def test_page_bytes_tunes_origin_only(self):
        o2k = get_machine("origin2000", n_procs=16, page_bytes=64 * 1024)
        assert o2k.page_bytes == 64 * 1024
        # Kinds without a meaningful page abstraction ignore the knob.
        assert (
            get_machine("bsp", n_procs=16, page_bytes=64 * 1024)
            == get_machine("bsp", n_procs=16)
        )


class TestKindShape:
    def test_multicore_is_one_uniform_node(self):
        m = get_machine("multicore", n_procs=8)
        assert m.n_nodes == 1
        assert m.remote_base_ns == 0.0

    def test_bsp_carries_g_and_l(self):
        m = MachineConfig.bsp(n_processors=8, g_ns_per_byte=3.0, l_ns=700.0)
        assert (m.bsp_g_ns_per_byte, m.bsp_l_ns) == (3.0, 700.0)
        with pytest.raises(ValueError, match="positive g and L"):
            MachineConfig.bsp(n_processors=8, g_ns_per_byte=0.0)

    def test_ap1000_is_one_proc_per_node(self):
        m = get_machine("ap1000", n_procs=16)
        assert m.procs_per_node == 1
        assert m.n_nodes == 16

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown machine kind"):
            MachineConfig(kind="quantum")


class TestTransportGating:
    def test_ap1000_supports_only_message_passing(self):
        assert SUPPORTED_MODELS["ap1000"] == ("mpi-new", "mpi-sgi")
        assert supported_models(get_machine("ap1000")) == ("mpi-new", "mpi-sgi")
        assert supported_models(get_machine("multicore")) is None

    @pytest.mark.parametrize(
        "transport",
        [Transport.CCSAS_SCATTERED, Transport.CCSAS_BULK, Transport.CCSAS_READ,
         Transport.SHMEM_GET, Transport.SHMEM_PUT],
    )
    def test_shared_address_transports_rejected_on_ap1000(self, transport):
        with pytest.raises(UnsupportedTransportError) as exc_info:
            check_transport(get_machine("ap1000"), transport)
        assert exc_info.value.machine_kind == "ap1000"
        assert exc_info.value.transport == str(transport)

    @pytest.mark.parametrize(
        "transport", [Transport.MPI_NEW, Transport.MPI_SGI]
    )
    def test_message_passing_allowed_on_ap1000(self, transport):
        check_transport(get_machine("ap1000"), transport)  # no raise

    def test_other_kinds_accept_everything(self):
        for name in ("origin2000", "multicore", "bsp"):
            check_transport(get_machine(name), Transport.CCSAS_SCATTERED)

    def test_end_to_end_rejection_is_typed(self):
        """A SHMEM sort on the AP1000 surfaces the typed error through
        the whole backend stack, not a generic failure."""
        from repro.core.api import sort
        from repro.data import generate

        keys = generate("gauss", 256, 4)
        with pytest.raises(UnsupportedTransportError):
            sort(keys, model="shmem", n_procs=4,
                 machine=get_machine("ap1000", n_procs=4))


class TestGridPlumbing:
    def test_runspec_accepts_zoo_machines(self):
        from repro.core.experiment import RunSpec

        spec = RunSpec("radix", "mpi-new", 1 << 20, 16, 8, machine="bsp")
        assert "@bsp" in spec.cell_label()
        default = RunSpec("radix", "mpi-new", 1 << 20, 16, 8)
        assert "@" not in default.cell_label()

    def test_runspec_rejects_unknown_machine(self):
        from repro.core.experiment import RunSpec

        with pytest.raises(ValueError, match="machine"):
            RunSpec("radix", "mpi-new", 1 << 20, 16, 8, machine="cray")

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_every_machine_sorts_correctly(self, name):
        """One end-to-end sort per zoo member: output equals np.sort."""
        from repro.core.api import sort
        from repro.data import generate
        from repro.core.experiment import machine_model

        keys = generate("gauss", 512, 8)
        machine = None if name == "origin2000" else get_machine(name, n_procs=8)
        result = sort(
            keys, algorithm="sample", model=machine_model(name),
            n_procs=8, machine=machine,
        )
        assert np.array_equal(result.sorted_keys, np.sort(keys))
        assert result.time_ns > 0
