"""Unit tests for the UniviStor server program (sessions, log plumbing)."""

import math

import pytest

from repro.cluster.spec import MachineSpec
from repro.cluster.topology import Machine
from repro.core.config import StorageTier, UniviStorConfig
from repro.core.server import SERVER_PROGRAM, UniviStorServers
from repro.sim import Engine
from repro.storage.datamodel import PatternPayload
from repro.simmpi import Communicator
from repro.units import MiB


def make_system(config=None, nodes=2):
    machine = Machine(Engine(), MachineSpec.small_test(nodes=nodes))
    return machine, UniviStorServers(machine,
                                     config or UniviStorConfig.dram_bb())


class TestDeployment:
    def test_servers_registered_on_every_node(self):
        machine, system = make_system()
        for node in machine.nodes:
            assert node.procs_of(SERVER_PROGRAM) == 2

    def test_total_servers(self):
        machine, system = make_system(nodes=2)
        assert system.total_servers == 4

    def test_custom_servers_per_node(self):
        machine, system = make_system(
            UniviStorConfig.dram_only(servers_per_node=1))
        assert system.total_servers == 2

    def test_bb_config_requires_bb(self):
        engine = Engine()
        spec = MachineSpec.small_test(nodes=1)
        spec = spec.__class__(**{**spec.__dict__, "burst_buffer": None})
        machine = Machine(engine, spec)
        with pytest.raises(ValueError, match="burst buffer"):
            UniviStorServers(machine, UniviStorConfig.bb_only())

    def test_ssd_config_requires_ssd(self):
        machine = Machine(Engine(), MachineSpec.small_test(nodes=1))
        with pytest.raises(ValueError, match="SSD"):
            UniviStorServers(machine, UniviStorConfig(
                cache_tiers=(StorageTier.LOCAL_SSD,)))

    def test_connect_disconnect(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        engine = machine.engine

        def proc():
            yield system.connect(comm)
            assert system.connected_clients["app"] == 4
            yield system.disconnect(comm)

        engine.run_process(proc())
        assert "app" not in system.connected_clients


class TestSessions:
    def test_fid_stable_per_path(self):
        _, system = make_system()
        assert system.fid_of("/a") == system.fid_of("/a")
        assert system.fid_of("/a") != system.fid_of("/b")

    def test_session_create_and_lookup(self):
        _, system = make_system()
        s = system.session("/a")
        assert system.session("/a") is s
        assert system.has_session("/a")
        with pytest.raises(FileNotFoundError):
            system.session("/missing", create=False)

    def test_writer_created_lazily_with_all_tiers(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        writer = session.writer_for(comm, 1)
        tiers = [log.tier for log in writer.logs]
        assert tiers == [StorageTier.DRAM, StorageTier.SHARED_BB,
                         StorageTier.PFS]
        assert writer.logs[-1].capacity == math.inf
        # The same writer object comes back for the same rank.
        assert session.writer_for(comm, 1) is writer

    def test_log_capacity_follows_cp_rule_node_local(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        writer = system.session("/f").writer_for(comm, 0)
        dram_log = writer.logs[0]
        node = comm.node_of_rank(0)
        expected = node.dram.capacity / 2  # 2 procs on the node
        assert dram_log.capacity == pytest.approx(expected)

    def test_log_capacity_follows_cp_rule_shared(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        writer = system.session("/f").writer_for(comm, 0)
        bb_log = writer.logs[1]
        expected = machine.burst_buffer.device.capacity / 4  # all clients
        assert bb_log.capacity == pytest.approx(expected)

    def test_log_capacity_never_below_chunk(self):
        machine, system = make_system(
            UniviStorConfig.dram_bb(chunk_size=64 * MiB))
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        # Shrink the device so c/p < chunk.
        machine.nodes[0].dram.capacity = 32 * MiB
        writer = system.session("/f").writer_for(comm, 0)
        assert writer.logs[0].capacity >= 64 * MiB

    def test_log_files_created_in_correct_stores(self):
        """Opening a writer fixes capacities and VAs but creates no log
        file; the first write creates the DRAM log in the node store."""
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        writer = session.writer_for(comm, 0)
        node0 = machine.nodes[0]
        fid = session.fid
        dram = f"/univistor/{fid}/0/dram.log"
        assert not node0.files.exists(dram)
        assert len(machine.bb_files) == len(machine.pfs_files) == 0
        assert all(log.sim_file is None for log in writer.logs)
        writer.write(0, 1 * MiB, PatternPayload(1))
        assert node0.files.exists(dram)
        assert writer.logs[0].sim_file is node0.files.open(dram)
        assert len(machine.bb_files) == len(machine.pfs_files) == 0

    def test_spill_creates_lower_tier_logs_on_first_append(self):
        machine, system = make_system(UniviStorConfig.dram_bb(
            chunk_size=1 * MiB, dram_log_capacity=2 * MiB,
            bb_log_capacity=2 * MiB))
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        writer = session.writer_for(comm, 1)
        fid = session.fid
        bb = f"/univistor/{fid}/1/shared_bb.log"
        pfs = f"/univistor/{fid}/1/pfs.log"
        writer.write(0, 2 * MiB, PatternPayload(1))  # fills DRAM exactly
        assert not machine.bb_files.exists(bb)
        segs = writer.write(2 * MiB, 1 * MiB, PatternPayload(2))
        assert [s.tier for s in segs] == [StorageTier.SHARED_BB]
        assert machine.bb_files.exists(bb)
        assert not machine.pfs_files.exists(pfs)
        segs = writer.write(3 * MiB, 2 * MiB, PatternPayload(3))
        assert [s.tier for s in segs] == [StorageTier.SHARED_BB,
                                          StorageTier.PFS]
        assert machine.pfs_files.exists(pfs)
        # VAs follow the capacities fixed at open (Eq. 1).
        assert segs[1].va == 4 * MiB
        assert (machine.pfs_files.open(pfs).read_bytes(0, 1 * MiB)
                == PatternPayload(3).materialize(1 * MiB, 1 * MiB))

    def test_delete_with_untouched_tiers(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        session.writer_for(comm, 0)
        session.writer_for(comm, 3)
        used = ([n.dram.used for n in machine.nodes],
                machine.burst_buffer.device.used)
        system.delete_file("/f")  # no log file exists: must not raise
        assert ([n.dram.used for n in machine.nodes],
                machine.burst_buffer.device.used) == used
        assert not system.has_session("/f")

    def test_node_of_proc_requires_writer(self):
        _, system = make_system()
        session = system.session("/f")
        with pytest.raises(RuntimeError):
            session.node_of_proc(0)

    def test_cached_bytes_empty_initially(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 2, procs_per_node=1)
        session = system.session("/f")
        session.writer_for(comm, 0)
        assert sum(session.cached_bytes_per_tier().values()) == 0

    def test_delete_missing_file_is_noop(self):
        _, system = make_system()
        system.delete_file("/never-existed")  # must not raise
