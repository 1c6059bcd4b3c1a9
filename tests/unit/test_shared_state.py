"""State kept once per shape, not once per rank or node.

A rank's VA table depends only on its log capacities (Eq. 1), an
interference-aware placement only on its node's program mix (Fig. 4),
and a collective write gives every rank the same version: each is
stored once and shared.
"""

import gc

from repro.cluster import MachineSpec
from repro.cluster import node as node_module
from repro.cluster.cpu import PlacementPolicy
from repro.cluster.topology import Machine
from repro.experiments.common import build_simulation
from repro.sim import Engine
from repro.units import MiB
from repro.workloads.iobench import MicroBench

IA = PlacementPolicy.INTERFERENCE_AWARE
RANKS = 128  # 4 nodes of 32 ranks


def _count_efficiency_calls(monkeypatch):
    calls = []
    original = node_module.placement_efficiency

    def counted(placement, program, *args, **kwargs):
        calls.append((id(placement), program, kwargs.get("sensitivity")))
        return original(placement, program, *args, **kwargs)

    monkeypatch.setattr(node_module, "placement_efficiency", counted)
    return calls


def test_micro_collective_shares_version_run_va_table_and_efficiency(
        monkeypatch):
    calls = _count_efficiency_calls(monkeypatch)
    sim, fstype = build_simulation(RANKS, "UniviStor/DRAM")
    comm = sim.comm("micro", size=RANKS)
    bench = MicroBench(sim, comm, "/pfs/micro.h5", fstype, 1 * MiB)

    def app():
        yield from bench.write_phase()
        return (yield from bench.read_phase())

    bench.verify_sample(sim.run_to_completion(app(), name="micro"))
    session = sim.univistor.session("/pfs/micro.h5", create=False)
    assert len(session.writers) == RANKS
    # One collective write: one version run, not one span per rank.
    assert len(session.data_versions) == 1
    # Every rank's logs have the same capacities: one VA table.
    assert len({id(w.vas) for w in session.writers.values()}) == 1
    # Four identical nodes share their placement: one score per op.
    assert sorted(c[2] for c in calls) == [0.45, 1.0]


def _machine(nodes=3):
    return Machine(Engine(), MachineSpec.cori_haswell(nodes=nodes))


def test_identical_nodes_share_one_placement():
    machine = _machine()
    machine.register_program("server", 3 * 2, kind="server",
                             procs_per_node=2)
    machine.register_program("app", 3 * 32, procs_per_node=32)
    first, *rest = [n.placement(IA) for n in machine.nodes]
    assert all(p is first for p in rest)
    assert len(machine.shared_placements) == 1


def test_different_mix_gets_its_own_placement_and_cfs_stays_per_node():
    machine = _machine()
    # 32 + 32 + 16 ranks: the last node runs fewer processes.
    machine.register_program("app", 80, procs_per_node=32)
    a, b, c = (n.placement(IA) for n in machine.nodes)
    assert a is b and c is not a
    assert c.total_processes() == 16
    cfs = [n.placement(PlacementPolicy.CFS) for n in machine.nodes]
    assert len({id(p) for p in cfs}) == 3


def test_flush_state_is_part_of_the_shape():
    machine = _machine()
    machine.register_program("server", 6, kind="server", procs_per_node=2)
    machine.register_program("app", 3 * 34, procs_per_node=34)
    idle = machine.nodes[0].placement(IA)
    machine.set_flush_active(True)
    busy = machine.nodes[0].placement(IA)
    assert busy is not idle and idle.borrowed and not busy.borrowed
    assert machine.nodes[1].placement(IA) is busy


def test_shared_entry_dies_with_the_last_node_holding_it():
    machine = _machine()
    machine.register_program("app", 3 * 32, procs_per_node=32)
    for node in machine.nodes:
        node.placement(IA)
    assert len(machine.shared_placements) == 1
    machine.unregister_program("app")
    gc.collect()
    assert len(machine.shared_placements) == 0


def test_efficiency_runs_once_per_placement_and_query(monkeypatch):
    calls = _count_efficiency_calls(monkeypatch)
    machine = _machine()
    machine.register_program("server", 6, kind="server", procs_per_node=2)
    machine.register_program("app", 3 * 32, procs_per_node=32)
    idle = frozenset({"server"})
    for _ in range(2):
        for node in machine.nodes:
            for sensitivity in (1.0, 0.45):
                node.efficiency("app", IA, sensitivity=sensitivity,
                                idle_programs=idle)
                node.efficiency("app", PlacementPolicy.CFS,
                                sensitivity=sensitivity,
                                idle_programs=idle)
    # Two queries on one shared IA placement, two on each node's CFS one.
    assert len(calls) == 2 + 3 * 2
