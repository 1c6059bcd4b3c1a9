"""The assembled machine: nodes + interconnect + shared BB + Lustre."""

from __future__ import annotations

from typing import List, Optional
from weakref import WeakValueDictionary

from repro.cluster.network import Interconnect
from repro.cluster.node import ComputeNode
from repro.cluster.spec import MachineSpec
from repro.sim.engine import Engine
from repro.sim.rng import StreamRNG
from repro.storage.burstbuffer import SharedBurstBuffer
from repro.storage.lustre import LustreFS
from repro.storage.posix import FileStore

__all__ = ["Machine"]


class Machine:
    """A job's view of the machine (Fig. 1's storage hierarchy).

    Owns the compute nodes allocated to the job, the interconnect, the
    shared burst buffer (if the job requested one) and the Lustre PFS.
    Each storage tier pairs a timed device model with a functional
    :class:`~repro.storage.posix.FileStore` namespace:

    * per-node DRAM / local SSD files live in ``node.files``,
    * shared-BB files in :attr:`bb_files`,
    * PFS files in :attr:`pfs_files`.
    """

    def __init__(self, engine: Engine, spec: Optional[MachineSpec] = None,
                 pfs_files: Optional[FileStore] = None):
        """``pfs_files`` carries a *persistent* PFS namespace between jobs:
        node-local and burst-buffer contents are job-scoped (their
        integrity is only assured within the job's life cycle, §I), but a
        new job handed the previous job's ``pfs_files`` sees everything
        that was flushed to Lustre."""
        self.engine = engine
        self.spec = spec or MachineSpec()
        self.rng = StreamRNG(self.spec.seed)
        #: Interference-aware placements shared by every node with the
        #: same program mix; an entry lives while some node caches it.
        self.shared_placements: WeakValueDictionary = WeakValueDictionary()
        self.nodes: List[ComputeNode] = [
            ComputeNode(engine, i, self.spec, self.rng.spawn(f"node{i}"),
                        self.shared_placements)
            for i in range(self.spec.nodes)
        ]
        self.network = Interconnect(engine, self.spec.network,
                                    self.spec.nodes)
        self.burst_buffer: Optional[SharedBurstBuffer] = None
        if self.spec.burst_buffer is not None:
            self.burst_buffer = SharedBurstBuffer(engine,
                                                  self.spec.burst_buffer)
        self.lustre = LustreFS(engine, self.spec.lustre)
        self.bb_files = FileStore(name="shared-bb")
        self.pfs_files = pfs_files if pfs_files is not None else FileStore(
            name="pfs")

    # -- conveniences ------------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.spec.nodes * self.spec.node.cores

    def node_of_rank(self, rank: int, procs_per_node: int) -> ComputeNode:
        """Block distribution of ranks onto nodes (MPI default)."""
        if rank < 0:
            raise ValueError(f"negative rank {rank}")
        idx = rank // procs_per_node
        if idx >= len(self.nodes):
            raise ValueError(
                f"rank {rank} with {procs_per_node} procs/node needs node "
                f"{idx}, machine has {len(self.nodes)}")
        return self.nodes[idx]

    def register_program(self, name: str, nprocs: int, kind: str = "client",
                         procs_per_node: Optional[int] = None,
                         node_offset: int = 0) -> List[int]:
        """Register a parallel program across nodes (block distribution).

        Returns the per-node process counts.  ``procs_per_node`` defaults
        to filling nodes evenly; ``node_offset`` starts the block at a
        later node — how an *in-transit* analysis program is placed on a
        disjoint node set from its producer.
        """
        n_nodes = len(self.nodes)
        if not 0 <= node_offset < n_nodes:
            raise ValueError(f"node_offset {node_offset} outside "
                             f"[0, {n_nodes})")
        if procs_per_node is None:
            procs_per_node = (nprocs + (n_nodes - node_offset) - 1) \
                // (n_nodes - node_offset)
        counts = [0] * n_nodes
        remaining = nprocs
        for node in self.nodes[node_offset:]:
            here = min(procs_per_node, max(0, remaining))
            counts[node.node_id] = here
            if here > 0:
                node.register_program(name, here, kind)
            remaining -= here
        if remaining > 0:
            raise ValueError(
                f"program {name!r}: {nprocs} procs do not fit on "
                f"{n_nodes - node_offset} nodes x {procs_per_node} "
                f"procs/node (offset {node_offset})")
        return counts

    def unregister_program(self, name: str) -> None:
        for node in self.nodes:
            node.unregister_program(name)

    def set_flush_active(self, active: bool) -> None:
        """Toggle flush state machine-wide (drives Fig. 4d migration)."""
        for node in self.nodes:
            node.set_flush_active(active)
