"""Communicators: an application's ranks and their node placement.

A :class:`Communicator` plays the role of ``MPI_COMM_WORLD`` for one
simulated parallel application: it knows how many ranks the application
has, which compute node each rank runs on (block distribution, the MPI
default), and prices small-message collectives using the interconnect
model.  Creating a communicator registers the program on its nodes so the
CPU-placement model (§II-C) sees it.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.cluster.node import ComputeNode
from repro.cluster.topology import Machine
from repro.sim.engine import Engine, Event

__all__ = ["Communicator"]


class Communicator:
    """The ranks of one parallel program and their placement."""

    def __init__(self, machine: Machine, name: str, size: int,
                 procs_per_node: Optional[int] = None,
                 kind: str = "client", node_offset: int = 0):
        """``node_offset`` places the program's first rank on a later
        node — producer and consumer applications on *disjoint* node sets
        (the in-transit configuration of §I)."""
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self.machine = machine
        self.engine: Engine = machine.engine
        self.name = name
        self.size = size
        n_nodes = len(machine.nodes)
        if procs_per_node is None:
            procs_per_node = math.ceil(size / max(1, n_nodes - node_offset))
        self.procs_per_node = procs_per_node
        self.kind = kind
        self.node_offset = node_offset
        self._per_node_counts = machine.register_program(
            name, size, kind=kind, procs_per_node=procs_per_node,
            node_offset=node_offset)

    # -- topology queries -------------------------------------------------
    def node_of_rank(self, rank: int) -> ComputeNode:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")
        idx = self.node_offset + rank // self.procs_per_node
        if idx >= len(self.machine.nodes):
            raise ValueError(f"rank {rank} maps past the last node")
        return self.machine.nodes[idx]

    def ranks_on_node(self, node_id: int) -> List[int]:
        lo = (node_id - self.node_offset) * self.procs_per_node
        hi = min(self.size, lo + self.procs_per_node)
        if node_id < self.node_offset or lo >= self.size:
            return []
        return list(range(max(0, lo), hi))

    @property
    def nodes_used(self) -> List[ComputeNode]:
        return [n for n in self.machine.nodes
                if self._per_node_counts[n.node_id] > 0]

    def procs_on_node(self, node_id: int) -> int:
        return self._per_node_counts[node_id]

    # -- timed collectives (small messages) ---------------------------------
    def barrier(self) -> Event:
        """Dissemination barrier: ceil(log2 p) network hops."""
        net = self.machine.network
        if self.size <= 1:
            return self.engine.timeout(0.0)
        hops = math.ceil(math.log2(self.size))
        return self.engine.timeout(hops * 2 * net.spec.latency)

    def bcast_small(self) -> Event:
        """Broadcast of a small (metadata-sized) message from the root."""
        return self.engine.timeout(
            self.machine.network.bcast_cost(self.size))

    def gather_small(self) -> Event:
        """Gather of small messages to the root (tree, same cost shape)."""
        return self.engine.timeout(
            self.machine.network.bcast_cost(self.size))

    # -- timed data collectives (bulk payloads) --------------------------
    def _data_collective(self, wire_bytes_per_rank: float,
                         rounds: int) -> Event:
        """Completion event: each rank pushes ``wire_bytes_per_rank``
        through its node's injection share, plus per-round latency."""
        net = self.machine.network.spec
        per_rank_bw = net.injection_bandwidth / max(1, self.procs_per_node)
        return self.engine.timeout(wire_bytes_per_rank / per_rank_bw
                                   + rounds * 2 * net.latency)

    def allgather(self, nbytes_per_rank: float) -> Event:
        """MPI_Allgather of ``nbytes_per_rank`` contributions: every rank
        ends with p*b bytes; a ring/Bruck schedule moves (p-1)*b per rank
        over ceil(log2 p) rounds."""
        if nbytes_per_rank < 0:
            raise ValueError(f"negative payload {nbytes_per_rank}")
        wire = (self.size - 1) * nbytes_per_rank
        rounds = max(1, math.ceil(math.log2(max(2, self.size))))
        return self._data_collective(wire, rounds)

    def alltoall(self, nbytes_per_pair: float) -> Event:
        """MPI_Alltoall with ``nbytes_per_pair`` to every peer: each rank
        sends and receives (p-1)*b bytes over p-1 exchange rounds."""
        if nbytes_per_pair < 0:
            raise ValueError(f"negative payload {nbytes_per_pair}")
        wire = (self.size - 1) * nbytes_per_pair
        return self._data_collective(wire, max(1, self.size - 1))

    def reduce_data(self, nbytes: float) -> Event:
        """MPI_Reduce of an ``nbytes`` buffer: binomial tree, each rank
        forwards one partial per level."""
        if nbytes < 0:
            raise ValueError(f"negative payload {nbytes}")
        levels = max(1, math.ceil(math.log2(max(2, self.size))))
        return self._data_collective(nbytes, levels)

    def free(self) -> None:
        """Tear down: unregister the program from its nodes."""
        self.machine.unregister_program(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Communicator {self.name!r} size={self.size} "
                f"ppn={self.procs_per_node}>")
