"""The hot value types are slotted, and still pickle, deep-copy and
(for the frozen dataclasses) ``dataclasses.replace`` cleanly.

``repro chaos --jobs`` ships results across a ``multiprocessing`` pool,
so everything reachable from a result must survive a pickle round trip
on every supported Python.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.analysis.metrics import OpRecord
from repro.core.config import StorageTier
from repro.core.dhp import Chunk, DHPWriter, LogFile, PlacedSegment
from repro.core.metadata import MetadataRecord
from repro.core.va import VirtualAddressSpace
from repro.simmpi.mpiio import IORequest
from repro.storage.datamodel import (
    BytesPayload,
    CorruptPayload,
    Extent,
    ExtentMap,
    PatternPayload,
    ZeroPayload,
)
from repro.storage.posix import FileStore, SimFile

VALUES = [
    (MetadataRecord(3, 4096, 512, 7, 100.0, StorageTier.DRAM, 1),
     {"length": 256}),
    (Extent(10, 20, PatternPayload(5), 3), {"payload_offset": 4}),
    (PlacedSegment(2, 0, 64, 1, StorageTier.SHARED_BB, 128.0, 0.0),
     {"va": 192.0}),
    (Chunk(4, 8.0, 2.0), {"live": 0.0}),
    (IORequest(1, 0, 64, PatternPayload(9), 2), {"rank": 3}),
    (PatternPayload(11), {"seed": 12}),
    (BytesPayload(b"abc"), {"data": b"xyz"}),
    (CorruptPayload(6), {"token": 7}),
    (OpRecord("app", "write", "/f", 1.0, 2.5, 64.0, "univistor"),
     {"t_end": 3.0}),
]


@pytest.mark.parametrize("value,changes", VALUES,
                         ids=[type(v).__name__ for v, _ in VALUES])
def test_frozen_value_round_trips(value, changes):
    assert not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    changed = dataclasses.replace(value, **changes)
    assert changed != value
    for name, new in changes.items():
        assert getattr(changed, name) == new
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, next(iter(changes)), None)


def test_zero_payload_stays_a_singleton():
    assert pickle.loads(pickle.dumps(ZeroPayload())) is ZeroPayload()
    assert copy.deepcopy(ZeroPayload()) is ZeroPayload()


def written_writers():
    """Two ranks' writers sharing one VA table; the first has a dead
    chunk on its free stack."""
    store = FileStore("s")
    vas = VirtualAddressSpace([StorageTier.DRAM, StorageTier.PFS],
                              [32.0, float("inf")])
    writers = []
    for rank in range(2):
        logs = [LogFile(StorageTier.DRAM, 32, 8,
                        store.create(f"/{rank}/dram")),
                LogFile(StorageTier.PFS, float("inf"), 8,
                        store.create(f"/{rank}/pfs"))]
        writers.append(DHPWriter(rank, vas, logs))
        writers[-1].write(0, 40, PatternPayload(1))  # spills 8 B to the PFS
    writers[0].logs[0].free_segment(8.0, 8)
    return writers


def state(writer):
    return ([(log.allocated_chunks, log.bytes_live, log.free_stack,
              [log.chunk(i) for i in range(log.allocated_chunks)],
              log.remaining_in_log(),
              log.sim_file.read_bytes(0, log.sim_file.size))
             for log in writer.logs], writer.vas.capacities)


@pytest.mark.parametrize("clone", [lambda w: pickle.loads(pickle.dumps(w)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_slotted_writer_state_round_trips(clone):
    writers = written_writers()
    writer = writers[0]
    for obj in (writer, writer.vas, writer.logs[0], writer.logs[0].sim_file,
                writer.logs[0].sim_file.data):
        assert not hasattr(obj, "__dict__")
    twins = clone(writers)
    twin = twins[0]
    assert [state(t) for t in twins] == [state(w) for w in writers]
    # The shared VA table stays shared, and separate from the original.
    assert twins[1].vas is twin.vas is not writer.vas
    # The copy is independent and still appends where the original would:
    # its DRAM log reuses the freed chunk.
    assert twin.logs[0].append(8, PatternPayload(2)) == [(8.0, 8)]
    assert state(twin) != state(writer)
    assert twin.logs[0].free_stack == [] and writer.logs[0].free_stack == [1]
    assert isinstance(twin.logs[0].sim_file, SimFile)
    assert isinstance(twin.logs[0].sim_file.data, ExtentMap)
