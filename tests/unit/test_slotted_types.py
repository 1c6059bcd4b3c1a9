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


def written_writer():
    store = FileStore("s")
    vas = VirtualAddressSpace([StorageTier.DRAM, StorageTier.PFS],
                              [32.0, float("inf")])
    logs = [LogFile(StorageTier.DRAM, 32, 8, store.create("/dram")),
            LogFile(StorageTier.PFS, float("inf"), 8, store.create("/pfs"))]
    writer = DHPWriter(0, vas, logs)
    writer.write(0, 40, PatternPayload(1))  # spills 8 bytes to the PFS
    return writer


def state(writer):
    return ([(log.allocated_chunks, log.bytes_live,
              log.sim_file.read_bytes(0, log.sim_file.size))
             for log in writer.logs], writer.vas.capacities)


@pytest.mark.parametrize("clone", [lambda w: pickle.loads(pickle.dumps(w)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_slotted_writer_state_round_trips(clone):
    writer = written_writer()
    for obj in (writer, writer.vas, writer.logs[0], writer.logs[0].sim_file,
                writer.logs[0].sim_file.data):
        assert not hasattr(obj, "__dict__")
    twin = clone(writer)
    assert state(twin) == state(writer)
    # The copy is independent and still appends where the original would.
    twin.write(40, 8, PatternPayload(2))
    assert state(twin) != state(writer)
    assert isinstance(twin.logs[0].sim_file, SimFile)
    assert isinstance(twin.logs[0].sim_file.data, ExtentMap)
