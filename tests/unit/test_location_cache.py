"""The one record list per file (docs/MODEL.md §9): replica views and
lookups answer from it, layout changes and flushes leave it alone, and
it stays importable under its location-cache name."""

import pytest

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core.config import StorageTier
from repro.core.location_cache import LocationCache
from repro.core.metadata import (
    MetadataRecord,
    MetadataService,
    RecordMap,
    coalesce_records,
)
from repro.units import KiB

KB = 1024


def rec(offset, length, proc=0, va=None, fid=1):
    return MetadataRecord(fid=fid, offset=offset, length=length,
                          proc_id=proc,
                          va=float(offset) if va is None else float(va),
                          tier=StorageTier.DRAM, node_id=0)


def as_tuples(records):
    return [(r.offset, r.length, r.proc_id, r.va, r.tier, r.node_id)
            for r in records]


class TestMirrorExactness:
    """Lookups through the service answer from the one list — including
    overwrites and holes — and the list keeps its old name."""

    def mirror_pair(self, range_size=64 * KB):
        md = MetadataService(n_servers=4, range_size=range_size,
                             replication=2)
        assert LocationCache is RecordMap
        return md, md.records

    def test_lookup_equals_authoritative(self):
        md, records = self.mirror_pair()
        md.insert_many([rec(0, 96 * KB, proc=0),
                        rec(96 * KB, 64 * KB, proc=1, va=200 * KB)])
        for off, ln in [(0, 32 * KB), (90 * KB, 16 * KB),
                        (0, 160 * KB), (32 * KB, 3)]:
            auth, _servers = md.lookup(1, off, ln)
            assert as_tuples(records.lookup(1, off, ln)) == as_tuples(auth)

    def test_overwrite_supersedes_in_both(self):
        md, records = self.mirror_pair()
        md.insert_many([rec(0, 128 * KB, proc=0)])
        md.insert_many([rec(32 * KB, 32 * KB, proc=1, va=500 * KB)])
        auth, _ = md.lookup(1, 0, 128 * KB)
        got = records.lookup(1, 0, 128 * KB)
        assert as_tuples(got) == as_tuples(auth)
        assert [r.proc_id for r in got] == [0, 1, 0]

    def test_tracked_hole_is_authoritative_empty(self):
        md, records = self.mirror_pair()
        md.insert_many([rec(0, 16 * KB)])
        assert records.lookup(1, 1024 * KB, 16 * KB) == []
        assert md.lookup(1, 1024 * KB, 16 * KB)[0] == []

    def test_untracked_file_is_a_miss(self):
        """There is no cache to miss: a file without records is an
        empty answer."""
        _md, records = self.mirror_pair()
        assert records.lookup(7, 0, 16 * KB) == []

    def test_zero_length_lookup_counts_neither_hit_nor_miss(self):
        md, records = self.mirror_pair()
        md.insert_many([rec(0, 16 * KB)])
        assert records.lookup(1, 0, 0) == []
        assert records.lookup(1, 4 * KB, -1) == []
        assert records.lookup(7, 0, 0) == []
        assert md.lookup(1, 0, 0) == ([], set())
        assert records.lookup(1, 0, 4 * KB)

    def test_untracked_inserts_ignored_never_retracked(self):
        """A standalone list applies every record it is given, of any
        file, splitting one that spans a range boundary."""
        records = LocationCache(64 * KB)
        records.insert_records([rec(32 * KB, 64 * KB, fid=9)])
        assert as_tuples(records.lookup(9, 0, 128 * KB)) == as_tuples(
            [rec(32 * KB, 32 * KB, fid=9),
             rec(64 * KB, 32 * KB, va=64 * KB, fid=9)])

    def test_begin_file_midlife_is_too_late(self):
        """Deleting a file drops its records and history; a file reborn
        under the same fid starts empty."""
        md, records = self.mirror_pair()
        md.insert_many([rec(0, 16 * KB)])
        md.insert_many([rec(4 * KB, 4 * KB, proc=1)])  # diverges range 0
        assert records.history
        md.delete_file(1)
        assert records.records(1) == []
        assert records.history == {}
        md.insert_many([rec(0, 4 * KB, proc=2)])
        assert [r.proc_id for r in records.records(1)] == [2]

    def test_clear_drops_everything(self):
        md, records = self.mirror_pair()
        md.insert_many([rec(0, 16 * KB), rec(0, 16 * KB, fid=2)])
        assert records.count == 2
        md.delete_file(1)
        md.delete_file(2)
        assert records.count == 0
        assert md.lookup(1, 0, 16 * KB)[0] == []

    def test_range_boundary_split_mirrors_store(self):
        md, records = self.mirror_pair(range_size=64 * KB)
        md.insert_many([rec(0, 256 * KB)])
        auth, _ = md.lookup(1, 0, 256 * KB)
        assert as_tuples(records.lookup(1, 0, 256 * KB)) == as_tuples(auth)
        assert [r.offset for r in records.records(1)] == [
            0, 64 * KB, 128 * KB, 192 * KB]


# -- simulation-level coherence: the four invalidation hooks --------------

def setup(config=None, nodes=2):
    sim = Simulation(MachineSpec.small_test(nodes=nodes))
    sim.install_univistor(config or UniviStorConfig.dram_bb(
        flush_enabled=False))
    comm = sim.comm("app", 4, procs_per_node=2)
    return sim, comm


def write_blocks(sim, comm, path, block, sync=False):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block, PatternPayload(r))
            for r in range(comm.size)])
        yield from fh.close()
        if sync:
            yield from fh.sync()

    sim.run_to_completion(app())


def read_all(sim, comm, path, block):
    def app():
        fh = yield from sim.open(comm, path, "r", fstype="univistor")
        data = yield from fh.read_at_all(
            [IORequest(r, r * block, block) for r in range(comm.size)])
        yield from fh.close()
        return data

    return sim.run_to_completion(app())


def assert_payloads(data, comm, block):
    for r in range(comm.size):
        blob = b"".join(e.materialize() for e in data[r])
        assert blob == PatternPayload(r).materialize(0, block)


def assert_served_from_list(system, fid, length):
    served, _ = system.metadata.lookup(fid, 0, length)
    assert as_tuples(served) == as_tuples(
        system.metadata.records.lookup(fid, 0, length))


class TestSimCoherence:
    """Whatever happens to the deployment, lookups answer from the one
    list; nothing mirrors it, so nothing is invalidated."""

    def test_write_populates_cache_and_reads_hit(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        fid = system.session("/f").fid
        assert system.metadata.records.count == comm.size
        assert_served_from_list(system, fid, comm.size * block)
        data = read_all(sim, comm, "/f", block)
        assert_payloads(data, comm, block)
        assert not any(name.startswith("cache-")
                       for name in sim.telemetry.counters)

    def test_overwrite_stays_coherent(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        # Same region rewritten: _free_overwritten finds the old records
        # through lookup and the insert supersedes them in the list.
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        fid = system.session("/f").fid
        assert system.metadata.records.count == comm.size
        assert_served_from_list(system, fid, comm.size * block)
        assert_payloads(read_all(sim, comm, "/f", block), comm, block)

    def test_flush_migration_invalidates(self):
        """A flush moves bytes down a layer without touching the list:
        post-flush reads still answer from it."""
        sim, comm = setup(UniviStorConfig.dram_bb())  # flush enabled
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block, sync=True)
        system = sim.univistor
        fid = system.session("/f").fid
        assert system.session("/f").flushed_bytes > 0
        assert system.metadata.records.count == comm.size
        assert_served_from_list(system, fid, comm.size * block)
        assert_payloads(read_all(sim, comm, "/f", block), comm, block)

    def test_delete_invalidates(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        fid = system.session("/f").fid
        system.delete_file("/f")
        assert system.metadata.records.records(fid) == []
        assert system.metadata.record_count == 0

    def test_takeover_clears_cache(self):
        """A takeover rewrites replica sets and leaves the list alone;
        reads after it reassemble the right bytes."""
        sim, comm = setup(UniviStorConfig.hardened(
            flush_enabled=False, metadata_range_size=float(64 * KiB)))
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        fid = system.session("/f").fid
        before = list(system.metadata.records.records(fid))
        system.metadata.fail_server(0)
        system.recovery.handle_server_dead(0)
        assert system.recovery.takeovers, "no range takeover happened"
        assert system.metadata.records.records(fid) == before
        assert_served_from_list(system, fid, comm.size * block)
        assert_payloads(read_all(sim, comm, "/f", block), comm, block)

    def test_cache_off_knob(self):
        """``location_cache=False`` is deprecated and ignored."""
        with pytest.warns(DeprecationWarning, match="location_cache"):
            config = UniviStorConfig.dram_bb(
                flush_enabled=False).without("location_cache")
        runs = []
        for cfg in (config, UniviStorConfig.dram_bb(flush_enabled=False)):
            sim, comm = setup(cfg)
            block = int(64 * KiB)
            write_blocks(sim, comm, "/f", block)
            assert_payloads(read_all(sim, comm, "/f", block), comm, block)
            runs.append([(r.op, r.t_start, r.t_end)
                         for r in sim.telemetry.records])
        assert runs[0] == runs[1]

    def test_unwritten_range_still_raises_with_cache(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        session = system.session("/f")

        def app():
            out = yield from system.read_service.read_collective(
                session, comm, [IORequest(0, 100 * block, block)],
                comm.name)
            return out

        with pytest.raises(ValueError, match="unwritten"):
            sim.run_to_completion(app())


# -- split once: each accepted piece is applied once ----------------------

BLOCK = int(40 * KiB)


def collective_write(config, ranks=64, split=None):
    """One ``ranks``-wide collective write of :data:`BLOCK` bytes per
    rank.  40 KiB blocks over 64 KiB ranges put many records across a
    range boundary (and one across the midpoint of range 1), so the
    write is really split.  ``split`` names a range to split before
    the file exists."""
    sim = Simulation(MachineSpec.small_test(nodes=ranks // 4))
    sim.install_univistor(config)
    if split is not None:
        sim.univistor.metadata.split_range(split)
    comm = sim.comm("app", ranks, procs_per_node=4)
    write_blocks(sim, comm, "/f", BLOCK)
    return sim, comm


class TestSplitOnce:
    def config(self, **kw):
        return UniviStorConfig.dram_bb(
            flush_enabled=False, metadata_range_size=float(64 * KiB),
            metadata_replication=2, **kw)

    def test_cache_holds_the_stored_piece_objects(self):
        """A collective write with no overwrite stores each piece once,
        in the one list: no per-range history, no journal, and the
        per-server record counts are views of the same records."""
        sim, comm = collective_write(self.config())
        system = sim.univistor
        fid = system.session("/f").fid
        md = system.metadata
        listed = md.records.records(fid)
        assert len(listed) > comm.size  # boundary-crossing records split
        assert sum(r.length for r in listed) == comm.size * BLOCK
        assert md.record_count == len(listed)
        assert md.records.history == {}
        assert md._journal == {}
        assert not hasattr(md, "_stores")
        # Replication 2: every record is answered by two replica views.
        assert sum(md.server_record_counts()) == 2 * len(listed)
        for range_index in md.records.ranges():
            assert md.journal_records(range_index) == [
                r for r in listed
                if int(r.offset // md.range_size) == range_index]

    def test_split_range_cache_matches_store(self):
        """Pieces inside a hotspot-split range are sliced at the
        sub-range boundary; the list merges them back (which starts the
        range's explicit history), and lookups clip per sub-range.  Both
        resolve every byte to the same (ProcID, VA)."""
        sim, comm = collective_write(self.config(hotspot_enabled=True),
                                     split=1)
        system = sim.univistor
        md = system.metadata
        mid = md.sub_ranges(1)[1][0]
        assert any(p.end == mid for p in md.journal_records(1))
        assert 1 in md.records.history
        fid = system.session("/f").fid
        total = comm.size * BLOCK
        auth, _ = md.lookup(fid, 0, total)
        got = md.records.lookup(fid, 0, total)
        assert any(r.end == mid for r in auth)
        assert (as_tuples(coalesce_records(got)[0])
                == as_tuples(coalesce_records(auth)[0]))
        assert_payloads(read_all(sim, comm, "/f", BLOCK), comm, BLOCK)
