"""Metadata fast path: batched inserts, coalescing, in-store compaction
and journal checkpoint + truncation (docs/MODEL.md §9)."""

import pytest

from repro.core.config import StorageTier
from repro.core.metadata import (MetadataRecord, MetadataService,
                                 MetadataUnavailableError, coalesce_records)

KB = 1024


def rec(offset, length, proc=0, va=None, fid=1, tier=StorageTier.DRAM,
        node=0):
    return MetadataRecord(fid=fid, offset=offset, length=length,
                          proc_id=proc,
                          va=float(offset) if va is None else float(va),
                          tier=tier, node_id=node)


class TestCoalesceRecords:
    def test_contiguous_run_collapses(self):
        records = [rec(i * 4 * KB, 4 * KB) for i in range(8)]
        out, merges = coalesce_records(records)
        assert merges == 7
        assert len(out) == 1
        assert out[0].offset == 0 and out[0].length == 32 * KB
        assert out[0].va == 0.0

    def test_different_procs_never_merge(self):
        out, merges = coalesce_records([rec(0, 4 * KB, proc=0),
                                        rec(4 * KB, 4 * KB, proc=1)])
        assert merges == 0 and len(out) == 2

    def test_va_gap_never_merges(self):
        # Offset-contiguous but the virtual addresses jump: merging would
        # resolve the second half to the wrong log bytes.
        out, merges = coalesce_records([rec(0, 4 * KB, va=0),
                                        rec(4 * KB, 4 * KB, va=64 * KB)])
        assert merges == 0 and len(out) == 2

    def test_tier_change_never_merges(self):
        # Contiguous VAs can straddle a layer boundary when a log fills
        # exactly to capacity — the tier guard must refuse the merge.
        out, merges = coalesce_records([
            rec(0, 4 * KB, tier=StorageTier.DRAM),
            rec(4 * KB, 4 * KB, tier=StorageTier.SHARED_BB, node=None)])
        assert merges == 0 and len(out) == 2

    def test_only_adjacent_pairs_merge(self):
        # An intervening record from another proc breaks the run even if
        # the outer two are contiguous with each other's far ends.
        records = [rec(0, 4 * KB, proc=0), rec(8 * KB, 4 * KB, proc=1),
                   rec(4 * KB, 4 * KB, proc=0)]
        out, merges = coalesce_records(records)
        assert merges == 0 and len(out) == 3


class TestInsertCompaction:
    def test_merge_on_insert_bounds_store(self):
        md = MetadataService(n_servers=2, range_size=1024 * KB)
        for i in range(64):
            md.insert(rec(i * 4 * KB, 4 * KB))
        # 256 KB of contiguous same-writer data in one range: one record.
        assert md.record_count == 1
        found, _ = md.lookup(1, 0, 256 * KB)
        assert len(found) == 1
        assert found[0].offset == 0 and found[0].length == 256 * KB

    def test_merge_never_crosses_range_boundary(self):
        md = MetadataService(n_servers=1, range_size=64 * KB)
        md.insert(rec(0, 128 * KB))
        # One server owns both ranges: mergeable but range-partitioned.
        assert md.record_count == 2
        for piece in md.records_of(1):
            first = int(piece.offset // md.range_size)
            last = int((piece.end - 1) // md.range_size)
            assert first == last

    def test_compaction_off_preserves_pieces(self):
        md = MetadataService(n_servers=2, range_size=1024 * KB,
                             compaction=False)
        for i in range(8):
            md.insert(rec(i * 4 * KB, 4 * KB))
        assert md.record_count == 8

    def test_compact_sweep(self):
        md = MetadataService(n_servers=2, range_size=1024 * KB,
                             compaction=False)
        for i in range(8):
            md.insert(rec(i * 4 * KB, 4 * KB))
        merged = md.compact()
        assert merged == 7
        assert md.record_count == 1
        found, _ = md.lookup(1, 0, 32 * KB)
        assert sum(r.length for r in found) == 32 * KB

    def test_compacted_lookup_matches_uncompacted(self):
        plain = MetadataService(n_servers=4, range_size=64 * KB,
                                compaction=False)
        fast = MetadataService(n_servers=4, range_size=64 * KB)
        writes = [(0, 16 * KB, 0), (16 * KB, 16 * KB, 0),
                  (32 * KB, 32 * KB, 1), (8 * KB, 16 * KB, 1),
                  (120 * KB, 16 * KB, 0), (64 * KB, 56 * KB, 0)]
        for off, ln, proc in writes:
            plain.insert(rec(off, ln, proc=proc))
            fast.insert(rec(off, ln, proc=proc))
        for off in range(0, 136 * KB, 8 * KB):
            a, _ = plain.lookup(1, off, 16 * KB)
            b, _ = fast.lookup(1, off, 16 * KB)
            # Same bytes from the same sources, possibly fewer records.
            assert self._bytemap(a) == self._bytemap(b)

    @staticmethod
    def _bytemap(records):
        out = {}
        for r in records:
            for i in range(0, int(r.length), KB):
                out[int(r.offset) + i] = (r.proc_id, r.va + i, r.tier)
        return out


class TestInsertManyBatching:
    def test_touched_set_deduped_and_journal_batched(self):
        md = MetadataService(n_servers=2, range_size=64 * KB,
                             replication=2)
        records = [rec(i * 64 * KB, 64 * KB) for i in range(4)]
        stats = {}
        touched = md.insert_many(records, stats=stats)
        # 4 ranges x full replica set over 2 servers -> both, once each.
        assert touched == {0, 1}
        assert stats["batches"] == 4 and stats["pieces"] == 4
        for range_index in range(4):
            assert len(md.journal_records(range_index)) == 1

    def test_coalesce_before_journal_append(self):
        md = MetadataService(n_servers=2, range_size=1024 * KB)
        records = [rec(i * 4 * KB, 4 * KB) for i in range(8)]
        stats = {}
        md.insert_many(records, coalesce=True, stats=stats)
        assert stats["coalesced"] == 7
        assert len(md.journal_records(0)) == 1  # one piece, not 8

    def test_batched_equals_sequential(self):
        a = MetadataService(n_servers=4, range_size=64 * KB, replication=2)
        b = MetadataService(n_servers=4, range_size=64 * KB, replication=2)
        records = [rec(0, 96 * KB, proc=0), rec(96 * KB, 32 * KB, proc=1),
                   rec(16 * KB, 48 * KB, proc=1)]
        touched_a = a.insert_many(records)
        touched_b = set()
        for r in records:
            touched_b |= b.insert(r)
        assert touched_a == touched_b
        assert a.records_of(1) == b.records_of(1)
        assert a.server_record_counts() == b.server_record_counts()

    def test_dead_range_rejects_batch_like_sequential(self):
        md = MetadataService(n_servers=2, range_size=64 * KB)
        md.fail_server(1)  # range 1 (odd ranges) unavailable
        with pytest.raises(MetadataUnavailableError):
            md.insert_many([rec(0, 128 * KB)])
        # The piece in the live range stuck (legacy partial-apply).
        found, _ = md.lookup(1, 0, 64 * KB)
        assert sum(r.length for r in found) == 64 * KB


class TestJournalCheckpoint:
    def make(self, **kw):
        kw.setdefault("n_servers", 2)
        kw.setdefault("range_size", 64 * KB)
        kw.setdefault("replication", 2)
        kw.setdefault("checkpoint_threshold", 4)
        return MetadataService(**kw)

    def test_truncation_fires_and_bounds_journal(self):
        md = self.make()
        for i in range(32):
            md.insert(rec(i * 2 * KB, 2 * KB, va=i * 2 * KB))
        assert md.checkpoints_taken > 0
        assert md.journal_entries_truncated > 0
        for range_index, entries in md._journal.items():
            # Contiguous same-writer stream: the checkpoint compacts to
            # one record, so replay cost stays bounded at threshold-ish
            # instead of growing with the 32-insert history.
            assert len(entries) < 4  # live suffix below the threshold
            assert len(md.journal_records(range_index)) <= 4 + len(entries)

    def test_journal_keys_survive_truncation(self):
        # A truncated range keeps its (emptied) journal and stays
        # data-bearing, so recovery and pool changes still find it.
        md = self.make()
        for i in range(8):
            md.insert(rec(i * 2 * KB, 2 * KB, proc=i % 2, va=i * 2 * KB))
        assert md.checkpoints_taken > 0
        assert 0 in md._journal
        assert 0 in md.records.ranges()

    def test_no_truncation_with_dead_replica(self):
        md = self.make()
        md.insert(rec(0, 2 * KB))
        md.fail_server(1)
        before = md.checkpoints_taken
        for i in range(1, 8):
            md.insert(rec(i * 2 * KB, 2 * KB, va=i * 2 * KB))
        # Server 1 never acked: the range's journal must stay complete.
        assert md.checkpoints_taken == before
        assert len(md._journal[0]) == 8

    def test_replay_after_truncation_rebuilds_range(self):
        md = self.make(n_servers=4)
        for i in range(16):
            md.insert(rec(i * 2 * KB, 2 * KB, proc=i % 2, va=i * 2 * KB))
        assert md.checkpoints_taken > 0
        expect = md.records_of(1)
        expect_map = [(r.offset, r.length, r.proc_id, r.va) for r in expect]
        md.fail_server(0)
        md.recover_server(0)
        got = [(r.offset, r.length, r.proc_id, r.va)
               for r in md.records_of(1)]
        assert got == expect_map
        # Every range readable again.
        found, _ = md.lookup(1, 0, 32 * KB)
        assert sum(r.length for r in found) == 32 * KB

    def test_replay_counts_shrink(self):
        # The point of the ROADMAP item: takeover replay cost stops
        # growing with session lifetime.
        bounded = self.make()
        unbounded = self.make(checkpoint_threshold=0)
        for i in range(64):
            r = rec(i * KB, KB, va=i * KB)
            bounded.insert(r)
            unbounded.insert(r)
        assert (len(bounded.journal_records(0))
                < len(unbounded.journal_records(0)))

    def test_delete_file_scrubs_checkpoints(self):
        md = self.make()
        for i in range(8):
            md.insert(rec(i * 2 * KB, 2 * KB, va=i * 2 * KB))
        assert md.checkpoints_taken > 0
        md.delete_file(1)
        assert md.record_count == 0
        for range_index in range(4):
            assert md.journal_records(range_index) == []
