"""The history rule of the one record list (docs/MODEL.md §9).

A range's accepted history is stored only from the first insert that
trims, removes or merges one of its live records; until then, and again
after each checkpoint, the history *is* the live records.  The replay
costs the service prices from it — the takeover count and the split /
merge handoff counts — must equal those of an explicit full journal.
The reference here keeps that journal (checkpoint runs plus the suffix
of pieces) and a per-byte map of the file contents, so its checkpoints
do not go through the list under test.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StorageTier
from repro.core.metadata import MetadataRecord, MetadataService, split_record

RANGE = 64
N_RANGES = 4
SPAN = RANGE * N_RANGES
FIDS = (1, 2)


def record(fid, offset, length, proc):
    # va = offset + a per-writer base: contiguous records of one writer
    # are byte-exact continuations, so they merge.
    return MetadataRecord(fid=fid, offset=offset, length=length,
                          proc_id=proc, va=float(offset + 1000 * proc),
                          tier=StorageTier.DRAM, node_id=0)


class FullJournal:
    """The explicit history: per range, the checkpoint's runs and the
    pieces accepted since, as ``(fid, lo, hi)`` spans."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.checkpoint = {r: [] for r in range(N_RANGES)}
        self.suffix = {r: [] for r in range(N_RANGES)}
        self.bytes = {fid: [None] * SPAN for fid in FIDS}

    def insert_many(self, records):
        touched = []
        for rec in records:
            for piece in split_record(rec, RANGE):
                r = piece.offset // RANGE
                if r not in touched:
                    touched.append(r)
                self.suffix[r].append((piece.fid, piece.offset, piece.end))
                owner = self.bytes[piece.fid]
                for b in range(piece.offset, piece.end):
                    owner[b] = (piece.proc_id, piece.va + b - piece.offset)
        for r in touched:
            if self.threshold and len(self.suffix[r]) >= self.threshold:
                self.checkpoint[r] = self.runs(r)
                self.suffix[r] = []

    def runs(self, r):
        """Maximal runs of one writer's contiguous bytes in range r —
        the compacted record list, built byte by byte."""
        out = []
        for fid in FIDS:
            owner = self.bytes[fid]
            start = None
            for b in range(r * RANGE, (r + 1) * RANGE + 1):
                cur = owner[b] if b < (r + 1) * RANGE else None
                prev = owner[b - 1] if start is not None else None
                if start is not None and (
                        cur is None or cur[0] != prev[0]
                        or cur[1] != prev[1] + 1):
                    out.append((fid, start, b))
                    start = None
                if start is None and cur is not None:
                    start = b
        return out

    def delete(self, fid):
        self.bytes[fid] = [None] * SPAN
        for r in range(N_RANGES):
            self.checkpoint[r] = [s for s in self.checkpoint[r]
                                  if s[0] != fid]
            self.suffix[r] = [s for s in self.suffix[r] if s[0] != fid]

    def history(self, r):
        return self.checkpoint[r] + self.suffix[r]

    def overlapping(self, r, lo, hi):
        return sum(1 for _fid, s, e in self.history(r) if e > lo and s < hi)


writes = st.tuples(st.sampled_from(FIDS), st.integers(0, SPAN - 1),
                   st.integers(1, 48), st.integers(0, 2))
ops = st.one_of(
    # A batch of writes: inserts, overwrites of earlier data, and
    # contiguous same-writer records that merge with earlier ones.
    st.lists(writes, min_size=1, max_size=4).map(lambda w: ("write", w)),
    # Checkpoint: enough disjoint appends to one range to reach any
    # threshold drawn below.
    st.tuples(st.sampled_from(FIDS), st.integers(0, N_RANGES - 1)).map(
        lambda a: ("checkpoint",) + a),
    st.sampled_from(FIDS).map(lambda fid: ("delete", fid)))


def run(ops_list, threshold):
    md = MetadataService(4, RANGE, replication=2,
                         checkpoint_threshold=threshold)
    ref = FullJournal(threshold)
    for op in ops_list:
        if op[0] == "write":
            recs = [record(fid, off, min(ln, SPAN - off), proc)
                    for fid, off, ln, proc in op[1]]
            md.insert_many(recs)
            ref.insert_many(recs)
        elif op[0] == "checkpoint":
            _tag, fid, r = op
            recs = [record(fid, r * RANGE + 4 * k, 2, 3 + k % 2)
                    for k in range(4)]
            md.insert_many(recs)
            ref.insert_many(recs)
        else:
            md.delete_file(op[1])
            ref.delete(op[1])
    return md, ref


class TestHistoryRule:
    @given(st.lists(ops, min_size=1, max_size=12),
           st.sampled_from([0, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_replay_counts_match_a_full_journal(self, ops_list, threshold):
        md, ref = run(ops_list, threshold)
        for r in range(N_RANGES):
            history = ref.history(r)
            # Takeover: the recovery service prices the journal replay
            # by the pieces of checkpoint plus journal.
            assert len(md.journal_records(r)) == len(history), r
            hi = (r + 1) * RANGE
            # Split hands the upper half to fresh members; merge brings
            # the whole range back onto the first sub's members.
            view = copy.deepcopy(md)
            old = view.replica_servers(r)
            moved = view.split_range(r)
            mid, new = view.sub_ranges(r)[1]
            fresh = [s for s in new if s not in old]
            assert moved == len(fresh) * ref.overlapping(r, mid, hi), r
            assert view.merge_range(r) == len(old) * len(history), r
            # Read spread replays the whole range onto one spare.
            view = copy.deepcopy(md)
            assert view.set_read_spread(r) == len(history), r

    def test_append_only_writes_store_no_history(self):
        md = MetadataService(4, RANGE, replication=2)
        md.insert_many([record(1, 16 * k, 16, k % 3) for k in range(16)])
        assert md.records.history == {}
        assert md._journal == {}
        assert md.record_count == 16  # one list, whatever the replication
        assert sum(md.server_record_counts()) == 2 * 16

    def test_first_disturbing_insert_starts_one_range(self):
        md = MetadataService(4, RANGE, replication=2)
        md.insert_many([record(1, 0, 16, 0), record(1, 64, 16, 0)])
        md.insert_many([record(1, 8, 4, 1)])  # trims range 0 only
        assert set(md.records.history) == {0}
        assert len(md.journal_records(0)) == 2
        assert len(md.journal_records(1)) == 1
        md.insert_many([record(1, 80, 8, 0)])  # merges in range 1
        assert set(md.records.history) == {0, 1}
        assert len(md.journal_records(1)) == 2
        assert md.records.records(1)[-1].length == 24

    def test_checkpoint_makes_history_the_live_records_again(self):
        md = MetadataService(4, RANGE, replication=2,
                             checkpoint_threshold=3)
        md.insert_many([record(1, 0, 16, 0)])
        md.insert_many([record(1, 4, 4, 1)])  # diverges range 0
        assert 0 in md.records.history
        md.insert_many([record(1, 32, 4, 2)])  # third entry: checkpoint
        assert md.checkpoints_taken == 1
        assert md.records.history == {}
        assert md.journal_records(0) == md.records.records(1)
