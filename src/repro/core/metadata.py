"""Distributed metadata service (§II-B3) with optional replication.

One record per placed segment maps ``(FID, logical offset range)`` to
``(ProcID, VA)`` — Fig. 3's ``M1..M16``.  Records are partitioned into
fixed-width **offset ranges** and the ranges are assigned to servers
round-robin, so (a) no single server owns a whole file's metadata (the
scalability argument against the naive centralised map) and (b) a client
can compute the owning server of any offset locally — one RPC per lookup.

Replication (robustness extension): with ``replication >= 2`` every range
is mirrored onto the next ``replication - 1`` servers at ``replica_stride``
steps (a stride of ``servers_per_node`` keeps replicas off the primary's
node, so a node crash never takes a range's whole replica set).  Writes go
to every live replica; a client computes the replica set locally and reads
from the first live member — owner death costs nothing but the failover.
When every replica of a range is dead the range is gone:
:class:`MetadataUnavailableError`.

Recovery (self-healing extension): every accepted insert is also
recorded in a **write-ahead journal** on durable shared storage,
partitioned by offset range.  :meth:`recover_server` — driven by the
failure detector through :class:`~repro.core.recovery.RecoveryService`
— reassigns every range that lost a copy with the dead server to
surviving servers and rebuilds the missing copies, so lookups route to
the new owner instead of failing over per-read forever, and a range
whose *whole* replica set died comes back instead of raising
``MetadataUnavailableError`` until the end of time.

One record list per file (docs/MODEL.md §9): the service applies each
accepted piece once, to a single :class:`RecordMap`.  A replica is a
*view* of that list — the service tracks only its membership, liveness,
reachability and fence state — because every copy that can answer holds
the same list: a copy that missed a write is fenced until rebuilt, and
a rebuild replays the accepted history.  Takeover, split, merge and
migration therefore apply nothing; they keep their simulated cost, the
pieces of checkpoint plus journal a real rebuild would replay.  The
journal stores a range's history only from the first insert that trims,
removes or merges one of its live records: until then (and again after
each checkpoint) the history *is* the range's live records.

Metadata fast path (perf extension, docs/MODEL.md §9): batched inserts
(:meth:`insert_many` groups pieces by range), contiguous-record
**coalescing** before the journal append, **merge-on-insert
compaction** (adjacent contiguous records of the same writer collapse,
bounding the list length every lookup bisects over), and **journal
checkpoint + truncation** (once every replica of a range is alive to
acknowledge, the range's journal folds into a checkpoint, so takeover
replay cost stops growing with session lifetime).  All of it is
timing-neutral: the simulated cost accounting is unchanged, only the
simulator's own work shrinks.

Hotspot mitigation (adaptive extension, docs/MODEL.md §11): a base
offset range can be **split online** into contiguous sub-ranges with
independent replica sets (:meth:`split_range` / :meth:`merge_range`), so
a skewed workload's inserts and lookups spread over several servers
instead of serialising on one owner.  The journal, checkpoints, epochs
and the stale/fence table all stay **base-range granular** — a split
range hands state off at the replay cost a takeover pays, and fencing a
server fences it for every sub-range it touches (conservative but
always safe).  The server pool itself is
**elastic**: :meth:`add_server` pins every data-bearing range's current
assignment before extending the round-robin arithmetic, and
:meth:`remove_server` drains a retiree's memberships through quorum-
checked per-range migrations.  Read-hot ranges can be **re-replicated**
(:meth:`set_read_spread`) with rotating replica selection to cut lookup
fan-out.  When no mitigation state exists every new branch is a falsy
check: routing, cost accounting and digests are bit-identical to the
static assignment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import StorageTier
from repro.core.errors import DataLossError, QuorumLostError

__all__ = ["MetadataRecord", "MetadataService", "MetadataUnavailableError",
           "QuorumLostError", "RecordMap", "coalesce_records",
           "split_record"]


class MetadataUnavailableError(DataLossError):
    """Every replica of a metadata range has failed — its records are gone.

    A :class:`~repro.core.errors.DataLossError` subclass: losing the map
    to the data is losing the data, and the chaos harness's durability
    invariant treats both identically.
    """


def _mergeable(prev: "MetadataRecord", cur: "MetadataRecord") -> bool:
    """True when ``cur`` is the byte-exact continuation of ``prev``.

    Safe to merge only when the merged record resolves to the same bytes
    as the pair: same file, same writing process, same tier (a VA is only
    meaningful within one layer — contiguous VAs can straddle a layer
    boundary when a log fills exactly to capacity), same node, and both
    the logical offsets *and* the virtual addresses are contiguous.
    """
    return (prev.fid == cur.fid
            and prev.proc_id == cur.proc_id
            and prev.tier is cur.tier
            and prev.node_id == cur.node_id
            and prev.offset + prev.length == cur.offset
            and prev.va + prev.length == cur.va)


def _merge(prev: "MetadataRecord", cur: "MetadataRecord") -> "MetadataRecord":
    return MetadataRecord(prev.fid, prev.offset, prev.length + cur.length,
                          prev.proc_id, prev.va, prev.tier, prev.node_id)


def coalesce_records(
        records: Iterable["MetadataRecord"],
) -> Tuple[List["MetadataRecord"], int]:
    """Merge *immediately consecutive* contiguous records; returns
    ``(coalesced, merges)``.

    Only adjacent pairs in the stream are considered: merging across an
    intervening record could reorder an overwrite (a later overlapping
    record from another process must still supersede exactly the bytes
    it did before).  Streams from one collective write op are per-process
    runs of chunk records, so the common case collapses completely.
    """
    out: List[MetadataRecord] = []
    merges = 0
    for rec in records:
        if out and _mergeable(out[-1], rec):
            out[-1] = _merge(out[-1], rec)
            merges += 1
        else:
            out.append(rec)
    return out, merges


def split_record(record: "MetadataRecord",
                 range_size: float) -> Iterable["MetadataRecord"]:
    """Split a record at range boundaries so each piece has one owner."""
    start = record.offset
    while start < record.end:
        boundary = (int(start // range_size) + 1) * range_size
        end = min(record.end, int(boundary))
        yield record.slice(start, end)
        start = end


@dataclass(frozen=True, slots=True)
class MetadataRecord:
    """Fig. 3's record: FID + offset -> source process + VA (+ locality)."""

    fid: int
    offset: int
    length: int
    proc_id: int
    va: float
    tier: StorageTier
    #: Compute node hosting the segment (meaningful for node-local tiers;
    #: the location-aware read service keys on this, §II-B4).
    node_id: Optional[int] = None

    def __post_init__(self):
        if self.offset < 0 or self.length <= 0:
            raise ValueError(f"invalid record range [{self.offset}, "
                             f"+{self.length})")

    @property
    def end(self) -> int:
        return self.offset + self.length

    def slice(self, start: int, end: int) -> "MetadataRecord":
        """Sub-record for [start, end) ⊆ [offset, end); VA advances too."""
        if not (self.offset <= start < end <= self.offset + self.length):
            raise ValueError(f"slice [{start}, {end}) outside record "
                             f"[{self.offset}, {self.end})")
        # Direct construction: dataclasses.replace re-introspects fields
        # on every call and slice() sits on the lookup/insert hot paths.
        return MetadataRecord(self.fid, start, end - start, self.proc_id,
                              self.va + (start - self.offset), self.tier,
                              self.node_id)


def _clip(records: Iterable[MetadataRecord], lo: int,
          hi: int) -> Iterable[MetadataRecord]:
    """The parts of offset-sorted ``records`` inside [lo, hi)."""
    for rec in records:
        if rec.end <= lo or rec.offset >= hi:
            continue
        if rec.offset >= lo and rec.end <= hi:
            yield rec
        else:
            yield rec.slice(max(rec.offset, lo), min(rec.end, hi))


def _cut(rec: MetadataRecord, cuts: List[int]) -> Iterable[MetadataRecord]:
    """``rec`` sliced at every cut point strictly inside it."""
    start = rec.offset
    for cut in cuts:
        if start < cut < rec.end:
            yield rec.slice(start, cut)
            start = cut
    yield rec if start == rec.offset else rec.slice(start, rec.end)


class RecordMap:
    """The one record list per file: ``fid -> (sorted starts, records)``.

    Each accepted piece is applied once: an overwrite trims or removes
    the records it overlaps, then (with ``compaction``) the seams it
    created merge, never across a range boundary.  The map also keeps
    the accepted history of each range whose live records no longer
    equal it — from the first insert that trims, removes or merges one
    of the range's live records on.  Until then the history is the live
    records themselves, so an append-only range stores nothing extra.
    """

    def __init__(self, range_size: float, compaction: bool = True):
        if range_size <= 0:
            raise ValueError(f"range_size must be positive, got {range_size}")
        self.range_size = float(range_size)
        self.compaction = compaction
        self._files: Dict[int, Tuple[List[int], List[MetadataRecord]]] = {}
        #: range -> accepted pieces in arrival order, for the ranges
        #: whose history diverged from their live records.
        self.history: Dict[int, List[MetadataRecord]] = {}

    @property
    def count(self) -> int:
        return sum(len(recs) for _starts, recs in self._files.values())

    def records(self, fid: int) -> List[MetadataRecord]:
        """The live records of a file, in offset order (do not mutate)."""
        entry = self._files.get(fid)
        return entry[1] if entry else []

    def fids(self) -> List[int]:
        return sorted(self._files)

    def ranges(self) -> Set[int]:
        """Ranges holding at least one live record."""
        range_size = self.range_size
        return {int(rec.offset // range_size)
                for _starts, recs in self._files.values() for rec in recs}

    def range_records(self, range_index: int) -> List[MetadataRecord]:
        """Live records of one range, by fid then offset (records never
        straddle a range boundary)."""
        lo = int(range_index * self.range_size)
        hi = int((range_index + 1) * self.range_size)
        out: List[MetadataRecord] = []
        for fid in sorted(self._files):
            starts, recs = self._files[fid]
            i = bisect.bisect_left(starts, lo)
            out.extend(recs[i:bisect.bisect_left(starts, hi, i)])
        return out

    def history_of(self, range_index: int) -> List[MetadataRecord]:
        """The range's accepted history in replay order."""
        history = self.history.get(range_index)
        if history is None:
            return self.range_records(range_index)
        return list(history)

    # -- mutation ----------------------------------------------------------
    def insert_records(self, records: Iterable[MetadataRecord]) -> None:
        """Apply accepted records in order; a record spanning a range
        boundary is split first."""
        files = self._files
        range_size = self.range_size
        history = self.history
        bisect_left = bisect.bisect_left
        for record in records:
            if (int(record.offset // range_size)
                    == int((record.end - 1) // range_size)):
                pieces: Iterable[MetadataRecord] = (record,)
            else:
                pieces = split_record(record, range_size)
            for piece in pieces:
                entry = files.get(piece.fid)
                if entry is None:
                    entry = files[piece.fid] = ([], [])
                starts, recs = entry
                lo = bisect_left(starts, piece.offset)
                if lo > 0 and recs[lo - 1].end > piece.offset:
                    lo -= 1
                range_index = int(piece.offset // range_size)
                journal = history.get(range_index)
                if journal is None and self._disturbs(recs, lo, piece):
                    journal = history[range_index] = self.range_records(
                        range_index)
                if journal is not None:
                    journal.append(piece)
                self._apply(starts, recs, lo, piece)

    def _same_range(self, prev: MetadataRecord, cur: MetadataRecord) -> bool:
        return (int(prev.offset // self.range_size)
                == int((cur.end - 1) // self.range_size))

    def _disturbs(self, recs: List[MetadataRecord], lo: int,
                  piece: MetadataRecord) -> bool:
        """Whether inserting ``piece`` at ``lo`` trims, removes or merges
        a live record."""
        if lo < len(recs) and recs[lo].offset < piece.end:
            return True
        if not self.compaction:
            return False
        if lo > 0 and _mergeable(recs[lo - 1], piece) and self._same_range(
                recs[lo - 1], piece):
            return True
        return (lo < len(recs) and _mergeable(piece, recs[lo])
                and self._same_range(piece, recs[lo]))

    def _apply(self, starts: List[int], recs: List[MetadataRecord], lo: int,
               piece: MetadataRecord) -> None:
        hi = lo
        keep_left: Optional[MetadataRecord] = None
        keep_right: Optional[MetadataRecord] = None
        while hi < len(recs) and recs[hi].offset < piece.end:
            old = recs[hi]
            if old.offset < piece.offset:
                keep_left = old.slice(old.offset, piece.offset)
            if old.end > piece.end:
                keep_right = old.slice(piece.end, old.end)
            hi += 1
        replacement = [r for r in (keep_left, piece, keep_right)
                       if r is not None]
        recs[lo:hi] = replacement
        starts[lo:hi] = [r.offset for r in replacement]
        if self.compaction:
            # Merge the seams the insert created: recs[lo-1] through the
            # record after the replacement.  Merges never cross a range
            # boundary, so every piece keeps one owning range.
            j = max(lo, 1)
            end_idx = lo + len(replacement)
            while j <= end_idx and j < len(recs):
                prev, cur = recs[j - 1], recs[j]
                if _mergeable(prev, cur) and self._same_range(prev, cur):
                    recs[j - 1:j + 1] = [_merge(prev, cur)]
                    del starts[j]
                    end_idx -= 1
                else:
                    j += 1

    def compact(self, fid: Optional[int] = None) -> int:
        """Merge every adjacent contiguous same-writer pair (within one
        range) of the given file or of all files; returns merges done."""
        merged = 0
        for f in ([fid] if fid is not None else list(self._files)):
            entry = self._files.get(f)
            if not entry:
                continue
            starts, recs = entry
            j = 1
            while j < len(recs):
                prev, cur = recs[j - 1], recs[j]
                if _mergeable(prev, cur) and self._same_range(prev, cur):
                    range_index = int(prev.offset // self.range_size)
                    if range_index not in self.history:
                        self.history[range_index] = self.range_records(
                            range_index)
                    recs[j - 1:j + 1] = [_merge(prev, cur)]
                    del starts[j]
                    merged += 1
                else:
                    j += 1
        return merged

    def delete(self, fid: int) -> None:
        """Drop a file's records and history."""
        self._files.pop(fid, None)
        for range_index in list(self.history):
            kept = [p for p in self.history[range_index] if p.fid != fid]
            if kept:
                self.history[range_index] = kept
            else:
                del self.history[range_index]

    # -- lookup ------------------------------------------------------------
    def lookup(self, fid: int, offset: int,
               length: int) -> List[MetadataRecord]:
        """Records overlapping [offset, offset+length), clipped to it, in
        offset order.  Unmapped holes are simply absent."""
        entry = self._files.get(fid)
        if entry is None or length <= 0:
            return []
        starts, recs = entry
        end = offset + length
        lo = bisect.bisect_left(starts, offset)
        if lo > 0 and recs[lo - 1].end > offset:
            lo -= 1
        hi = bisect.bisect_left(starts, end, lo)
        found: List[MetadataRecord] = []
        for i in range(lo, hi):
            rec = recs[i]
            rec_end = rec.offset + rec.length
            if rec_end <= offset:
                continue
            if rec.offset >= offset and rec_end <= end:
                # Fully covered: records are frozen, so share the object
                # (the common case — aligned reads never clip).
                found.append(rec)
            else:
                found.append(rec.slice(max(rec.offset, offset),
                                       min(rec_end, end)))
        return found


class MetadataService:
    """The distributed KV store over all UniviStor servers.

    The functional store is exact (one :class:`RecordMap`); the *cost*
    of an operation is returned as the set of servers contacted, which
    the caller prices with the network model.
    """

    def __init__(self, n_servers: int, range_size: float,
                 replication: int = 1, replica_stride: int = 1,
                 compaction: bool = True, checkpoint_threshold: int = 0,
                 quorum: bool = False):
        if n_servers < 1:
            raise ValueError(f"need at least one server, got {n_servers}")
        if range_size <= 0:
            raise ValueError(f"range_size must be positive, got {range_size}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if replica_stride < 1:
            raise ValueError(
                f"replica_stride must be >= 1, got {replica_stride}")
        if checkpoint_threshold < 0:
            raise ValueError(f"checkpoint_threshold must be >= 0, got "
                             f"{checkpoint_threshold}")
        self.n_servers = n_servers
        self.range_size = float(range_size)
        self.replication = min(replication, n_servers)
        self.replica_stride = replica_stride
        #: Fold a range's journal into a compacted checkpoint once it
        #: reaches this many entries *and* every replica is alive to
        #: acknowledge.  0 disables truncation (journal grows unbounded,
        #: the pre-fast-path behaviour).
        self.checkpoint_threshold = checkpoint_threshold
        #: Checkpoint/truncation observability (host-side only).
        self.checkpoints_taken = 0
        self.journal_entries_truncated = 0
        #: Observer called as ``on_checkpoint(range_index, truncated)``
        #: after a journal truncation (telemetry counter wiring).
        self.on_checkpoint: Optional[Callable[[int, int], None]] = None
        #: Majority-quorum mode (CAP-complete failure model): writes need
        #: a majority of the replica set, reads repair lagging copies
        #: instead of skipping past them silently.
        self.quorum = quorum
        #: Servers whose partition is lost (crash injection).
        self.failed_servers: Set[int] = set()
        #: Servers that are alive but cut off by a network partition —
        #: requests to them are lost, so they can neither ack writes nor
        #: serve reads until the partition heals.
        self.unreachable_servers: Set[int] = set()
        #: Quorum/fencing observability (host-side only).
        self.read_repairs = 0
        self.fence_rejections = 0
        #: Observer called as ``on_read_repair(range_index, server)`` when
        #: a read brings a lagging replica current (telemetry wiring).
        self.on_read_repair: Optional[Callable[[int, int], None]] = None
        #: Observer called as ``on_fence_reject(range_index, server)``
        #: when a stale (fenced / lagging) copy is refused as a read or
        #: write target.
        self.on_fence_reject: Optional[Callable[[int, int], None]] = None
        #: Observer called as ``on_failover(range_index, server)`` when a
        #: read is served by a non-primary replica (telemetry wiring).
        self.on_failover: Optional[Callable[[int, int], None]] = None
        #: The one record list per file every replica view answers
        #: from.  ``compaction`` merges adjacent contiguous same-writer
        #: records (never across a range boundary), bounding the list
        #: length that every lookup bisects over.
        self.records = RecordMap(range_size, compaction)
        # Journal suffix per range: the pieces accepted since the range's
        # last checkpoint.  Kept only while checkpointing is on, for the
        # truncation threshold; the history itself lives in the records
        # map (see RecordMap.history).
        self._journal: Dict[int, List[MetadataRecord]] = {}
        # Ranges whose replica set was rewritten by a takeover.  Absent
        # entries use the computed round-robin set, so the healthy-cluster
        # routing (and its cost accounting) is bit-identical to before.
        self._range_replicas: Dict[int, List[int]] = {}
        # Lease epoch per range (absent -> 0).  Bumped whenever ownership
        # is rewritten by a takeover; a copy written under an older epoch
        # is fenced until rebuilt.
        self._range_epoch: Dict[int, int] = {}
        # range -> servers holding a stale copy: members that missed a
        # quorum write while unreachable (lagging) or whose lease epoch
        # was superseded by a takeover (fenced).  Stale copies never
        # serve reads, never ack writes, and are invisible to
        # :meth:`records_of` until rebuilt from the journal.
        self._stale: Dict[int, Set[int]] = {}
        # -- hotspot mitigation state (docs/MODEL.md §11) ------------------
        # All empty/disabled by default; every consumer guards on
        # falsiness, so static-assignment routing (and digests) is
        # bit-identical until the first split, pool change, or heat bump.
        # base range -> sorted [(sub_start_offset, members), ...].  The
        # first sub always starts at the base range's low offset; a range
        # absent here is unsplit.
        self._splits: Dict[int, List[Tuple[int, List[int]]]] = {}
        # Explicit server pool (None until the first add/remove_server):
        # replaces the ``% n_servers`` arithmetic for ranges without a
        # pinned assignment, while every pre-existing data-bearing range
        # is pinned into _range_replicas before the pool first changes.
        self._pool: Optional[List[int]] = None
        # Retired (drained) servers: never spares, never split members.
        self._retired: Set[int] = set()
        # Read-hot ranges: rotation counter for replica selection, so
        # lookups fan out over the (possibly re-replicated) member set.
        self._read_spread: Dict[int, int] = {}
        #: Record per-range activity for :meth:`take_heat` (set by the
        #: :class:`~repro.core.hotspot.HotspotManager` when enabled).
        self.heat_enabled = False
        self._write_heat: Dict[int, int] = {}
        self._read_heat: Dict[int, int] = {}
        #: Hook fired when heat is recorded (the hotspot manager restarts
        #: its quiesced tick loop from it).
        self.on_activity: Optional[Callable[[], None]] = None
        #: Mitigation observability (host-side only).
        self.splits_done = 0
        self.merges_done = 0
        self.migrations_done = 0

    @property
    def record_count(self) -> int:
        """Records in the one list (each record counted once, however
        many replica views answer for it)."""
        return self.records.count

    # -- partitioning ------------------------------------------------------
    def server_of(self, offset: int) -> int:
        """Owning server of ``offset``: range index round-robin (Fig. 3).

        With a split range or an elastic pool the owner is the primary of
        the member set responsible at ``offset``."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        range_index = int(offset // self.range_size)
        if self._splits or self._pool is not None:
            return self._members_at(range_index, offset)[0]
        return range_index % self.n_servers

    def replica_servers(self, range_index: int) -> List[int]:
        """Replica set of a range, primary first.

        Client-computable from the range index alone on a healthy cluster;
        after a takeover the rewritten set is served from the (replicated)
        assignment table instead.  For a *split* range this is the ordered
        union of every sub-range's members (what checkpointing and
        recovery must account for); per-offset routing uses
        :meth:`_members_at`.
        """
        override = self._range_replicas.get(range_index)
        if override is not None:
            return list(override)
        subs = self._splits.get(range_index)
        if subs is not None:
            union: List[int] = []
            for _start, members in subs:
                for server in members:
                    if server not in union:
                        union.append(server)
            return union
        if self._pool is not None:
            pool = self._pool
            out: List[int] = []
            for k in range(self.replication):
                server = pool[(range_index + k * self.replica_stride)
                              % len(pool)]
                if server not in out:
                    out.append(server)
            return out
        out = []
        for k in range(self.replication):
            server = (range_index + k * self.replica_stride) % self.n_servers
            if server not in out:
                out.append(server)
        return out

    def _members_at(self, range_index: int,
                    offset: Optional[int] = None) -> List[int]:
        """Members responsible at ``offset`` inside the range — the
        sub-range's set when split, else the whole replica set.  With
        ``offset=None`` a split range answers with its member union."""
        subs = self._splits.get(range_index)
        if subs is None or offset is None:
            return self.replica_servers(range_index)
        members = subs[0][1]
        for start, sub_members in subs:
            if start <= offset:
                members = sub_members
            else:
                break
        return list(members)

    def _overlapping_subs(self, range_index: int, lo: int,
                          hi: int) -> Iterable[Tuple[int, int]]:
        """Clipped ``(span_lo, span_hi)`` of each sub-range of a *split*
        range overlapping [lo, hi), in offset order."""
        subs = self._splits[range_index]
        base_end = int((range_index + 1) * self.range_size)
        for i, (start, _members) in enumerate(subs):
            end = subs[i + 1][0] if i + 1 < len(subs) else base_end
            if end <= lo or start >= hi:
                continue
            yield max(lo, start), min(hi, end)

    def _note_write(self, range_index: int) -> None:
        self._write_heat[range_index] = (
            self._write_heat.get(range_index, 0) + 1)
        if self.on_activity is not None:
            self.on_activity()

    def _note_read(self, range_index: int) -> None:
        self._read_heat[range_index] = (
            self._read_heat.get(range_index, 0) + 1)
        if self.on_activity is not None:
            self.on_activity()

    def take_heat(self) -> Dict[int, Tuple[int, int]]:
        """Drain the per-range ``(writes, reads)`` recorded since the
        last call — the hotspot manager's decision input."""
        heat: Dict[int, Tuple[int, int]] = {}
        for range_index, n in self._write_heat.items():
            heat[range_index] = (n, 0)
        for range_index, n in self._read_heat.items():
            writes, _ = heat.get(range_index, (0, 0))
            heat[range_index] = (writes, n)
        self._write_heat.clear()
        self._read_heat.clear()
        return heat

    def read_server_of(self, range_index: int,
                       offset: Optional[int] = None) -> int:
        """First live, reachable, *current* replica of a range — the
        server a client reads from.

        A fenced or lagging copy never answers: with quorum mode a
        reachable one is **read-repaired** (journal replay) before
        selection, without it the copy is skipped.  Raises
        :class:`MetadataUnavailableError` when the whole replica set is
        dead, :class:`QuorumLostError` when live copies exist but none
        is reachable and current; fires :attr:`on_failover` when the
        intended replica is not the one answering.

        ``offset`` narrows a *split* range to the sub-range responsible
        for it; a range marked read-hot (:meth:`set_read_spread`) rotates
        which member answers, spreading lookup fan-out.
        """
        if self.heat_enabled:
            self._note_read(range_index)
        if (self.replication == 1 and not self.failed_servers
                and not self.unreachable_servers and not self._stale
                and not self._splits and not self._read_spread
                and self._pool is None):
            # Fast path: unreplicated healthy cluster with no mitigation
            # state — the primary *is* the replica set, no list to build.
            return range_index % self.n_servers
        stale = self._stale.get(range_index)
        if stale and self.quorum:
            # Read-repair: bring every reachable lagging copy current
            # from the journal before picking who answers.
            for server in sorted(stale):
                if (server not in self.failed_servers
                        and server not in self.unreachable_servers):
                    self._rebuild_copy(range_index, server)
                    self.read_repairs += 1
                    if self.on_read_repair is not None:
                        self.on_read_repair(range_index, server)
            stale = self._stale.get(range_index)
        replicas = self._members_at(range_index, offset)
        spread = self._read_spread.get(range_index)
        if spread is not None and len(replicas) > 1:
            # Read-hot range: rotate the intended replica.  Serving a
            # member other than the *rotated* head is still a failover.
            k = spread % len(replicas)
            self._read_spread[range_index] = spread + 1
            order = replicas[k:] + replicas[:k]
        else:
            order = replicas
        for server in order:
            if (server in self.failed_servers
                    or server in self.unreachable_servers):
                continue
            if stale and server in stale:
                # Fenced copy without quorum read-repair: it must not
                # answer — its records may predate the current epoch.
                self.fence_rejections += 1
                if self.on_fence_reject is not None:
                    self.on_fence_reject(range_index, server)
                continue
            if server != order[0] and self.on_failover is not None:
                self.on_failover(range_index, server)
            return server
        if all(s in self.failed_servers for s in replicas):
            raise MetadataUnavailableError(
                f"metadata range {range_index} lost: all replicas "
                f"{replicas} have failed")
        raise QuorumLostError(
            f"metadata range {range_index} unavailable: no reachable "
            f"current replica in {replicas} (partitioned or fenced)",
            range_index=range_index, acked=0,
            needed=(len(replicas) // 2 + 1) if self.quorum else 1)

    def fail_server(self, server: int) -> None:
        """A server process dies: its partition (all copies it held) is
        gone.  Surviving replicas keep their ranges readable."""
        if not 0 <= server < self.n_servers:
            raise ValueError(f"no server {server}")
        self.failed_servers.add(server)

    def set_unreachable(self, server: int) -> None:
        """A live server is cut off by a network partition: it can
        neither ack writes nor serve reads until the link heals."""
        if not 0 <= server < self.n_servers:
            raise ValueError(f"no server {server}")
        self.unreachable_servers.add(server)

    def set_reachable(self, server: int) -> None:
        """The partition healed for ``server``.  Copies that lagged or
        were fenced while it was away stay stale until read-repaired or
        rebuilt by a takeover — reachability is not currency."""
        self.unreachable_servers.discard(server)

    def range_epoch(self, range_index: int) -> int:
        """Current lease epoch of a range (0 until a takeover rewrites
        its ownership)."""
        return self._range_epoch.get(range_index, 0)

    def stale_members(self, range_index: int) -> Set[int]:
        """Servers holding a fenced or lagging copy of the range."""
        return set(self._stale.get(range_index, ()))

    def servers_for_range(self, offset: int, length: int) -> Set[int]:
        """All servers owning part of [offset, offset+length)."""
        if length <= 0:
            return set()
        end = offset + length
        first = int(offset // self.range_size)
        last = int((end - 1) // self.range_size)
        if self._splits or self._pool is not None:
            owners: Set[int] = set()
            for r in range(first, last + 1):
                if r in self._splits:
                    lo = max(offset, int(r * self.range_size))
                    hi = min(end, int((r + 1) * self.range_size))
                    for span_lo, _hi in self._overlapping_subs(r, lo, hi):
                        owners.add(self._members_at(r, span_lo)[0])
                else:
                    owners.add(self.replica_servers(r)[0])
            return owners
        if last - first + 1 >= self.n_servers:
            return set(range(self.n_servers))
        return {(r % self.n_servers) for r in range(first, last + 1)}

    def _split_by_range(self, record: MetadataRecord) -> Iterable[MetadataRecord]:
        if not self._splits:
            return split_record(record, self.range_size)
        return self._split_by_sub_range(record)

    def _split_by_sub_range(
            self, record: MetadataRecord) -> Iterable[MetadataRecord]:
        """Like :func:`split_record`, but pieces inside a *split* range
        are additionally sliced at its sub-range boundaries, so every
        journaled piece has exactly one responsible member set."""
        for piece in split_record(record, self.range_size):
            range_index = int(piece.offset // self.range_size)
            subs = self._splits.get(range_index)
            if subs is None or len(subs) == 1:
                yield piece
                continue
            start = piece.offset
            while start < piece.end:
                nxt = piece.end
                for sub_start, _members in subs:
                    if sub_start > start:
                        nxt = min(nxt, sub_start)
                        break
                yield piece.slice(start, nxt)
                start = nxt

    # -- mutation ----------------------------------------------------------
    def _write_ackers(self, range_index: int,
                      offset: Optional[int] = None) -> List[int]:
        """Replica-set members that can ack a write to the range: alive,
        reachable, and current (not fenced).

        With quorum mode the write is rejected
        (:class:`QuorumLostError`) unless a strict majority of the
        *full* replica set can ack — the minority side of a partition
        must not apply a write the majority side could contradict after
        a takeover.  Without quorum any single acker suffices (the
        original any-replica-alive semantics), but a range whose live
        copies are all partitioned away still raises: there is nobody to
        apply the write to.

        ``offset`` narrows a *split* range to the sub-range responsible
        for it; quorum majorities are then over that sub's member set.
        """
        if self.heat_enabled:
            self._note_write(range_index)
        replicas = self._members_at(range_index, offset)
        if not (self.unreachable_servers or self._stale):
            ackers = [s for s in replicas if s not in self.failed_servers]
        else:
            stale = self._stale.get(range_index, ())
            ackers = [s for s in replicas
                      if s not in self.failed_servers
                      and s not in self.unreachable_servers
                      and s not in stale]
        if not ackers:
            if all(s in self.failed_servers for s in replicas):
                raise MetadataUnavailableError(
                    f"metadata range {range_index} lost: all replicas "
                    f"{replicas} have failed")
            raise QuorumLostError(
                f"metadata range {range_index} unavailable: no reachable "
                f"current replica in {replicas}",
                range_index=range_index, acked=0,
                needed=(len(replicas) // 2 + 1) if self.quorum else 1)
        if self.quorum:
            needed = len(replicas) // 2 + 1
            if len(ackers) < needed:
                raise QuorumLostError(
                    f"metadata range {range_index}: only {len(ackers)} of "
                    f"{len(replicas)} replicas can ack, majority {needed} "
                    f"required", range_index=range_index,
                    acked=len(ackers), needed=needed)
        return ackers

    def _mark_missed(self, range_index: int, ackers: List[int],
                     members: Optional[List[int]] = None) -> None:
        """Fence every live member that missed an accepted write: a
        lagging copy must not serve reads or ack writes until rebuilt
        from the journal (read-repair or takeover).  ``members`` narrows
        the check to a split sub-range's set (the fence itself stays
        base-range granular — conservative but always safe)."""
        replicas = (members if members is not None
                    else self.replica_servers(range_index))
        if len(ackers) == len(replicas):
            return
        for server in replicas:
            if server in ackers or server in self.failed_servers:
                continue
            self._stale.setdefault(range_index, set()).add(server)

    def insert(self, record: MetadataRecord,
               pieces: Optional[List[MetadataRecord]] = None) -> Set[int]:
        """Insert (overwriting overlaps); returns servers contacted.

        With replication every ackable replica of the piece's range
        acknowledges it; a range whose whole replica set is dead rejects
        the write, and quorum mode additionally rejects writes a
        majority cannot ack (:meth:`_write_ackers`).  Accepted pieces
        are applied to the record list and journaled (after the
        acceptance check: a rejected write must not be resurrected by a
        later takeover replay); live members that missed the write are
        fenced as stale.  ``pieces`` receives the accepted range-local
        pieces, as in :meth:`insert_many`.
        """
        touched: Set[int] = set()
        for piece in self._split_by_range(record):
            range_index = int(piece.offset // self.range_size)
            try:
                ackers = self._write_ackers(range_index, piece.offset)
            except DataLossError as err:
                err.fid = piece.fid
                err.offset = piece.offset
                err.length = piece.length
                raise
            self._accept(range_index, (piece,))
            if pieces is not None:
                pieces.append(piece)
            touched.update(ackers)
            if self.unreachable_servers or self._stale:
                members = (self._members_at(range_index, piece.offset)
                           if range_index in self._splits else None)
                self._mark_missed(range_index, ackers, members)
            self._maybe_checkpoint(range_index)
        return touched

    def insert_many(self, records: Iterable[MetadataRecord],
                    coalesce: bool = False,
                    stats: Optional[Dict[str, int]] = None,
                    pieces: Optional[List[MetadataRecord]] = None
                    ) -> Set[int]:
        """Batched insert: pieces grouped by range, deduped
        touched-server set, optional contiguous-record coalescing.

        ``pieces``, when given, receives the range-local pieces this call
        accepted — the same objects, in apply order.

        Functionally identical to inserting the records one at a time —
        ranges partition the offset space, so grouping pieces by range
        cannot reorder an overwrite.  When any touched range rejects the
        write (range loss or quorum loss) the call falls back to the
        sequential path, so the pieces before the rejected range stick
        and then the error is raised.
        """
        if coalesce:
            records, merges = coalesce_records(records)
        else:
            records = list(records)
            merges = 0
        flat = [piece for record in records
                for piece in self._split_by_range(record)]
        range_size = self.range_size
        batches = 0
        last = -1
        for piece in flat:
            range_index = int(piece.offset // range_size)
            if range_index < last:
                batches = -1
                break
            batches += range_index != last
            last = range_index
        if batches >= 0 and not (self._splits or self.checkpoint_threshold
                                 or self.unreachable_servers or self._stale):
            # The pieces come in range order, as a collective write's do,
            # and no range keeps per-range state (sub-ranges, fences,
            # checkpoints): admit each range once, then apply the stream
            # as it is, without grouping it.
            self._note_stats(stats, merges, batches, len(flat))
            touched: Set[int] = set()
            last = -1
            try:
                for piece in flat:
                    range_index = int(piece.offset // range_size)
                    if range_index != last:
                        touched.update(self._write_ackers(range_index))
                        last = range_index
            except DataLossError:
                return self._insert_each(records, pieces)
            self.records.insert_records(flat)
            if pieces is not None:
                pieces.extend(flat)
            return touched
        per_range: Dict[int, List[MetadataRecord]] = {}
        for piece in flat:
            per_range.setdefault(int(piece.offset // range_size),
                                 []).append(piece)
        self._note_stats(stats, merges, len(per_range), len(flat))
        ackers_by_range: Dict[int, List[int]] = {}
        split_ackers: Dict[int, List[List[int]]] = {}
        for range_index, batch in per_range.items():
            try:
                if range_index in self._splits:
                    # Split range: each piece routes to its sub-range's
                    # member set (pieces are already sliced at sub
                    # boundaries by _split_by_range).
                    split_ackers[range_index] = [
                        self._write_ackers(range_index, p.offset)
                        for p in batch]
                else:
                    ackers_by_range[range_index] = self._write_ackers(
                        range_index)
            except DataLossError:
                return self._insert_each(records, pieces)
        touched = set()
        for range_index, batch in per_range.items():
            self._accept(range_index, batch)
            if pieces is not None:
                pieces.extend(batch)
            per_piece = split_ackers.get(range_index)
            if per_piece is not None:
                for piece, ackers in zip(batch, per_piece):
                    touched.update(ackers)
                    if self.unreachable_servers or self._stale:
                        self._mark_missed(
                            range_index, ackers,
                            self._members_at(range_index, piece.offset))
            else:
                ackers = ackers_by_range[range_index]
                touched.update(ackers)
                if self.unreachable_servers or self._stale:
                    self._mark_missed(range_index, ackers)
            self._maybe_checkpoint(range_index)
        return touched

    @staticmethod
    def _note_stats(stats: Optional[Dict[str, int]], merges: int,
                    batches: int, n_pieces: int) -> None:
        if stats is not None:
            stats["coalesced"] = stats.get("coalesced", 0) + merges
            stats["batches"] = stats.get("batches", 0) + batches
            stats["pieces"] = stats.get("pieces", 0) + n_pieces

    def _insert_each(self, records: List[MetadataRecord],
                     pieces: Optional[List[MetadataRecord]]) -> Set[int]:
        """Insert record by record until a range rejects the write: the
        pieces before the rejected one stick, then the error is
        raised."""
        touched: Set[int] = set()
        for record in records:
            touched |= self.insert(record, pieces)
        return touched

    def _accept(self, range_index: int,
                batch: Iterable[MetadataRecord]) -> None:
        """Apply one range's accepted pieces to the record list, once,
        whichever replicas acked them."""
        if self.checkpoint_threshold > 0:
            self._journal.setdefault(range_index, []).extend(batch)
        self.records.insert_records(batch)

    def compact(self, fid: Optional[int] = None) -> int:
        """Compaction sweep: merge every adjacent contiguous same-writer
        pair (within one range); returns merges done.

        Merge-on-insert keeps the list compacted incrementally; the sweep
        covers a list populated while ``compaction`` was off, and is what
        long-lived deployments would run in the background.
        """
        return self.records.compact(fid)

    # -- journal checkpointing ---------------------------------------------
    def _maybe_checkpoint(self, range_index: int) -> None:
        """Truncate a range's journal behind a checkpoint.

        Fires when the journal suffix reaches ``checkpoint_threshold``
        entries and **every** replica of the range is alive to
        acknowledge the batch (a dead replica has not acked; its rebuild
        keeps the full journal until it is recovered or replaced).  The
        checkpoint is the range's live record list — what replaying the
        old checkpoint plus the journal reproduces — so after it the
        range's history is its live records again.
        """
        threshold = self.checkpoint_threshold
        if threshold <= 0:
            return
        journal = self._journal.get(range_index)
        if not journal or len(journal) < threshold:
            return
        stale = self._stale.get(range_index, ())
        for server in self.replica_servers(range_index):
            if (server in self.failed_servers
                    or server in self.unreachable_servers
                    or server in stale):
                return
        truncated = len(journal)
        self.records.history.pop(range_index, None)
        self._journal[range_index] = []
        self.checkpoints_taken += 1
        self.journal_entries_truncated += truncated
        if self.on_checkpoint is not None:
            self.on_checkpoint(range_index, truncated)

    def delete_file(self, fid: int) -> Set[int]:
        """Drop all records of ``fid``; returns the servers whose copies
        held some of them."""
        touched: Set[int] = set()
        records = self.records.records(fid)
        for range_index, group in self._by_range(records):
            for server, spans in self._copies(range_index).items():
                if any(True for lo, hi in spans
                       for _rec in _clip(group, lo, hi)):
                    touched.add(server)
        self.records.delete(fid)
        for range_index in list(self._journal):
            kept = [p for p in self._journal[range_index] if p.fid != fid]
            if kept:
                self._journal[range_index] = kept
            else:
                del self._journal[range_index]
        return touched

    # -- recovery (range takeover) -----------------------------------------
    def journal_records(self, range_index: int) -> List[MetadataRecord]:
        """What a takeover must replay for a range, in replay order: the
        checkpoint (if any) followed by the journal suffix.  With
        truncation enabled this is what bounds replay cost for
        long-lived sessions."""
        return self.records.history_of(range_index)

    def _history_count(self, range_index: int, lo: int, hi: int) -> int:
        """Pieces of the range's history overlapping [lo, hi): what a
        handoff of that span replays onto each new member."""
        return sum(1 for piece in self.records.history_of(range_index)
                   if piece.end > lo and piece.offset < hi)

    def recover_server(self, dead: int) -> List[Tuple[int, int]]:
        """Reassign every range that lost a copy with server ``dead``.

        For each data-bearing range whose replica set includes a failed
        server: keep the surviving members (their copies are already
        current), pick replacement servers round-robin from the live
        cluster, and bring each replacement current (the caller prices
        its journal replay).  Survivors stay at the head of the new set,
        so a range with any live copy keeps answering from it and the
        replay only fills the spare.

        Returns ``(range_index, new_primary)`` for every range whose
        assignment changed.  Idempotent: a second call for the same death
        finds the rewritten sets already free of failed members.

        ``dead`` may also be a *fenced* server (lease expired while
        partitioned): it is excluded the same way, and — being alive —
        is marked stale on every range it loses, so a healed partition
        finds its old lease superseded rather than a range it can still
        serve.  Every ownership rewrite bumps the range's lease epoch.
        """
        if not 0 <= dead < self.n_servers:
            raise ValueError(f"no server {dead}")
        excluded = (self.failed_servers | self.unreachable_servers
                    | self._retired)
        actions: List[Tuple[int, int]] = []
        for range_index in sorted(self.records.ranges()):
            if range_index in self._splits:
                primary = self._recover_split_range(range_index, dead,
                                                    excluded)
                if primary is not None:
                    actions.append((range_index, primary))
                continue
            candidates = self.replica_servers(range_index)
            if dead not in candidates:
                continue
            stale = self._stale.get(range_index, ())
            current = [s for s in candidates
                       if s not in excluded and s not in stale]
            need = self.replication - len(current)
            spares: List[int] = []
            for k in range(self.n_servers):
                if len(spares) >= need:
                    break
                server = (range_index + k) % self.n_servers
                if server in excluded or server in current:
                    continue
                spares.append(server)
            for server in spares:
                self._rebuild_copy(range_index, server)
            new_set = current + spares
            if not new_set:
                continue  # whole cluster down for this range: stays lost
            if new_set != candidates:
                # Ownership rewritten: new lease epoch, and every live
                # ex-member is fenced out of its old one.
                self._range_epoch[range_index] = (
                    self._range_epoch.get(range_index, 0) + 1)
                for server in candidates:
                    if (server not in new_set
                            and server not in self.failed_servers):
                        self._stale.setdefault(range_index, set()).add(server)
            self._range_replicas[range_index] = new_set
            actions.append((range_index, new_set[0]))
        return actions

    def _recover_split_range(self, range_index: int, dead: int,
                             excluded: Set[int]) -> Optional[int]:
        """Takeover for a *split* range: every sub-range that lost a copy
        with ``dead`` (or any other excluded/stale member) is refilled
        independently.  Returns the new first-sub primary when any membership
        changed, else None."""
        subs = self._splits[range_index]
        if dead not in {s for _start, m in subs for s in m}:
            return None
        stale = self._stale.get(range_index, ())
        new_subs: List[Tuple[int, List[int]]] = []
        changed = False
        fenced: List[int] = []
        for i, (start, members) in enumerate(subs):
            current = [s for s in members
                       if s not in excluded and s not in stale]
            if current == members:
                new_subs.append((start, members))
                continue
            need = len(members) - len(current)
            spares: List[int] = []
            for k in range(self.n_servers):
                if len(spares) >= need:
                    break
                cand = (range_index + i + k) % self.n_servers
                if (cand in excluded or cand in current
                        or cand in stale or cand in spares):
                    continue
                spares.append(cand)
            new_set = current + spares
            if not new_set:
                new_subs.append((start, members))
                continue  # whole pool down for this sub: stays lost
            new_subs.append((start, new_set))
            changed = True
            for server in members:
                if server not in new_set and server not in self.failed_servers:
                    fenced.append(server)
        if not changed:
            return None
        self._splits[range_index] = new_subs
        self._range_epoch[range_index] = (
            self._range_epoch.get(range_index, 0) + 1)
        # Fencing is base-range granular: a live ex-member of any sub is
        # fenced for the whole range.  Safe — the same pass removed it
        # from every sub it belonged to (the exclusion reasons are
        # server-wide, not per-sub).
        for server in fenced:
            self._stale.setdefault(range_index, set()).add(server)
        return new_subs[0][1][0]

    def _rebuild_copy(self, range_index: int, server: int) -> None:
        """Bring a spare or stale copy current: clear its fence.  A copy
        is a view of the record list, so a rebuilt copy answers with
        the full accepted history, missed writes included."""
        members = self._stale.get(range_index)
        if members is not None:
            members.discard(server)
            if not members:
                del self._stale[range_index]

    # -- hotspot mitigation ops (docs/MODEL.md §11) ------------------------
    def sub_ranges(self, range_index: int) -> List[Tuple[int, List[int]]]:
        """The ``(sub_start_offset, members)`` layout of a range — one
        entry covering the whole range when unsplit (introspection)."""
        subs = self._splits.get(range_index)
        if subs is not None:
            return [(start, list(members)) for start, members in subs]
        return [(int(range_index * self.range_size),
                 self.replica_servers(range_index))]

    def pool_servers(self) -> List[int]:
        """Servers currently in the placement pool (non-retired)."""
        return self._active_pool()

    @property
    def retired_servers(self) -> Set[int]:
        return set(self._retired)

    def _active_pool(self) -> List[int]:
        if self._pool is not None:
            return list(self._pool)
        return list(range(self.n_servers))

    def _require_quorum(self, range_index: int, members: List[int],
                        verb: str) -> List[int]:
        """Refuse a mitigation op that a majority (or, without quorum
        mode, any) of ``members`` cannot acknowledge — a split, merge or
        migration decided on the minority side of a partition could
        contradict the majority's epoch after it heals.  Returns the
        live, current members."""
        stale = self._stale.get(range_index, ())
        live = [s for s in members
                if s not in self.failed_servers
                and s not in self.unreachable_servers
                and s not in stale]
        needed = (len(members) // 2 + 1) if self.quorum else 1
        if len(live) < needed:
            raise QuorumLostError(
                f"metadata range {range_index}: cannot {verb}, only "
                f"{len(live)} of {len(members)} members can ack "
                f"({needed} required)", range_index=range_index,
                acked=len(live), needed=needed)
        return live

    def _pick_members(self, range_index: int, count: int,
                      avoid: Iterable[int], rotate: int = 0) -> List[int]:
        """Pick up to ``count`` healthy, current, non-retired members for
        a (sub-)range, walking the pool round-robin from the range's home
        position plus ``rotate`` and preferring servers outside ``avoid``
        (the already-loaded members)."""
        avoid = set(avoid)
        stale = self._stale.get(range_index, ())
        pool = self._active_pool()
        ordered = [pool[(range_index + rotate + k) % len(pool)]
                   for k in range(len(pool))]
        usable = [s for s in ordered
                  if s not in self.failed_servers
                  and s not in self.unreachable_servers
                  and s not in stale]
        # Prefer the servers carrying the fewest of this range's subs:
        # repeated splits would otherwise pile sub-ranges onto the walk's
        # first healthy servers and re-create the hotspot being split
        # away.  The sort is stable, so the rotated walk order still
        # breaks ties deterministically.
        load: Dict[int, int] = {}
        for _start, members in self._splits.get(range_index, ()):
            for s in members:
                load[s] = load.get(s, 0) + 1
        usable.sort(key=lambda s: load.get(s, 0))
        picked = [s for s in usable if s not in avoid][:count]
        for server in usable:
            if len(picked) >= count:
                break
            if server not in picked:
                picked.append(server)
        return picked

    def split_range(self, range_index: int) -> int:
        """Split the widest sub-range of ``range_index`` at its midpoint,
        handing the upper half to a (preferably fresh) member set.

        The op drains through quorum (:meth:`_require_quorum`), so the
        minority side of a partition cannot rewrite ownership; the new
        members take their half at the checkpoint + journal replay cost
        a takeover pays; the base range's lease epoch is bumped so the
        layout change is ordered against takeovers.  Nothing is fenced,
        because every old member stays current for the sub it keeps.
        Returns the pieces replayed onto the new members (the handoff
        volume the caller prices), 0 when the range cannot split
        further.
        """
        base_lo = int(range_index * self.range_size)
        base_hi = int((range_index + 1) * self.range_size)
        subs = self._splits.get(range_index)
        if subs is None:
            subs = [(base_lo, self.replica_servers(range_index))]
        widest = max(
            ((subs[i + 1][0] if i + 1 < len(subs) else base_hi) - start, i)
            for i, (start, _members) in enumerate(subs))
        width, i = widest
        if width < 2:
            return 0
        start, members = subs[i]
        end = subs[i + 1][0] if i + 1 < len(subs) else base_hi
        mid = start + width // 2
        self._require_quorum(range_index, members, "split")
        new_members = self._pick_members(range_index, len(members),
                                         avoid=members, rotate=len(subs))
        if not new_members:
            raise QuorumLostError(
                f"metadata range {range_index}: cannot split, no healthy "
                f"server can host the new sub-range",
                range_index=range_index, acked=0, needed=1)
        # A new member that already held the whole sub stays current.
        moved = self._history_count(range_index, mid, end) * sum(
            1 for server in new_members if server not in members)
        self._splits[range_index] = (subs[:i]
                                     + [(start, list(members)),
                                        (mid, new_members)]
                                     + subs[i + 1:])
        self._range_replicas.pop(range_index, None)
        self._range_epoch[range_index] = (
            self._range_epoch.get(range_index, 0) + 1)
        self.splits_done += 1
        return moved

    def merge_range(self, range_index: int) -> int:
        """Collapse a split range back onto its first sub's live member
        set, which takes the full range at its replay cost.  Every sub
        must pass the quorum check — merging with an unaccounted-for
        member could resurrect a stale layout.  Returns pieces replayed;
        0 when the range is not split."""
        subs = self._splits.get(range_index)
        if subs is None:
            return 0
        target: List[int] = []
        for _start, members in subs:
            live = self._require_quorum(range_index, members, "merge")
            if not target:
                target = live
        if not target:
            raise QuorumLostError(
                f"metadata range {range_index}: cannot merge, first sub "
                f"has no live member", range_index=range_index,
                acked=0, needed=1)
        del self._splits[range_index]
        self._range_replicas[range_index] = target
        self._range_epoch[range_index] = (
            self._range_epoch.get(range_index, 0) + 1)
        self.merges_done += 1
        return len(target) * len(self.records.history_of(range_index))

    def set_read_spread(self, range_index: int, extra: int = 1) -> int:
        """Re-replicate a read-hot range onto up to ``extra`` additional
        servers and rotate reads over the widened set.

        No fencing: the membership only grows and every old copy stays
        current.  The spares become full members — they ack writes and
        count toward quorum majorities.  Returns pieces replayed onto
        the new members (0 when no spare exists or the range is split —
        a split range already fans out, rotation alone is enabled)."""
        if range_index in self._splits:
            self._read_spread.setdefault(range_index, 0)
            return 0
        members = self.replica_servers(range_index)
        self._require_quorum(range_index, members, "re-replicate")
        spares = [s for s in self._pick_members(
                      range_index, extra, avoid=members,
                      rotate=len(members))
                  if s not in members]
        moved = len(spares) * len(self.records.history_of(range_index))
        if spares:
            self._range_replicas[range_index] = members + spares
            self._range_epoch[range_index] = (
                self._range_epoch.get(range_index, 0) + 1)
        self._read_spread.setdefault(range_index, 0)
        return moved

    def _pin_assignments(self) -> None:
        """Pin every data-bearing range's current replica set before the
        pool changes, so the modulus change cannot silently re-route a
        range away from its data."""
        for range_index in sorted(self.records.ranges()):
            if (range_index not in self._range_replicas
                    and range_index not in self._splits):
                self._range_replicas[range_index] = self.replica_servers(
                    range_index)

    def add_server(self) -> int:
        """Grow the pool by one server at runtime.

        Existing assignments are pinned first (:meth:`_pin_assignments`);
        only ranges first touched after the grow — and explicit
        migrations — land on the newcomer.  Returns the new server id.
        """
        self._pin_assignments()
        if self._pool is None:
            self._pool = [s for s in range(self.n_servers)
                          if s not in self._retired]
        new_id = self.n_servers
        self.n_servers += 1
        self._pool.append(new_id)
        return new_id

    def remove_server(self, server: int) -> int:
        """Drain and retire a pool server at runtime.

        Refuses to retire an unreachable or sole-live server: a
        partitioned box cannot be drained, because its copies cannot be
        verified current.  Every membership the retiree holds — per
        sub-range on split ranges — is migrated to a healthy spare at the
        takeover replay cost, with a per-range epoch bump.  Returns
        pieces replayed onto the replacements.
        """
        if (not 0 <= server < self.n_servers or server in self._retired):
            raise ValueError(f"no server {server}")
        if server in self.unreachable_servers:
            raise QuorumLostError(
                f"cannot retire server {server}: unreachable — a "
                f"partitioned server cannot be drained",
                range_index=-1, acked=0, needed=1)
        live_pool = [s for s in self._active_pool()
                     if s not in self.failed_servers and s != server]
        if not live_pool:
            raise QuorumLostError(
                f"cannot retire server {server}: no live server left to "
                f"migrate its ranges to", range_index=-1, acked=0,
                needed=1)
        self._pin_assignments()
        if self._pool is None:
            self._pool = [s for s in range(self.n_servers)
                          if s not in self._retired]
        moved = 0
        for range_index in sorted(self.records.ranges()):
            subs = self._splits.get(range_index)
            if subs is not None:
                moved += self._migrate_split_memberships(range_index,
                                                         server)
                continue
            members = self.replica_servers(range_index)
            if server not in members:
                continue
            self._require_quorum(range_index, members, "migrate")
            remaining = [s for s in members if s != server]
            spares = [s for s in self._pick_members(
                          range_index, 1, avoid=set(members) | {server},
                          rotate=1)
                      if s not in remaining and s != server][:1]
            moved += len(spares) * len(
                self.records.history_of(range_index))
            new_set = remaining + spares
            if not new_set:
                continue  # nobody to take it: assignment stays, data too
            self._range_replicas[range_index] = new_set
            self._range_epoch[range_index] = (
                self._range_epoch.get(range_index, 0) + 1)
        self._retired.add(server)
        if server in self._pool:
            self._pool.remove(server)
        self.migrations_done += 1
        return moved

    def _migrate_split_memberships(self, range_index: int,
                                   server: int) -> int:
        """Move every sub-range membership ``server`` holds in a split
        range onto spares; part of :meth:`remove_server`."""
        subs = self._splits[range_index]
        if server not in {s for _start, m in subs for s in m}:
            return 0
        base_hi = int((range_index + 1) * self.range_size)
        new_subs: List[Tuple[int, List[int]]] = []
        moved = 0
        changed = False
        for i, (start, members) in enumerate(subs):
            if server not in members:
                new_subs.append((start, members))
                continue
            self._require_quorum(range_index, members, "migrate")
            end = subs[i + 1][0] if i + 1 < len(subs) else base_hi
            remaining = [s for s in members if s != server]
            spares = [s for s in self._pick_members(
                          range_index, 1, avoid=set(members) | {server},
                          rotate=i + 1)
                      if s not in remaining and s != server][:1]
            moved += len(spares) * self._history_count(range_index, start,
                                                       end)
            new_set = remaining + spares
            if not new_set:
                new_subs.append((start, members))
                continue
            new_subs.append((start, new_set))
            changed = True
        if changed:
            self._splits[range_index] = new_subs
            self._range_epoch[range_index] = (
                self._range_epoch.get(range_index, 0) + 1)
        return moved

    # -- cost accounting (fast-path helpers) -------------------------------
    def write_target_servers(self, fid: int, offset: int,
                             length: int) -> Set[int]:
        """Servers an insert covering [offset, offset+length) contacts —
        the live replica set of every touched range.

        Client-computable without the records themselves: the batched
        write path prices its aggregated insert per *request* with this,
        reproducing exactly the touched set a per-request insert would
        return.  Raises like :meth:`insert` when a touched range rejects
        the write.
        """
        return self._route(fid, offset, length, self._write_ackers)

    def read_servers_for(self, fid: int, offset: int,
                         length: int) -> Set[int]:
        """Servers a :meth:`lookup` over the span contacts: the serving
        replica of every range (of every overlapping sub-range of a split
        range), so failover telemetry fires and a lost range raises a
        request-annotated :class:`MetadataUnavailableError` (or
        :class:`QuorumLostError`)."""
        return self._route(fid, offset, length,
                           lambda r, at: (self.read_server_of(r, at),))

    def _route(self, fid: int, offset: int, length: int,
               servers_of: Callable[[int, Optional[int]], Iterable[int]],
               cuts: Optional[List[int]] = None) -> Set[int]:
        """Union of ``servers_of(range_index, offset)`` over every range
        of [offset, offset+length) in offset order — per overlapping
        sub-range of a split range, whose interior boundaries go to
        ``cuts``.  A range-level error is re-raised annotated with the
        part of the request it lost."""
        if length <= 0:
            return set()
        end = offset + length
        touched: Set[int] = set()
        range_size = self.range_size
        for range_index in range(int(offset // range_size),
                                 int((end - 1) // range_size) + 1):
            lo = max(offset, int(range_index * range_size))
            hi = min(end, int((range_index + 1) * range_size))
            try:
                if self._splits and range_index in self._splits:
                    for span_lo, _hi in self._overlapping_subs(range_index,
                                                               lo, hi):
                        touched.update(servers_of(range_index, span_lo))
                        if cuts is not None and span_lo > lo:
                            cuts.append(span_lo)
                else:
                    touched.update(servers_of(range_index, None))
            except DataLossError as err:
                # Range-level detection, request-level reporting: attach
                # what the caller was actually asking for.
                err.fid = fid
                err.offset = lo
                err.length = hi - lo
                raise
        return touched

    # -- lookup ------------------------------------------------------------
    def lookup(self, fid: int, offset: int,
               length: int) -> Tuple[List[MetadataRecord], Set[int]]:
        """Records overlapping [offset, offset+length), clipped to it,
        plus the servers contacted.  Unmapped holes are simply absent.

        Each range in the span is answered by its first live, current
        replica (:meth:`read_servers_for`); every such replica is a view
        of the one record list, so a dead primary costs only the failover
        to the next copy.  A split range answers per sub-range, so its
        records are clipped at the sub-range boundaries.
        """
        cuts: List[int] = []
        touched = self._route(fid, offset, length,
                              lambda r, at: (self.read_server_of(r, at),),
                              cuts)
        found = self.records.lookup(fid, offset, length)
        if cuts:
            found = [piece for rec in found for piece in _cut(rec, cuts)]
        return found, touched

    def _by_range(self, records: List[MetadataRecord]
                  ) -> Iterable[Tuple[int, List[MetadataRecord]]]:
        """Offset-sorted records grouped by range."""
        group: List[MetadataRecord] = []
        current = -1
        for rec in records:
            range_index = int(rec.offset // self.range_size)
            if range_index != current:
                if group:
                    yield current, group
                group, current = [], range_index
            group.append(rec)
        if group:
            yield current, group

    def _copies(self, range_index: int) -> Dict[int, List[Tuple[int, int]]]:
        """The spans of the range each live, non-retired server's copy
        holds: the whole range for every member of an unsplit range, the
        sub-ranges it is a member of (adjacent ones joined) for a split
        one."""
        gone = self.failed_servers | self._retired
        base_lo = int(range_index * self.range_size)
        base_hi = int((range_index + 1) * self.range_size)
        subs = self._splits.get(range_index)
        if subs is None:
            return {server: [(base_lo, base_hi)]
                    for server in self.replica_servers(range_index)
                    if server not in gone}
        copies: Dict[int, List[Tuple[int, int]]] = {}
        for i, (start, members) in enumerate(subs):
            end = subs[i + 1][0] if i + 1 < len(subs) else base_hi
            for server in members:
                if server in gone:
                    continue
                spans = copies.setdefault(server, [])
                if spans and spans[-1][1] == start:
                    spans[-1] = (spans[-1][0], end)
                else:
                    spans.append((start, end))
        return copies

    def records_of(self, fid: int) -> List[MetadataRecord]:
        """All records of a file in offset order (flush path).

        Each range answers through its copies that can serve: unreachable
        servers cannot answer, and fenced copies are invisible — a flush
        or scrub pass must never act on records a stale-epoch ex-owner
        holds.  A range with no such copy is absent (the flush path
        surfaces those through the per-record loss checks instead).  A
        copy of a split range holds only its sub-ranges, so its records
        are clipped there; a piece seen through several copies appears
        once.
        """
        records = self.records.records(fid)
        if not (self.failed_servers or self.unreachable_servers
                or self._stale or self._splits or self._retired):
            return list(records)
        seen: Set[MetadataRecord] = set()
        for range_index, group in self._by_range(records):
            stale = self._stale.get(range_index, ())
            for server, spans in self._copies(range_index).items():
                if server in self.unreachable_servers or server in stale:
                    continue
                for lo, hi in spans:
                    seen.update(_clip(group, lo, hi))
        return sorted(seen, key=lambda r: (r.offset, r.proc_id))

    def server_record_counts(self) -> List[int]:
        """Records each server's copies hold (for load-balance
        assertions in tests)."""
        counts = [0] * self.n_servers
        for fid in self.records.fids():
            for range_index, group in self._by_range(
                    self.records.records(fid)):
                for server, spans in self._copies(range_index).items():
                    counts[server] += sum(
                        1 for lo, hi in spans for _rec in _clip(group, lo, hi))
        return counts
