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

Recovery (self-healing extension): every accepted insert is also appended
to a **write-ahead journal** on durable shared storage, partitioned by
offset range (each server journals the ranges it owns; the segments
transfer with the range on takeover).  :meth:`recover_server` — driven by
the failure detector through :class:`~repro.core.recovery.RecoveryService`
— reassigns every range that lost a copy with the dead server to surviving
servers and rebuilds the missing copies by replaying the journal, so
lookups route to the new owner instead of failing over per-read forever,
and a range whose *whole* replica set died comes back instead of raising
``MetadataUnavailableError`` until the end of time.

Metadata fast path (perf extension, docs/MODEL.md §9): batched inserts
(:meth:`insert_many` journals per-range batches and applies them grouped
by range), contiguous-record **coalescing** before the journal append,
**merge-on-insert compaction** inside the stores (adjacent contiguous
records of the same writer collapse, bounding the list length every
lookup bisects over), and **journal checkpoint + truncation** (once every
replica of a range is alive to acknowledge, the range's journal folds
into a compacted snapshot, so takeover replay cost stops growing with
session lifetime).  All of it is timing-neutral: the simulated cost
accounting is unchanged, only the simulator's own work shrinks.

Hotspot mitigation (adaptive extension, docs/MODEL.md §11): a base
offset range can be **split online** into contiguous sub-ranges with
independent replica sets (:meth:`split_range` / :meth:`merge_range`), so
a skewed workload's inserts and lookups spread over several servers
instead of serialising on one owner.  The journal, checkpoints, epochs
and the stale/fence table all stay **base-range granular** — a split
range hands state off through exactly the journal-replay machinery a
takeover uses, and fencing a server fences it for every sub-range it
touches (conservative but always safe).  The server pool itself is
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
           "QuorumLostError", "coalesce_records", "split_record",
           "apply_insert"]


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


def apply_insert(store: Dict[int, Tuple[List[int], List["MetadataRecord"]]],
                 piece: "MetadataRecord", range_size: float,
                 compaction: bool = True) -> None:
    """Insert one range-local piece into a ``fid -> (starts, records)``
    interval store: trim/remove overlapped records (an overwrite
    supersedes them), then — with ``compaction`` — merge the seams the
    insert created, never across a range boundary.

    Shared by the authoritative per-server stores and the client-side
    :class:`~repro.core.location_cache.LocationCache`, so both views hold
    byte-identical record lists by construction.
    """
    starts, recs = store.setdefault(piece.fid, ([], []))
    lo = bisect.bisect_left(starts, piece.offset)
    if lo > 0 and recs[lo - 1].end > piece.offset:
        lo -= 1
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
    if compaction:
        # Merge the seams the insert created: recs[lo-1] through the
        # record after the replacement.  Merges never cross a range
        # boundary — replicas hold per-range piece streams, so an
        # in-range merge is identical on every copy (and pieces keep the
        # "one owner per piece" property the partitioning tests pin).
        j = max(lo, 1)
        end_idx = lo + len(replacement)
        while j <= end_idx and j < len(recs):
            prev, cur = recs[j - 1], recs[j]
            if (_mergeable(prev, cur)
                    and int(prev.offset // range_size)
                    == int((cur.end - 1) // range_size)):
                recs[j - 1:j + 1] = [_merge(prev, cur)]
                del starts[j]
                end_idx -= 1
            else:
                j += 1


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


class MetadataService:
    """The distributed KV store over all UniviStor servers.

    The functional store is exact (interval lists per (server, fid));
    the *cost* of an operation is returned as the set of servers
    contacted, which the caller prices with the network model.
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
        #: Merge adjacent contiguous same-writer records inside the stores
        #: (never across a range boundary), bounding the per-fid list
        #: length that every lookup bisects over.
        self.compaction = compaction
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
        # server -> fid -> (sorted start offsets, records)
        self._stores: List[Dict[int, Tuple[List[int], List[MetadataRecord]]]] = [
            dict() for _ in range(n_servers)]
        # Write-ahead journal, partitioned by range: every accepted insert
        # piece, in arrival order.  Models the durable per-server journal
        # segments on shared storage — it survives ``fail_server`` (which
        # only loses the in-memory partition) and is what ``recover_server``
        # replays to rebuild a range on its new owner.
        self._journal: Dict[int, List[MetadataRecord]] = {}
        # Compacted snapshot of everything truncated out of a range's
        # journal.  Replay order is checkpoint first, then the live
        # journal suffix — equivalent to replaying the full history.
        self._checkpoints: Dict[int, List[MetadataRecord]] = {}
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
        return sum(len(recs) for store in self._stores
                   for _starts, recs in store.values())

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
        self._stores[server].clear()

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
        receives a copy; a range whose whole replica set is dead rejects
        the write, and quorum mode additionally rejects writes a
        majority cannot ack (:meth:`_write_ackers`).  Accepted pieces
        are appended to the range's write-ahead journal (after the
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
            self._journal.setdefault(range_index, []).append(piece)
            if pieces is not None:
                pieces.append(piece)
            for server in ackers:
                touched.add(server)
                self._insert_piece(server, piece)
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
        """Batched insert: one journal append per touched range, deduped
        touched-server set, optional contiguous-record coalescing.

        ``pieces``, when given, receives the range-local pieces this call
        journaled and stored — the same objects, in apply order — so a
        location-cache write-through applies them without splitting the
        records a second time.

        Functionally identical to inserting the records one at a time —
        ranges partition the offset space, so grouping pieces by range
        cannot reorder an overwrite — but the journal takes one
        ``extend`` per range instead of one ``append`` per piece and each
        replica applies its range's pieces in one pass.  When any touched
        range has lost its whole replica set the call falls back to the
        sequential path so the partial-apply semantics of the legacy loop
        (pieces before the dead range stick, then the raise) are
        preserved bit-for-bit.
        """
        if coalesce:
            records, merges = coalesce_records(records)
        else:
            records = list(records)
            merges = 0
        per_range: Dict[int, List[MetadataRecord]] = {}
        n_pieces = 0
        for record in records:
            for piece in self._split_by_range(record):
                per_range.setdefault(int(piece.offset // self.range_size),
                                     []).append(piece)
                n_pieces += 1
        if stats is not None:
            stats["coalesced"] = stats.get("coalesced", 0) + merges
            stats["batches"] = stats.get("batches", 0) + len(per_range)
            stats["pieces"] = stats.get("pieces", 0) + n_pieces
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
                # Legacy semantics under range loss (and quorum loss):
                # apply sequentially until the failing range rejects the
                # write, preserving the partial-apply the unbatched loop
                # produced bit-for-bit.
                touched = set()
                for record in records:
                    touched |= self.insert(record, pieces)
                return touched
        touched = set()
        for range_index, batch in per_range.items():
            self._journal.setdefault(range_index, []).extend(batch)
            if pieces is not None:
                pieces.extend(batch)
            per_piece = split_ackers.get(range_index)
            if per_piece is not None:
                for piece, ackers in zip(batch, per_piece):
                    for server in ackers:
                        touched.add(server)
                        self._insert_piece(server, piece)
                    if self.unreachable_servers or self._stale:
                        self._mark_missed(
                            range_index, ackers,
                            self._members_at(range_index, piece.offset))
            else:
                ackers = ackers_by_range[range_index]
                for server in ackers:
                    touched.add(server)
                    insert = self._insert_piece
                    for piece in batch:
                        insert(server, piece)
                if self.unreachable_servers or self._stale:
                    self._mark_missed(range_index, ackers)
            self._maybe_checkpoint(range_index)
        return touched

    def _insert_piece(self, server: int, piece: MetadataRecord) -> None:
        if self._stale:
            # Fencing enforcement point: a stale-epoch copy refuses the
            # write even if some path routes one here — the rebuilt
            # journal replay is the only way back to currency.
            range_index = int(piece.offset // self.range_size)
            if server in self._stale.get(range_index, ()):
                self.fence_rejections += 1
                if self.on_fence_reject is not None:
                    self.on_fence_reject(range_index, server)
                return
        self._insert_into(self._stores[server], piece)

    def _insert_into(self,
                     store: Dict[int, Tuple[List[int], List[MetadataRecord]]],
                     piece: MetadataRecord) -> None:
        apply_insert(store, piece, self.range_size, self.compaction)

    def compact(self, fid: Optional[int] = None) -> int:
        """Compaction sweep: merge every adjacent contiguous same-writer
        pair (within one range) across all stores; returns merges done.

        Merge-on-insert keeps stores compacted incrementally; the sweep
        covers stores populated while ``compaction`` was off, or after
        bulk mutations, and is what long-lived deployments would run in
        the background.
        """
        merged = 0
        for server, store in enumerate(self._stores):
            if server in self.failed_servers:
                continue
            fids = [fid] if fid is not None else list(store)
            for f in fids:
                entry = store.get(f)
                if not entry:
                    continue
                starts, recs = entry
                j = 1
                while j < len(recs):
                    prev, cur = recs[j - 1], recs[j]
                    if (_mergeable(prev, cur)
                            and int(prev.offset // self.range_size)
                            == int((cur.end - 1) // self.range_size)):
                        recs[j - 1:j + 1] = [_merge(prev, cur)]
                        del starts[j]
                        merged += 1
                    else:
                        j += 1
        return merged

    # -- journal checkpointing ---------------------------------------------
    def _maybe_checkpoint(self, range_index: int) -> None:
        """Truncate a range's journal behind a compacted checkpoint.

        Fires when the live journal reaches ``checkpoint_threshold``
        entries and **every** replica of the range is alive to
        acknowledge the batch (a dead replica has not acked; its rebuild
        keeps the full journal until it is recovered or replaced).  The
        checkpoint is the scratch-replay of (old checkpoint + journal):
        exactly the record list a store holds for the range, so replaying
        checkpoint-then-suffix reproduces what replaying the full history
        would have.  The journal key survives (emptied, not deleted) —
        range ownership is discovered by iterating journal keys.
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
        scratch: Dict[int, Tuple[List[int], List[MetadataRecord]]] = {}
        for piece in self._checkpoints.get(range_index, ()):
            self._insert_into(scratch, piece)
        for piece in journal:
            self._insert_into(scratch, piece)
        snapshot: List[MetadataRecord] = []
        for f in sorted(scratch):
            snapshot.extend(scratch[f][1])
        truncated = len(journal)
        self._checkpoints[range_index] = snapshot
        self._journal[range_index] = []
        self.checkpoints_taken += 1
        self.journal_entries_truncated += truncated
        if self.on_checkpoint is not None:
            self.on_checkpoint(range_index, truncated)

    def delete_file(self, fid: int) -> Set[int]:
        """Drop all records of ``fid``; returns servers contacted."""
        touched = set()
        for server, store in enumerate(self._stores):
            if fid in store:
                touched.add(server)
                del store[fid]
        for range_index in list(self._journal.keys() | self._checkpoints.keys()):
            entries = self._journal.get(range_index, [])
            kept = [p for p in entries if p.fid != fid]
            ck = [p for p in self._checkpoints.get(range_index, ())
                  if p.fid != fid]
            if ck:
                self._checkpoints[range_index] = ck
            else:
                self._checkpoints.pop(range_index, None)
            if kept or ck:
                self._journal[range_index] = kept
            elif range_index in self._journal:
                del self._journal[range_index]
        return touched

    # -- recovery (range takeover) -----------------------------------------
    def journal_records(self, range_index: int) -> List[MetadataRecord]:
        """What a takeover must replay for a range, in replay order:
        the compacted checkpoint (if any) followed by the live journal
        suffix.  With truncation enabled this is what bounds replay cost
        for long-lived sessions."""
        checkpoint = self._checkpoints.get(range_index)
        suffix = self._journal.get(range_index, ())
        if checkpoint:
            return list(checkpoint) + list(suffix)
        return list(suffix)

    def recover_server(self, dead: int) -> List[Tuple[int, int]]:
        """Reassign every range that lost a copy with server ``dead``.

        For each journaled range whose replica set includes a failed
        server: keep the surviving members (their copies are already
        current), pick replacement servers round-robin from the live
        cluster, and rebuild each replacement's copy by replaying the
        range's write-ahead journal in arrival order.  Survivors stay at
        the head of the new set, so a range with any live copy keeps
        answering from it and the replay only fills the spare.

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
        for range_index in sorted(self._journal.keys()
                                  | self._checkpoints.keys()):
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
        independently, its spares rebuilt by replaying only the sub's
        span.  Returns the new first-sub primary when any membership
        changed, else None."""
        subs = self._splits[range_index]
        if dead not in {s for _start, m in subs for s in m}:
            return None
        base_hi = int((range_index + 1) * self.range_size)
        stale = self._stale.get(range_index, ())
        new_subs: List[Tuple[int, List[int]]] = []
        changed = False
        fenced: List[int] = []
        for i, (start, members) in enumerate(subs):
            end = subs[i + 1][0] if i + 1 < len(subs) else base_hi
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
            for server in spares:
                self._drop_span(server, start, end)
                self._replay_span(range_index, server, start, end)
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
        """Bring a spare or stale copy current: clear the fence, drop
        whatever the server holds for the range, and replay the journal
        — the full accepted history, missed writes included.  On a
        *split* range only the sub-spans the server is a member of are
        replayed (a fenced ex-member comes back empty and current)."""
        members = self._stale.get(range_index)
        if members is not None:
            members.discard(server)
            if not members:
                del self._stale[range_index]
        self._drop_range(server, range_index)
        subs = self._splits.get(range_index)
        if subs is None:
            self._replay(range_index, server)
            return
        base_hi = int((range_index + 1) * self.range_size)
        for i, (start, sub_members) in enumerate(subs):
            if server not in sub_members:
                continue
            end = subs[i + 1][0] if i + 1 < len(subs) else base_hi
            self._replay_span(range_index, server, start, end)

    def _drop_range(self, server: int, range_index: int) -> None:
        """Discard every record the server holds inside one range
        (inserts split at range boundaries, so records never straddle)."""
        store = self._stores[server]
        lo = int(range_index * self.range_size)
        hi = int((range_index + 1) * self.range_size)
        for fid in list(store):
            _starts, recs = store[fid]
            if not recs or recs[-1].end <= lo or recs[0].offset >= hi:
                continue
            keep = [r for r in recs if r.end <= lo or r.offset >= hi]
            if len(keep) == len(recs):
                continue
            if keep:
                store[fid] = ([r.offset for r in keep], keep)
            else:
                del store[fid]

    def _replay(self, range_index: int, server: int) -> int:
        """Rebuild one range's partition on ``server``: checkpoint first,
        then the journal suffix (equivalent to the full history).
        Returns pieces applied (the handoff volume)."""
        applied = 0
        for piece in self._checkpoints.get(range_index, ()):
            self._insert_piece(server, piece)
            applied += 1
        for piece in self._journal.get(range_index, ()):
            self._insert_piece(server, piece)
            applied += 1
        return applied

    def _drop_span(self, server: int, lo: int, hi: int) -> None:
        """Discard what the server holds inside [lo, hi), slicing records
        that straddle a boundary — unlike base-range boundaries, in-store
        compaction *can* merge records across a sub-range boundary."""
        store = self._stores[server]
        for fid in list(store):
            _starts, recs = store[fid]
            if not recs or recs[-1].end <= lo or recs[0].offset >= hi:
                continue
            keep: List[MetadataRecord] = []
            changed = False
            for rec in recs:
                if rec.end <= lo or rec.offset >= hi:
                    keep.append(rec)
                    continue
                changed = True
                if rec.offset < lo:
                    keep.append(rec.slice(rec.offset, lo))
                if rec.end > hi:
                    keep.append(rec.slice(hi, rec.end))
            if not changed:
                continue
            if keep:
                store[fid] = ([r.offset for r in keep], keep)
            else:
                del store[fid]

    def _replay_span(self, range_index: int, server: int,
                     lo: int, hi: int) -> int:
        """Replay only the slice of a range's accepted history inside
        [lo, hi) onto ``server`` — the sub-range handoff path (split,
        merge, migration).  Returns pieces applied."""
        applied = 0
        for source in (self._checkpoints.get(range_index, ()),
                       self._journal.get(range_index, ())):
            for piece in source:
                if piece.end <= lo or piece.offset >= hi:
                    continue
                self._insert_piece(server,
                                   piece.slice(max(piece.offset, lo),
                                               min(piece.end, hi)))
                applied += 1
        return applied

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
        members rebuild their half through the same checkpoint + journal
        replay path a takeover uses; the base range's lease epoch is
        bumped so the layout change is ordered against takeovers.  Old
        members explicitly drop the half they handed off — nothing is
        fenced, because every old member stays current for the sub it
        keeps.  Returns the pieces replayed onto the new members (the
        handoff volume the caller prices), 0 when the range cannot split
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
        moved = 0
        for server in new_members:
            if server in members:
                continue  # already holds the whole sub, stays current
            self._drop_span(server, mid, end)
            moved += self._replay_span(range_index, server, mid, end)
        for server in members:
            if server in new_members or server in self.failed_servers:
                continue
            self._drop_span(server, mid, end)
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
        set, replaying the full range onto members that held only part
        of it.  Every sub must pass the quorum check — merging with an
        unaccounted-for member could resurrect a stale layout.  Returns
        pieces replayed; 0 when the range is not split."""
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
        base_lo = int(range_index * self.range_size)
        base_hi = int((range_index + 1) * self.range_size)
        old_members = {s for _start, m in subs for s in m}
        del self._splits[range_index]
        self._range_replicas[range_index] = target
        self._range_epoch[range_index] = (
            self._range_epoch.get(range_index, 0) + 1)
        moved = 0
        for server in target:
            self._drop_span(server, base_lo, base_hi)
            moved += self._replay_span(range_index, server, base_lo, base_hi)
        for server in old_members:
            if server in target or server in self.failed_servers:
                continue
            self._drop_span(server, base_lo, base_hi)
        self.merges_done += 1
        return moved

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
        moved = 0
        base_lo = int(range_index * self.range_size)
        base_hi = int((range_index + 1) * self.range_size)
        for server in spares:
            self._drop_span(server, base_lo, base_hi)
            moved += self._replay_span(range_index, server, base_lo, base_hi)
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
        for range_index in sorted(self._journal.keys()
                                  | self._checkpoints.keys()):
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
        self._stores.append(dict())
        self._pool.append(new_id)
        return new_id

    def remove_server(self, server: int) -> int:
        """Drain and retire a pool server at runtime.

        Refuses to retire an unreachable or sole-live server: a
        partitioned box cannot be drained, because its copies cannot be
        verified current.  Every membership the retiree holds — per
        sub-range on split ranges — is migrated to a healthy spare
        through the takeover replay path with a per-range epoch bump.
        Returns pieces replayed onto the replacements.
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
        for range_index in sorted(self._journal.keys()
                                  | self._checkpoints.keys()):
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
            base_lo = int(range_index * self.range_size)
            base_hi = int((range_index + 1) * self.range_size)
            for spare in spares:
                self._drop_span(spare, base_lo, base_hi)
                moved += self._replay_span(range_index, spare,
                                           base_lo, base_hi)
            new_set = remaining + spares
            if not new_set:
                continue  # nobody to take it: assignment stays, data too
            self._range_replicas[range_index] = new_set
            self._range_epoch[range_index] = (
                self._range_epoch.get(range_index, 0) + 1)
        self._stores[server].clear()
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
            for spare in spares:
                self._drop_span(spare, start, end)
                moved += self._replay_span(range_index, spare, start, end)
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
        reproducing exactly the touched set the per-request insert
        returned.  Raises like :meth:`insert` when a touched range has
        lost its whole replica set.
        """
        if length <= 0:
            return set()
        end = offset + length
        touched: Set[int] = set()
        first = int(offset // self.range_size)
        last = int((end - 1) // self.range_size)
        for range_index in range(first, last + 1):
            try:
                if self._splits and range_index in self._splits:
                    sub_lo = max(offset, int(range_index * self.range_size))
                    sub_hi = min(end, int((range_index + 1)
                                          * self.range_size))
                    for span_lo, _hi in self._overlapping_subs(
                            range_index, sub_lo, sub_hi):
                        touched.update(self._write_ackers(range_index,
                                                          span_lo))
                else:
                    touched.update(self._write_ackers(range_index))
            except DataLossError as err:
                err.fid = fid
                err.offset = max(offset, int(range_index * self.range_size))
                err.length = (min(end, int((range_index + 1)
                                           * self.range_size))
                              - err.offset)
                raise
        return touched

    def read_servers_for(self, fid: int, offset: int,
                         length: int) -> Set[int]:
        """Servers a :meth:`lookup` over the span would contact, without
        searching the stores — the location-cache hit path.

        Calls :meth:`read_server_of` per range in the same order as
        ``lookup``, so failover telemetry fires identically and a lost
        range raises the same request-annotated
        :class:`MetadataUnavailableError`.
        """
        if length <= 0:
            return set()
        end = offset + length
        touched: Set[int] = set()
        first = int(offset // self.range_size)
        last = int((end - 1) // self.range_size)
        for range_index in range(first, last + 1):
            try:
                if self._splits and range_index in self._splits:
                    sub_lo = max(offset, int(range_index * self.range_size))
                    sub_hi = min(end, int((range_index + 1)
                                          * self.range_size))
                    for span_lo, _hi in self._overlapping_subs(
                            range_index, sub_lo, sub_hi):
                        touched.add(self.read_server_of(range_index,
                                                        span_lo))
                else:
                    touched.add(self.read_server_of(range_index))
            except (MetadataUnavailableError, QuorumLostError) as err:
                err.fid = fid
                err.offset = max(offset, int(range_index * self.range_size))
                err.length = (min(end, int((range_index + 1)
                                           * self.range_size))
                              - err.offset)
                raise
        return touched

    # -- lookup ------------------------------------------------------------
    def lookup(self, fid: int, offset: int,
               length: int) -> Tuple[List[MetadataRecord], Set[int]]:
        """Records overlapping [offset, offset+length), clipped to it,
        plus the servers contacted.  Unmapped holes are simply absent.

        Each range in the span is answered by its first live replica, so
        the result never duplicates records across replicas and a dead
        primary costs only the failover to the next copy.
        """
        if length <= 0:
            return [], set()
        end = offset + length
        touched: Set[int] = set()
        found: List[MetadataRecord] = []
        first = int(offset // self.range_size)
        last = int((end - 1) // self.range_size)
        bisect_left = bisect.bisect_left
        for range_index in range(first, last + 1):
            sub_lo = max(offset, int(range_index * self.range_size))
            sub_hi = min(end, int((range_index + 1) * self.range_size))
            try:
                if self._splits and range_index in self._splits:
                    # Split range: one serving replica per overlapping
                    # sub-range, each answering only its own span.
                    spans = [(self.read_server_of(range_index, span_lo),
                              span_lo, span_hi)
                             for span_lo, span_hi in self._overlapping_subs(
                                 range_index, sub_lo, sub_hi)]
                else:
                    spans = ((self.read_server_of(range_index),
                              sub_lo, sub_hi),)
            except (MetadataUnavailableError, QuorumLostError) as err:
                # Range-level detection, request-level reporting: attach
                # what the caller was actually asking for.
                err.fid = fid
                err.offset = sub_lo
                err.length = sub_hi - sub_lo
                raise
            for server, span_lo, span_hi in spans:
                touched.add(server)
                store = self._stores[server].get(fid)
                if store is None:
                    continue
                starts, recs = store
                lo = bisect_left(starts, span_lo)
                if lo > 0 and recs[lo - 1].end > span_lo:
                    lo -= 1
                # Upper bound by bisect too: iterating a tail *slice*
                # copied O(records-per-server) per lookup.
                hi = bisect_left(starts, span_hi, lo)
                for i in range(lo, hi):
                    rec = recs[i]
                    rec_end = rec.offset + rec.length
                    if rec_end <= span_lo:
                        continue
                    if rec.offset >= span_lo and rec_end <= span_hi:
                        # Fully-covered record: the clip is the identity
                        # and records are frozen, so share instead of
                        # copying.  (The common case — inserts split at
                        # range boundaries, so aligned reads never clip.)
                        found.append(rec)
                    else:
                        found.append(rec.slice(max(rec.offset, span_lo),
                                               min(rec_end, span_hi)))
        found.sort(key=lambda r: r.offset)
        return found, touched

    def records_of(self, fid: int) -> List[MetadataRecord]:
        """All records of a file in offset order (flush path).

        Replicated pieces are identical frozen records, so surviving
        copies collapse in the dedup; ranges whose whole replica set died
        are simply absent (the flush path surfaces those through the
        per-record loss checks instead).  Unreachable servers cannot
        answer, and fenced copies are invisible: a flush or scrub pass
        must never act on records a stale-epoch ex-owner holds.
        """
        seen: Set[MetadataRecord] = set()
        stale = self._stale
        for server, store in enumerate(self._stores):
            if (server in self.failed_servers
                    or server in self.unreachable_servers):
                continue
            entry = store.get(fid)
            if not entry:
                continue
            if not stale:
                seen.update(entry[1])
                continue
            fenced = {ri for ri, members in stale.items()
                      if server in members}
            if not fenced:
                seen.update(entry[1])
            else:
                range_size = self.range_size
                seen.update(r for r in entry[1]
                            if int(r.offset // range_size) not in fenced)
        return sorted(seen, key=lambda r: (r.offset, r.proc_id))

    def server_record_counts(self) -> List[int]:
        """Records per server (for load-balance assertions in tests)."""
        return [sum(len(recs) for _s, recs in store.values())
                for store in self._stores]
