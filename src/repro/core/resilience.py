"""Resilience for data in volatile storage layers (§V future work).

The paper's conclusions name "adding resilience to data in volatile
storage layers" as planned work: data cached in node-local DRAM vanishes
with the node, and until the asynchronous flush lands on the PFS a node
failure loses the only copy.

This extension closes the window with **asynchronous replication**: when a
written file closes, the servers copy every *volatile* (node-local)
segment to replica logs on a shared, failure-independent tier (the shared
burst buffer by default) — piggybacking on the same close-triggered
asynchrony as the flush.  The read path falls back transparently: a
metadata record pointing at a failed node's log resolves against the
replica instead.  Without replication, reading lost data raises
:class:`DataLossError` — exactly the exposure the paper describes.

Enable with ``UniviStorConfig(resilience_enabled=True)``; inject failures
with :meth:`UniviStorServers.fail_node`.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.core.config import StorageTier
from repro.core.errors import DataLossError
from repro.core.metadata import MetadataRecord
from repro.sim.engine import Event
from repro.storage.datamodel import CorruptPayload, Extent, ZeroPayload
from repro.storage.device import TransientIOError
from repro.storage.posix import SimFile

# ``DataLossError`` moved to :mod:`repro.core.errors` (so the metadata
# service can subclass it without an import cycle); re-exported here for
# compatibility — this module is where the API docs historically named it.
__all__ = ["DataLossError", "ResilienceService"]


class ResilienceService:
    """Asynchronous replication of volatile segments to a shared tier."""

    def __init__(self, system):
        # ``system`` is a UniviStorServers (loose typing: import cycle).
        self.system = system
        self.machine = system.machine
        self.engine = system.engine
        self.replica_tier = StorageTier.SHARED_BB
        #: session path -> rank -> replica file (logical-offset content).
        self._replicas: Dict[str, Dict[int, SimFile]] = {}
        #: bytes already replicated per session (incremental replication).
        self._replicated: Dict[str, float] = {}
        #: outstanding replication event per session.
        self._events: Dict[str, Event] = {}

    # -- replica plumbing ---------------------------------------------------
    def replica_file(self, session, rank: int) -> SimFile:
        per_session = self._replicas.setdefault(session.path, {})
        f = per_session.get(rank)
        if f is None:
            store = self.system.tier_store(self.replica_tier, None)
            f = store.create(
                f"/univistor/replica/{session.fid}/{rank}.log")
            per_session[rank] = f
        return f

    def _volatile_records(self, session) -> List[MetadataRecord]:
        return [r for r in self.system.metadata.records_of(session.fid)
                if r.tier.is_node_local]

    def pending_bytes(self, session) -> float:
        # Cumulative volatile writes (overwrites count again) minus what
        # is already replicated — mirrors the flush accounting.
        return max(0.0, session.volatile_bytes_written
                   - self._replicated.get(session.path, 0.0))

    # -- the asynchronous replication pass -------------------------------------
    def start_replication(self, session) -> Event:
        """Kick off (or no-op) replication; returns its completion event.

        Idempotent while a pass is in flight: a re-replication trigger
        (node crash) that races the close-time pass joins it instead of
        double-copying the same pending bytes.
        """
        outstanding = self._events.get(session.path)
        if outstanding is not None and not outstanding.triggered:
            return outstanding
        pending = self.pending_bytes(session)
        if pending <= 0:
            ev = self.engine.event(name="replicate-noop")
            ev.succeed(0.0)
            self._events[session.path] = ev
            return ev
        proc = self.engine.process(self._replicate(session, pending),
                                   name=f"replicate:{session.path}")
        self._events[session.path] = proc
        return proc

    def wait(self, session) -> Generator:
        ev = self._events.get(session.path)
        if ev is not None and not ev.processed:
            yield ev

    def _replicate(self, session, pending: float) -> Generator:
        t_start = self.engine.now
        system = self.system
        bb = self.machine.burst_buffer
        if bb is None:
            raise RuntimeError("resilience needs a shared burst buffer")
        servers = system.alive_servers
        # Functional copy: replica files hold logical-offset extents, so
        # fail-over reads need no VA translation.  Records whose source
        # node already died mid-session are unrecoverable here — skip
        # them (they would raise) and surface the loss via telemetry.
        read_service = system.read_service
        lost_bytes = 0.0
        for record in self._volatile_records(session):
            if self.is_lost(record):
                lost_bytes += record.length
                continue
            replica = self.replica_file(session, record.proc_id)
            try:
                extents = read_service.resolve(session, record)
            except DataLossError:
                # Source rotted (corruption) with no clean copy anywhere:
                # nothing usable to replicate.  Surface, don't crash the
                # background pass.
                lost_bytes += record.length
                continue
            for extent in extents:
                replica.write_at(extent.offset, extent.length,
                                 extent.payload, extent.payload_offset)
            # The replica now reflects the authority over this record's
            # span — stamp it so the version-ordered degraded read chain
            # (docs/MODEL.md §12) knows this copy is current.
            session.replica_map(record.proc_id).copy_from(
                session.data_versions, record.offset, record.length)
        if lost_bytes > 0:
            system.telemetry_hook("replicate-lost", session.path,
                                  lost_bytes, t_start=t_start)
        # Timed copy: the servers drain the volatile tiers into the BB
        # (file-per-process replica logs: no shared-file penalty).  Lost
        # bytes have nothing to drain.
        copy_bytes = max(0.0, pending - lost_bytes)
        if copy_bytes > 0:
            try:
                yield system.timed_io(
                    lambda: bb.write(copy_bytes / servers, streams=servers,
                                     per_stream_cap=bb.flush_cap(
                                         system.config.servers_per_node),
                                     tag=f"replicate:{session.path}"),
                    f"replicate:{session.path}")
            except TransientIOError:
                # Retry budget exhausted mid-brownout.  Without recovery
                # the failure propagates (sync waiters see it — the PR 1
                # fail-loud contract).  Self-healing mode contains it
                # instead: leave the replicated counter alone so the next
                # scrub pass re-sends these bytes, and report — an
                # unhandled raise in an unobserved background process
                # would crash the engine.
                if not system.config.recovery_enabled:
                    raise
                system.telemetry_hook("replicate-failed", session.path,
                                      copy_bytes, t_start=t_start)
                return 0.0
        self._replicated[session.path] = (
            self._replicated.get(session.path, 0.0) + pending)
        self.system.telemetry_hook("replicate", session.path, pending,
                                   t_start=t_start)
        return pending

    def note_synchronous_copy(self, session, nbytes: float) -> None:
        """Credit bytes copied synchronously at write time (``data_quorum
        >= 2``, docs/MODEL.md §12) against the async pass's pending
        accounting, so the close-time replication no-ops instead of
        re-copying what the write already made durable."""
        self._replicated[session.path] = (
            self._replicated.get(session.path, 0.0) + nbytes)

    # -- fail-over read path -------------------------------------------------
    def is_lost(self, record: MetadataRecord) -> bool:
        return (record.tier.is_node_local
                and record.node_id in self.system.failed_nodes)

    def resolve_replica(self, session, record: MetadataRecord
                        ) -> List[Extent]:
        """Replica extents for a lost record; raises on a gap."""
        per_session = self._replicas.get(session.path, {})
        replica = per_session.get(record.proc_id)
        if replica is None:
            raise DataLossError(
                f"{session.path}: rank {record.proc_id}'s data on failed "
                f"node {record.node_id} was never replicated",
                fid=record.fid, rank=record.proc_id, node=record.node_id,
                offset=record.offset, length=record.length)
        # Version-ordered fallback (docs/MODEL.md §12): a replica holding
        # an older write version for any byte of the span must never be
        # served, even if its payload passes checksum verification —
        # that is exactly the node-crash overwrite stale-serve gap.
        vmap = session.replica_versions.get(record.proc_id)
        stale = (session.data_versions.spans(record.offset, record.length)
                 if vmap is None else
                 vmap.stale_spans(session.data_versions, record.offset,
                                  record.length))
        if vmap is None:
            from repro.core.versioning import StaleSpan
            stale = [StaleSpan(s, e, 0, 0, v, ep) for s, e, v, ep in stale]
        if stale:
            self.system.count("data-stale-reject")
            first = stale[0]
            err = DataLossError(
                f"{session.path}: replica of rank {record.proc_id} is "
                f"stale — {first.describe()} — version-ordered fallback "
                f"refuses to serve it",
                fid=record.fid, rank=record.proc_id, node=record.node_id,
                offset=first.start, length=first.end - first.start)
            err.stale_provenance = tuple(stale)
            raise err
        extents = replica.read_at(record.offset, record.length)
        for ext in extents:
            if isinstance(ext.payload, ZeroPayload):
                raise DataLossError(
                    f"{session.path}: replica of rank {record.proc_id} "
                    f"misses [{ext.offset}, +{ext.length})",
                    fid=record.fid, rank=record.proc_id,
                    node=record.node_id, offset=ext.offset,
                    length=ext.length)
            if isinstance(ext.payload, CorruptPayload):
                raise DataLossError(
                    f"{session.path}: replica of rank {record.proc_id} "
                    f"fails checksum verification at "
                    f"[{ext.offset}, +{ext.length})",
                    fid=record.fid, rank=record.proc_id,
                    node=record.node_id, offset=ext.offset,
                    length=ext.length)
        return extents
