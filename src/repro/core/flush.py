"""Server-side asynchronous flush (§II-A, §II-D).

Triggered by the client's ``MPI_File_close``: the servers collectively
move the cached data to the PFS while the application continues computing.
Each server flushes one contiguous range of the logical file; the range →
OST mapping comes from :mod:`repro.core.striping` (ADPT when enabled).

Two §II-C behaviours ride along: ``begin_flush``/``end_flush`` drive the
Fig. 4d client migration, and the servers' flush goodput is scaled by
their CPU availability under the active placement policy.

The cached copy is *not* discarded after the flush — it keeps serving
reads (the workflow experiments read BD-CATS input straight from DRAM/BB
after VPIC's data was flushed); the PFS copy provides the long-term
persistence that node-local and burst-buffer space cannot (§I).
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.core.config import StorageTier
from repro.core.striping import adaptive_plan, default_plan
from repro.sim.engine import Event
from repro.storage.device import TransientIOError

__all__ = ["FlushService"]


class FlushService:
    """Runs flushes as background engine processes."""

    def __init__(self, system):
        # ``system`` is a UniviStorServers (typed loosely: import cycle).
        self.system = system
        self.machine = system.machine
        self.engine = system.engine

    # -- public API -----------------------------------------------------------
    def start_flush(self, session, telemetry=None, app: str = "") -> Event:
        """Kick off an asynchronous flush; returns its completion event.

        Idempotent per close: bytes already flushed are not re-sent (each
        VPIC time step closes its own file once, but re-closing a file
        only flushes what arrived since the previous flush).
        """
        pending = self._pending_bytes(session)
        if pending <= 0:
            ev = self.engine.event(name="flush-noop")
            ev.succeed(0.0)
            session.flush_event = ev
            return ev
        proc = self.engine.process(
            self._flush_process(session, pending, telemetry, app),
            name=f"flush:{session.path}")
        session.flush_event = proc
        return proc

    def wait(self, session) -> Generator:
        """Block until the session's outstanding flush (if any) finishes."""
        if session.flush_event is not None and not session.flush_event.processed:
            yield session.flush_event

    # -- internals --------------------------------------------------------------
    def _pending_bytes(self, session) -> float:
        # Cumulative cache writes, not live bytes: an overwrite leaves the
        # live count unchanged but still needs re-flushing (the PFS copy
        # would otherwise go stale — caught by the stateful model test).
        return max(0.0, session.cached_bytes_written - session.flushed_bytes)

    def _flush_process(self, session, pending: float, telemetry,
                       app: str) -> Generator:
        system = self.system
        machine = self.machine
        config = system.config
        sched = system.scheduler
        t_start = self.engine.now

        if config.workflow_enabled:
            system.workflow.begin_flush(session.path)
        sched.begin_flush()
        try:
            servers = system.alive_servers
            plan_fn = adaptive_plan if config.adaptive_striping else default_plan
            plan = plan_fn(pending, servers, machine.spec.lustre)
            cpu_eff = sched.mean_flush_efficiency()
            injection_cap = machine.network.injection_cap(
                config.servers_per_node)

            flows = []
            # Write side: servers -> Lustre with the planned layout.
            # ADPT's per-server ranges are disjoint and lock-aligned; the
            # default plan still writes one shared file from many servers.
            shared_writers = 0 if config.adaptive_striping else servers
            flows.append(system.timed_io(
                lambda: machine.lustre.write_with_layout(
                    plan.bytes_per_server, plan.layout,
                    per_stream_cap=injection_cap,
                    efficiency=cpu_eff,
                    shared_file_writers=shared_writers,
                    tag=f"flush-write:{session.path}"),
                f"flush-write:{session.path}"))

            # Read side: drain the cached tiers in parallel (pipelined
            # with the write; completion is the max of the two).
            cached = session.cached_bytes_per_tier()
            source_bytes = {tier: nbytes for tier, nbytes in cached.items()
                            if tier is not StorageTier.PFS}
            total_src = sum(source_bytes.values())
            for tier, nbytes in source_bytes.items():
                share = pending * (nbytes / total_src)
                if share <= 0:
                    continue
                if tier is StorageTier.SHARED_BB:
                    bb = machine.burst_buffer
                    flows.append(system.timed_io(
                        lambda bb=bb, share=share: bb.read(
                            share / servers, streams=servers,
                            per_stream_cap=bb.flush_cap(
                                config.servers_per_node),
                            efficiency=cpu_eff,
                            tag=f"flush-read-bb:{session.path}"),
                        f"flush-read-bb:{session.path}"))
                else:
                    # Node-local tiers: spread over the nodes holding data.
                    # A failed node's copy is gone — nothing to read there.
                    per_node = self._per_node_cached(session, tier)
                    for node_id, node_bytes in per_node.items():
                        if node_id in system.failed_nodes:
                            continue
                        node = machine.nodes[node_id]
                        device = system.tier_device(tier, node)
                        streams = config.servers_per_node
                        pending_here = node_bytes * (pending / total_src)
                        flows.append(system.timed_io(
                            lambda device=device,
                            pending_here=pending_here,
                            streams=streams, tier=tier: device.read(
                                pending_here / streams, streams=streams,
                                tag=f"flush-read-{tier.value}:"
                                    f"{session.path}"),
                            f"flush-read-{tier.value}:{session.path}"))
            try:
                yield self.engine.all_of(flows)
            except TransientIOError:
                # Retry budget exhausted (device brownout outlived the
                # backoff).  Without recovery the failure propagates (the
                # PR 1 fail-loud contract); self-healing mode treats the
                # flush as simply not having happened: leave the flushed
                # counter alone so the next trigger re-sends, and report
                # — an unhandled raise in an unobserved background
                # process would crash the engine.
                if not config.recovery_enabled:
                    raise
                system.telemetry_hook("flush-failed", session.path, pending,
                                      t_start=t_start)
                return 0.0

            # Functionally materialise the logical file on the PFS.
            self._materialise_to_pfs(session)
            session.flushed_bytes += pending
            # Flush-driven migration invalidation: the flush moved data
            # across layers, so the client-side location cache drops the
            # file rather than trust its cached layer placement.
            cache = system.location_cache
            if cache is not None and cache.invalidate_file(session.fid):
                system.count("cache-invalidate")
        finally:
            sched.end_flush()
            if config.workflow_enabled:
                system.workflow.end_flush(session.path)
        if telemetry is not None:
            telemetry.record(app=app, op="flush", path=session.path,
                             t_start=t_start, nbytes=pending,
                             driver="univistor")
        return pending

    def _per_node_cached(self, session, tier: StorageTier) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for rank, writer in session.writers.items():
            node = session.node_of_proc(rank)
            for log in writer.logs:
                if log.tier is tier and log.bytes_live > 0:
                    out[node.node_id] = out.get(node.node_id, 0.0) + log.bytes_live
        return out

    def _materialise_to_pfs(self, session) -> None:
        """Copy the logical file content onto the PFS namespace.

        Records whose only copy died with a node cannot be materialised:
        the flush skips them (the PFS copy gets an honest hole there) and
        surfaces the loss through telemetry instead of crashing the
        background flush process.
        """
        from repro.core.resilience import DataLossError
        system = self.system
        pfs = self.machine.pfs_files
        out = pfs.create(session.path)
        read_service = system.read_service
        lost_bytes = 0.0
        for record in system.metadata.records_of(session.fid):
            try:
                extents = read_service.resolve(session, record)
            except DataLossError:
                lost_bytes += record.length
                continue
            for extent in extents:
                out.write_at(extent.offset, extent.length, extent.payload,
                             extent.payload_offset)
            # The PFS copy now reflects the authority over this record's
            # span (version-ordered degraded reads, docs/MODEL.md §12).
            # Skipped (lost) records keep their old stamp, so the read
            # ladder knows the hole — the flushed-bytes counter alone
            # cannot say which spans actually materialised.
            session.pfs_versions.copy_from(session.data_versions,
                                           record.offset, record.length)
        if lost_bytes > 0:
            system.telemetry_hook("flush-lost", session.path, lost_bytes)
