"""The layer probes of the traced run.

Each :class:`Probe` names one public function of one simulator layer,
the stats the traced run reports for it, and how to read the work it did
(bytes, records, segments, cache hits) from its arguments and result.
Metric names follow ``<module>.<function>.<stat>``, with the ``repro.``
prefix dropped from the module.

Stats:

* ``calls`` -- calls made (a generator counts once, when it is created);
* ``host_self_s`` -- host seconds inside the function minus the part its
  traced callees cover, summed over every resume of a generator;
* ``sim_s`` -- simulated seconds: ``engine.now`` at return minus
  ``engine.now`` at first resume for a generator, event trigger time
  minus call time for a function that returns an engine event, the
  time until the last process or event it started completes for a
  ``spawns`` probe (a handler that returns nothing), and the sum of
  returned costs for :meth:`Interconnect.rpc_cost`;
* ``bytes`` -- bytes moved, read from the call's arguments or result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

__all__ = ["Probe", "PROBES", "EVENT_FACTORIES", "DERIVED", "derive",
           "metric_names"]


def arg(args: tuple, kwargs: dict, pos: int, name: str,
        default: Any = None) -> Any:
    """A call argument by position (``self`` is position 0) or name."""
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _streams_bytes(name: str, streams: str) -> Callable:
    """Bytes of a per-stream transfer: ``args[1] * args[2]``."""
    def count(args, kwargs, result):
        return (float(arg(args, kwargs, 1, name))
                * arg(args, kwargs, 2, streams, 1))
    return count


def _layout_bytes(args, kwargs, result):
    return (float(arg(args, kwargs, 1, "nbytes_per_writer"))
            * arg(args, kwargs, 2, "layout").writers)


def _length_bytes(args, kwargs, result):
    return float(arg(args, kwargs, 2, "length"))


def _result_len(args, kwargs, result):
    return float(len(result))


def _records(args, kwargs, result):
    records = arg(args, kwargs, 1, "records")
    return float(len(records)) if hasattr(records, "__len__") else 0.0


def _hit(args, kwargs, result):
    return 0.0 if result is None else 1.0


def _rpc_cost(args, kwargs, result):
    return float(result)


@dataclass(frozen=True)
class Probe:
    """One traced public function."""

    module: str
    qualname: str
    stats: Tuple[str, ...]
    #: ``(args, kwargs, result) -> float`` for the ``bytes`` stat.
    nbytes: Optional[Callable] = None
    #: ``(name, fn)`` of a per-call count summed beside ``calls``
    #: (records per insert, segments per write, cache hits).
    count: Optional[Tuple[str, Callable]] = None
    #: ``(args, kwargs, result) -> float`` simulated seconds, for a
    #: function whose cost is its return value.
    sim_cost: Optional[Callable] = None
    #: ``sim_s`` runs to the completion of the processes and events the
    #: call starts (directly or through traced callees).
    spawns: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


_C_H_S = ("calls", "host_self_s", "sim_s")
_C_H = ("calls", "host_self_s")
_C_S = ("calls", "sim_s")
_C_B_S = ("calls", "bytes", "sim_s")
_C_B_H = ("calls", "bytes", "host_self_s")

PROBES: Tuple[Probe, ...] = (
    Probe("simmpi.mpiio", "File.open", _C_H_S),
    Probe("simmpi.mpiio", "File.write_at_all", _C_H_S),
    Probe("simmpi.mpiio", "File.read_at_all", _C_H_S),
    Probe("simmpi.mpiio", "File.close", _C_H_S),
    Probe("core.server", "FileSession.writer_for", _C_H),
    Probe("core.server", "UniviStorServers.session", _C_H),
    Probe("core.dhp", "DHPWriter.write", _C_H,
          count=("segments", _result_len)),
    Probe("core.dhp", "LogFile.free_segment", _C_H),
    Probe("core.va", "VirtualAddressSpace.resolve", _C_H),
    Probe("core.metadata", "MetadataService.insert_many", _C_H,
          count=("records", _records)),
    Probe("core.metadata", "MetadataService.lookup", _C_H),
    Probe("core.metadata", "MetadataService.write_target_servers", _C_H),
    Probe("core.metadata", "MetadataService.read_servers_for", _C_H),
    Probe("core.metadata", "MetadataService.split_range", _C_H),
    Probe("core.metadata", "MetadataService.merge_range", _C_H),
    Probe("core.location_cache", "LocationCache.lookup", _C_H,
          count=("hits", _hit)),
    Probe("core.location_cache", "LocationCache.insert_records", _C_H),
    Probe("core.read_service", "ReadService.read_collective", _C_H),
    Probe("core.read_service", "ReadService.resolve", _C_H),
    Probe("core.read_service", "ReadService.resolve_degraded", _C_H),
    Probe("core.versioning", "VersionMap.stamp", _C_H),
    Probe("core.versioning", "VersionMap.copy_from", _C_H),
    Probe("core.versioning", "VersionMap.stale_spans", _C_H),
    Probe("core.flush", "FlushService.start_flush", _C_S),
    Probe("core.workflow", "WorkflowManager.acquire_read", _C_S),
    Probe("core.workflow", "WorkflowManager.acquire_write", _C_S),
    Probe("core.resilience", "ResilienceService.start_replication", _C_H_S),
    # A synchronous lookup: it does no simulated work, so no ``sim_s``.
    Probe("core.resilience", "ResilienceService.resolve_replica", _C_H),
    Probe("core.recovery", "RecoveryService.handle_server_dead", _C_H_S,
          spawns=True),
    Probe("core.recovery", "RecoveryService.handle_node_dead", _C_H_S,
          spawns=True),
    Probe("core.recovery", "ScrubService.start_scrub", _C_H_S),
    Probe("cluster.cpu", "placement_efficiency", _C_H),
    Probe("core.scheduler", "SchedulerService.client_efficiency", _C_H),
    Probe("cluster.network", "Interconnect.rpc_cost", _C_S,
          sim_cost=_rpc_cost),
    Probe("storage.device", "StorageDevice.write", _C_B_S,
          nbytes=_streams_bytes("nbytes", "streams")),
    Probe("storage.device", "StorageDevice.read", _C_B_S,
          nbytes=_streams_bytes("nbytes", "streams")),
    Probe("storage.burstbuffer", "SharedBurstBuffer.write", _C_B_S,
          nbytes=_streams_bytes("nbytes_per_stream", "streams")),
    Probe("storage.burstbuffer", "SharedBurstBuffer.read", _C_B_S,
          nbytes=_streams_bytes("nbytes_per_stream", "streams")),
    Probe("storage.lustre", "LustreFS.write_with_layout", _C_B_S,
          nbytes=_layout_bytes),
    Probe("storage.lustre", "LustreFS.read_shared_file", _C_B_S,
          nbytes=_streams_bytes("nbytes_per_reader", "readers")),
    # Every concrete payload's ``materialize`` reports under this name.
    Probe("storage.datamodel", "Payload.materialize", _C_B_H,
          nbytes=_result_len),
    Probe("storage.datamodel", "ExtentMap.write", _C_B_H,
          nbytes=_length_bytes),
    Probe("storage.datamodel", "ExtentMap.read", _C_B_H,
          nbytes=_length_bytes),
    Probe("storage.posix", "SimFile.write_at", _C_B_H,
          nbytes=_length_bytes),
    Probe("storage.posix", "SimFile.read_at", _C_B_H,
          nbytes=_length_bytes),
    Probe("sim.resources", "BandwidthResource.transfer", _C_S),
)

#: Engine methods whose calls create events; the traced run counts them.
EVENT_FACTORIES = ("timeout", "event", "process", "all_of", "any_of")

#: Metrics derived from the probes and the run, with their units.
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    # (name, unit, better)
    ("core.dhp.DHPWriter.write.segments_per_write", "count", "lower"),
    ("core.metadata.MetadataService.insert_many.records_per_call",
     "count", "higher"),
    ("core.metadata.MetadataService.record_count.records", "count",
     "lower"),
    ("core.location_cache.LocationCache.lookup.hit_ratio", "ratio",
     "higher"),
    ("core.read_service.ReadService.resolve.degraded_ratio", "ratio",
     "lower"),
    ("sim.engine.Engine.events", "count", "lower"),
    ("sim.engine.Engine.host_us_per_event", "us", "lower"),
    ("bench.trace.overhead_s", "s", "lower"),
    # Host times of the traced run's untraced half; fastest-of-N, see
    # run.py.  They vary with the host's load too much to bound.
    ("bench.untraced.wall_s", "s", "lower"),
    ("bench.untraced.seed_ms.p50", "ms", "lower"),
    ("bench.untraced.seed_ms.p90", "ms", "lower"),
)

def derive(metrics: dict, counts: dict, record_count: int,
           untraced_wall_s: float) -> dict:
    """The derived metrics of one traced pass (all of :data:`DERIVED`
    except the tracing overhead, which spans passes)."""
    def ratio(num, den):
        return num / den if den else 0.0

    dhp = "core.dhp.DHPWriter.write"
    insert = "core.metadata.MetadataService.insert_many"
    lookup = "core.location_cache.LocationCache.lookup"
    read = "core.read_service.ReadService"
    events = counts["sim.engine.Engine"]
    return {
        f"{dhp}.segments_per_write": ratio(counts[f"{dhp}.segments"],
                                           metrics[f"{dhp}.calls"]),
        f"{insert}.records_per_call": ratio(counts[f"{insert}.records"],
                                            metrics[f"{insert}.calls"]),
        "core.metadata.MetadataService.record_count.records": record_count,
        f"{lookup}.hit_ratio": ratio(counts[f"{lookup}.hits"],
                                     metrics[f"{lookup}.calls"]),
        f"{read}.resolve.degraded_ratio": ratio(
            metrics[f"{read}.resolve_degraded.calls"],
            metrics[f"{read}.resolve.calls"]),
        "sim.engine.Engine.events": events,
        "sim.engine.Engine.host_us_per_event": ratio(untraced_wall_s * 1e6,
                                                     events),
    }


_UNITS = {"calls": ("count", "lower"), "host_self_s": ("s", "lower"),
          "sim_s": ("sim_s", "lower"), "bytes": ("B", "lower")}


def metric_names() -> Tuple[Tuple[str, str, str], ...]:
    """Every per-layer metric as ``(name, unit, better)``, in report
    order: the probes' stats, then the derived metrics."""
    out = [(f"{p.name}.{stat}",) + _UNITS[stat]
           for p in PROBES for stat in p.stats]
    return tuple(out) + DERIVED
