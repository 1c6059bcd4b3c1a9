"""Chaos-campaign harness: seeded randomized fault schedules.

Each run drives a small UniviStor deployment through a write -> fault
storm -> recovery window -> read cycle and asserts the **durability
invariant**: every read either returns the correct bytes or raises a
structured :class:`~repro.core.errors.DataLossError` — never silent wrong
data, never an unhandled exception.

The fault schedule for a seed is drawn from named
:class:`~repro.sim.rng.StreamRNG` streams, so a fixed ``(seed, config)``
pair replays byte-for-byte: the same faults hit the same files at the same
times and every read resolves identically (:attr:`ChaosRunResult.digest`
pins this down).  Schedules mix node crashes, metadata-server crashes,
bounded shared-device outages/brownouts, and silent data corruption on
every tier holding data.

Two configurations matter:

* ``hardened`` — :meth:`UniviStorConfig.hardened`: failure detection,
  metadata range takeover, integrity scrubbing, replication, retries.
* ``baseline`` — the same minus detection/takeover/scrubbing (the PR 1
  story: replication and client-side failover only).

The campaign's acceptance bar: zero invariant violations in either mode,
and the hardened mode turns nearly all of the baseline's lost reads into
successes (the ``repro chaos`` CLI and ``tests/chaos/`` assert >= 99%
success for hardened).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cluster.spec import MachineSpec
from repro.core.config import UniviStorConfig
from repro.core.errors import DataLossError
from repro.sim.faults import Fault, FaultSpec
from repro.sim.rng import StreamRNG
from repro.simmpi.mpiio import IORequest
from repro.simulation import Simulation
from repro.storage.datamodel import PatternPayload
from repro.units import KiB

__all__ = ["ChaosRunResult", "CampaignResult", "run_one", "run_campaign"]

#: Per-rank block written/read by the chaos workload.
BLOCK = int(64 * KiB)
#: Nodes in the chaos deployment (2 servers each -> 6 metadata servers).
NODES = 3
PROCS_PER_NODE = 2
#: Fault times are drawn inside this window after the write settles.
_STORM_WINDOW = 0.3
#: Extra settle after the storm: must exceed the detector's dead delay
#: (heartbeat_interval * dead_heartbeats = 0.2s) plus restore tails.
_SETTLE = 0.6
#: Chaos mixes: ``storm`` is the crash/outage/corruption schedule;
#: ``partition`` swaps in network cuts with a mid-partition overwrite
#: phase that probes quorum admission and stale-read fencing;
#: ``hotspot`` hammers one metadata range with skewed overwrite waves
#: while cuts and crashes land mid-split/mid-migration, probing the
#: adaptive mitigation layer (docs/MODEL.md §11); ``storm2`` is the
#: data-plane quorum gate (docs/MODEL.md §12): overwrites on an open
#: file followed by a double node crash whose gap is *shorter than the
#: detection delay*, so async re-replication can never win the race —
#: only the write-time synchronous copy (``data_quorum=2``) survives.
#: ``storm_legacy`` replays the storm schedule on the pre-quorum
#: deployment (``data_quorum=1``) — the canonical ``storm`` now runs at
#: ``data_quorum=2`` (storm2 proved 100 % read success under exactly the
#: storm's crash windows), and the legacy alias keeps the old golden
#: trajectory reproducible.
#: The registry maps each mix name to its schedule generator; the CLI
#: and :func:`run_one` validate against it.
MIXES = ("storm", "storm_legacy", "partition", "hotspot", "storm2")
#: Hotspot-mix skew: every rank overwrites a small slot inside ONE
#: 64 KiB metadata range (the range right after the cold blocks), slots
#: strided across the range so splitting actually spreads the load.
HOT_SLOT = int(4 * KiB)
_HOT_PROCS = NODES * PROCS_PER_NODE
HOT_BASE = _HOT_PROCS * BLOCK
_HOT_STRIDE = BLOCK // _HOT_PROCS
#: Overwrite waves after the seeding write, and the gap between them
#: (the gap exceeds ``hotspot_interval`` so the manager ticks between
#: waves and splits land *inside* the storm).
_HOT_WAVES = 5
_HOT_WAVE_GAP = 0.06


@dataclass
class ChaosRunResult:
    """Outcome of one seeded chaos run."""

    seed: int
    hardened: bool
    mix: str = "storm"
    reads_ok: int = 0
    reads_lost: int = 0
    #: Diagnosable per-seed failure causes (NOT part of the digest):
    #: one entry per lost read/write naming the error type, the lost
    #: fid/offset/length and any stale-version provenance the
    #: version-ordered read chain refused to serve.
    failure_causes: Tuple[str, ...] = ()
    #: Narrowest gap between two consecutive crash events in the drawn
    #: schedule (None when the schedule has fewer than two crashes) —
    #: the storm-gap trajectory across PRs hinges on this width vs the
    #: detection delay.
    crash_window: Optional[float] = None
    #: Mid-storm overwrite outcomes (``partition`` and ``hotspot``
    #: mixes): a write either commits on a majority or is rejected whole
    #: with a structured error — ``writes_lost`` counts honest
    #: rejections.
    writes_ok: int = 0
    writes_lost: int = 0
    #: Invariant violations: silent wrong bytes or unexpected exceptions.
    violations: List[str] = field(default_factory=list)
    faults: Tuple[str, ...] = ()
    telemetry_ops: Tuple[str, ...] = ()
    #: SHA-256 over the full observable outcome (reproducibility pin).
    digest: str = ""

    @property
    def reads_total(self) -> int:
        return self.reads_ok + self.reads_lost

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignResult:
    """Aggregate over a seed range."""

    runs: List[ChaosRunResult] = field(default_factory=list)

    @property
    def reads_ok(self) -> int:
        return sum(r.reads_ok for r in self.runs)

    @property
    def reads_total(self) -> int:
        return sum(r.reads_total for r in self.runs)

    @property
    def success_rate(self) -> float:
        total = self.reads_total
        return 1.0 if total == 0 else self.reads_ok / total

    @property
    def writes_ok(self) -> int:
        return sum(r.writes_ok for r in self.runs)

    @property
    def writes_lost(self) -> int:
        return sum(r.writes_lost for r in self.runs)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for r in self.runs:
            out.extend(f"seed {r.seed}: {v}" for v in r.violations)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        """JSON-serialisable campaign summary with per-seed failure
        *causes* (not just pass/fail counts), so the storm-gap
        trajectory stays diagnosable across PRs.  ``failures`` lists
        every seed that lost a read or violated the invariant, with its
        crash-window width, the structured causes and the digest."""
        runs = self.runs
        return {
            "mix": runs[0].mix if runs else None,
            "hardened": runs[0].hardened if runs else None,
            "seeds": len(runs),
            "reads_ok": self.reads_ok,
            "reads_total": self.reads_total,
            "success_rate": self.success_rate,
            "writes_ok": self.writes_ok,
            "writes_lost": self.writes_lost,
            "violations": self.violations,
            "failures": [
                {"seed": r.seed,
                 "reads_lost": r.reads_lost,
                 "writes_lost": r.writes_lost,
                 "crash_window": r.crash_window,
                 "causes": list(r.failure_causes),
                 "violations": list(r.violations),
                 "digest": r.digest}
                for r in runs
                if r.reads_lost or r.writes_lost or r.violations],
        }


def _loss_cause(kind: str, rank: int, err: Exception) -> str:
    """One diagnosable line for a lost read/write: error type, the lost
    span's identity, and the stale-version provenance (if the
    version-ordered chain refused stale copies)."""
    parts = [f"{kind} rank {rank}: {type(err).__name__}"]
    fid = getattr(err, "fid", None)
    offset = getattr(err, "offset", None)
    length = getattr(err, "length", None)
    if fid is not None:
        parts.append(f"fid={fid}")
    if offset is not None:
        parts.append(f"offset={int(offset)}")
    if length is not None:
        parts.append(f"length={int(length)}")
    provenance = getattr(err, "stale_provenance", ())
    if provenance:
        parts.append("stale=" + ",".join(
            f"[{s.start},{s.end})v{s.have_version}<v{s.want_version}"
            f"@e{s.want_epoch}" for s in provenance))
    return " ".join(parts)


def _config(hardened: bool, mix: str = "storm") -> UniviStorConfig:
    """The run configuration.  Both modes replicate and retry (PR 1);
    only ``hardened`` detects, takes over metadata ranges and scrubs.
    The metadata fast path runs at full strength: batching and the
    location cache are on by default, and a small ``journal_checkpoint``
    forces truncation to actually fire inside every run (the 64 KiB
    ranges journal only a few records each).

    The ``partition`` mix replicates each range three ways (stride
    ``servers_per_node`` = one copy per node, so cutting one node off
    still leaves a two-of-three majority), shortens the lease so fencing
    resolves inside the storm window, and turns on periodic rate-limited
    scrubbing so deferral and resume paths get exercised.

    The ``hotspot`` mix additionally turns on the adaptive mitigation
    layer with aggressive thresholds (so splits, merges and pool growth
    all fire inside one short run) and the same three-way replication as
    the partition mix, because its schedule also cuts nodes off."""
    kw = dict(metadata_range_size=float(64 * KiB), journal_checkpoint=2)
    if mix == "storm":
        # The canonical storm deployment acks writes only once two
        # failure domains hold the segments: the double-crash losses the
        # legacy dq=1 deployment admitted (the 99.92 % plateau) are
        # structurally closed.  ``storm_legacy`` keeps the dq=1 config.
        kw.update(data_quorum=2)
    if mix == "partition":
        kw.update(metadata_replication=3, lease_ttl=0.25,
                  scrub_interval=0.15, scrub_rate_limit=float(1024 * KiB))
    elif mix == "hotspot":
        kw.update(metadata_replication=3, lease_ttl=0.25,
                  hotspot_enabled=True, range_split_threshold=6,
                  range_merge_threshold=2, hotspot_interval=0.04,
                  pool_max_servers=8)
    elif mix == "storm2":
        # Three-way metadata replication (one copy per node) keeps every
        # range readable through a double node crash; data_quorum=2 is
        # the feature under test — a write acks only once its segments
        # are durable on two failure domains.
        kw.update(metadata_replication=3, lease_ttl=0.25, data_quorum=2)
    elif mix not in ("storm", "storm_legacy"):
        raise ValueError(f"unknown chaos mix {mix!r}; valid: {MIXES}")
    config = UniviStorConfig.hardened(**kw)
    if not hardened:
        config = config.without("health_enabled", "recovery_enabled",
                                "scrub_enabled")
    return config


def _settle_for(config: UniviStorConfig) -> float:
    """Post-storm settle: past the dead-declaration delay, the lease
    expiry (fencing fires at ``lease_ttl``), and restore tails."""
    return max(_SETTLE,
               config.heartbeat_interval * config.dead_heartbeats + 0.4,
               config.lease_ttl + 0.4)


def _schedule(rng: StreamRNG, base: float, n_nodes: int,
              n_servers: int, servers_per_node: int,
              lease_ttl: float = 0.0) -> FaultSpec:
    """Draw one randomized fault storm starting at ``base``.

    Bounded malice: at most one node crash and one extra server crash
    (the cluster keeps a working majority), shared-device outages are
    short enough for the retry budget to bridge, and corruption strikes
    any tier holding data.  Every draw comes from a named stream, so the
    schedule is a pure function of the campaign seed.
    """
    s = rng.stream("chaos.schedule")

    def when() -> float:
        return base + float(s.uniform(0.005, _STORM_WINDOW))

    events: List[Fault] = []
    crashed_node: Optional[int] = None
    if s.uniform() < 0.5:
        crashed_node = int(s.integers(n_nodes))
        events.append(Fault(at=when(), kind="node-crash",
                            target=crashed_node))
    if s.uniform() < 0.5:
        server = int(s.integers(n_servers))
        if (crashed_node is not None
                and server // servers_per_node == crashed_node):
            # Already dies with its node; aim at a surviving one instead
            # (the duplicate-crash spec validation is strict).
            server = (server + servers_per_node) % n_servers
        events.append(Fault(at=when(), kind="server-crash", target=server))
    # Shared-device trouble: brownouts and short outages the retry
    # budget must bridge.
    for tier in ("shared_bb", "pfs"):
        roll = s.uniform()
        if roll < 0.25:
            events.append(Fault(at=when(), kind="device-degrade", tier=tier,
                                factor=float(s.uniform(0.25, 0.75)),
                                duration=float(s.uniform(0.05, 0.2))))
        elif roll < 0.4:
            events.append(Fault(at=when(), kind="device-fail", tier=tier,
                                duration=float(s.uniform(0.05, 0.15))))
    # Silent rot: 1-3 strikes across the tiers holding data.
    for _ in range(1 + int(s.integers(3))):
        roll = s.uniform()
        if roll < 0.4:
            events.append(Fault(at=when(), kind="data-corrupt", tier="dram",
                                target=int(s.integers(n_nodes)),
                                nbytes=float(8 * KiB)))
        elif roll < 0.8:
            events.append(Fault(at=when(), kind="data-corrupt",
                                tier="shared_bb", nbytes=float(8 * KiB)))
        else:
            events.append(Fault(at=when(), kind="data-corrupt", tier="pfs",
                                nbytes=float(8 * KiB)))
    return FaultSpec(events=tuple(events))


def _partition_schedule(rng: StreamRNG, base: float, n_nodes: int,
                        n_servers: int, servers_per_node: int,
                        lease_ttl: float) -> FaultSpec:
    """Draw one partition-heavy storm starting at ``base``.

    Always cuts one node's server group off the metadata plane —
    usually symmetrically (heartbeats lost too, so the fencing clock
    runs), sometimes one-way (requests lost but heartbeats arrive:
    unavailable, never fenced).  Durations straddle ``lease_ttl`` so
    some cuts heal before the lease expires (no takeover may fire) and
    some outlive it (the survivors must fence and take over).  A second
    disjoint cut, a server crash, and silent rot ride along with
    bounded probability.
    """
    s = rng.stream("chaos.partition-schedule")

    def when() -> float:
        return base + float(s.uniform(0.005, 0.4 * _STORM_WINDOW))

    events: List[Fault] = []
    victim = int(s.integers(n_nodes))
    mode = "sym" if s.uniform() < 0.7 else "oneway"
    events.append(Fault(at=when(), kind="partition", nodes=(victim,),
                        mode=mode,
                        duration=float(s.uniform(0.1, lease_ttl + 0.3))))
    if s.uniform() < 0.25:
        # A second, briefer disjoint cut: while both are active no
        # range has a majority, so overwrites must reject whole.
        other = (victim + 1 + int(s.integers(n_nodes - 1))) % n_nodes
        events.append(Fault(at=when(), kind="partition", nodes=(other,),
                            mode="sym",
                            duration=float(s.uniform(0.05,
                                                     0.5 * lease_ttl))))
    if s.uniform() < 0.3:
        events.append(Fault(at=when(), kind="server-crash",
                            target=int(s.integers(n_servers))))
    for _ in range(int(s.integers(2))):
        roll = s.uniform()
        if roll < 0.5:
            events.append(Fault(at=when(), kind="data-corrupt", tier="dram",
                                target=int(s.integers(n_nodes)),
                                nbytes=float(8 * KiB)))
        else:
            events.append(Fault(at=when(), kind="data-corrupt",
                                tier="shared_bb", nbytes=float(8 * KiB)))
    return FaultSpec(events=tuple(events))


def _hotspot_schedule(rng: StreamRNG, base: float, n_nodes: int,
                      n_servers: int, servers_per_node: int,
                      lease_ttl: float) -> FaultSpec:
    """Draw one storm aimed at the mitigation layer, starting at
    ``base`` — which the caller sets to the start of the overwrite
    waves, so cuts and crashes land while ranges are mid-split and the
    pool is mid-growth.

    Usually a partition (straddling ``lease_ttl`` like the partition
    mix, so the minority side must *defer* splits rather than fork the
    layout), often server crashes (a split sub-range member dying forces
    the split-aware takeover refill), plus bounded silent rot.  No node
    crashes: a node crash wipes the *data-plane* node-local copies of
    the waves' overwrites, a pre-existing coherence gap orthogonal to
    the metadata mitigation this mix targets (ROADMAP open item).
    """
    s = rng.stream("chaos.hotspot-schedule")

    def when() -> float:
        return base + float(s.uniform(0.01, _HOT_WAVES * _HOT_WAVE_GAP))

    events: List[Fault] = []
    if s.uniform() < 0.6:
        victim = int(s.integers(n_nodes))
        mode = "sym" if s.uniform() < 0.7 else "oneway"
        events.append(Fault(at=when(), kind="partition", nodes=(victim,),
                            mode=mode,
                            duration=float(s.uniform(0.08,
                                                     lease_ttl + 0.2))))
    crashed: Optional[int] = None
    if s.uniform() < 0.5:
        crashed = int(s.integers(n_servers))
        events.append(Fault(at=when(), kind="server-crash", target=crashed))
    if s.uniform() < 0.25:
        # A second crash on a different server: two split sub-range
        # members dying probes the quorum floor of the refill.
        other = (crashed + 1 + int(s.integers(n_servers - 1))) % n_servers \
            if crashed is not None else int(s.integers(n_servers))
        events.append(Fault(at=when(), kind="server-crash", target=other))
    for _ in range(int(s.integers(2))):
        events.append(Fault(at=when(), kind="data-corrupt",
                            tier="shared_bb", nbytes=float(4 * KiB)))
    return FaultSpec(events=tuple(events))


def _storm2_schedule(rng: StreamRNG, base: float, n_nodes: int,
                     n_servers: int, servers_per_node: int,
                     lease_ttl: float) -> FaultSpec:
    """Draw the data-plane quorum storm: a **double node crash whose
    gap is shorter than the detection delay** (heartbeat_interval *
    dead_heartbeats = 0.2 s), so the second crash always lands before
    the first is even declared dead — crash-triggered re-replication
    can never win this race, only a synchronous write-time copy
    survives it.  DRAM rot on any node and a shared-BB brownout ride
    along; no BB *outage* or BB corruption: the storm must kill the
    primaries, not sabotage the quorum copies, to isolate the gap
    being gated.
    """
    s = rng.stream("chaos.storm2-schedule")
    events: List[Fault] = []
    first = int(s.integers(n_nodes))
    second = (first + 1 + int(s.integers(n_nodes - 1))) % n_nodes
    t1 = base + float(s.uniform(0.01, 0.08))
    gap = float(s.uniform(0.02, 0.15))  # always < the 0.2 s dead delay
    events.append(Fault(at=t1, kind="node-crash", target=first))
    events.append(Fault(at=t1 + gap, kind="node-crash", target=second))
    if s.uniform() < 0.4:
        events.append(Fault(at=base + float(s.uniform(0.01, _STORM_WINDOW)),
                            kind="device-degrade", tier="shared_bb",
                            factor=float(s.uniform(0.25, 0.75)),
                            duration=float(s.uniform(0.05, 0.2))))
    for _ in range(int(s.integers(3))):
        events.append(Fault(at=base + float(s.uniform(0.01, _STORM_WINDOW)),
                            kind="data-corrupt", tier="dram",
                            target=int(s.integers(n_nodes)),
                            nbytes=float(8 * KiB)))
    return FaultSpec(events=tuple(events))


#: Mix-name registry: every schedule generator shares the signature
#: ``(rng, base, n_nodes, n_servers, servers_per_node, lease_ttl)``.
_SCHEDULES = {
    "storm": _schedule,
    "storm_legacy": _schedule,
    "partition": _partition_schedule,
    "hotspot": _hotspot_schedule,
    "storm2": _storm2_schedule,
}
assert tuple(_SCHEDULES) == MIXES


def run_one(seed: int, hardened: bool = True,
            config: Optional[UniviStorConfig] = None,
            mix: str = "storm") -> ChaosRunResult:
    """One seeded chaos run; deterministic for a fixed (seed, hardened,
    mix, config).

    ``config`` overrides the canonical :func:`_config` deployment — the
    coherence tests use it to pin that fast-path variants (location
    cache or batching off) replay the exact same observable run; the
    chaos CLI uses it to tune detector/lease knobs per campaign.
    """
    if mix not in MIXES:
        raise ValueError(f"unknown chaos mix {mix!r}; valid: {MIXES}")
    result = ChaosRunResult(seed=seed, hardened=hardened, mix=mix)
    rng = StreamRNG(seed)
    cfg = config if config is not None else _config(hardened, mix)
    sim = Simulation(MachineSpec.small_test(nodes=NODES))
    system = sim.install_univistor(cfg)
    comm = sim.comm("chaos", NODES * PROCS_PER_NODE,
                    procs_per_node=PROCS_PER_NODE)
    expected = {r: PatternPayload(r).materialize(0, BLOCK)
                for r in range(comm.size)}
    # Hotspot mix: each rank also owns a small slot inside ONE shared
    # range (seeded before the storm so every slot has a committed
    # baseline; the overwrite waves then update it when they commit).
    hot_expected = {r: PatternPayload(50 + r).materialize(0, HOT_SLOT)
                    for r in range(comm.size)} if mix == "hotspot" else {}

    def app():
        fh = yield from sim.open(comm, "/chaos", "w", fstype="univistor")
        seed_reqs = [
            IORequest.contiguous_block(r, BLOCK, PatternPayload(r))
            for r in range(comm.size)]
        if mix == "hotspot":
            seed_reqs.extend(
                IORequest(r, HOT_BASE + r * _HOT_STRIDE, HOT_SLOT,
                          PatternPayload(50 + r))
                for r in range(comm.size))
        yield from fh.write_at_all(seed_reqs)
        yield from fh.close()
        yield from fh.sync()

        spec = _SCHEDULES[mix](rng, sim.now, NODES, system.total_servers,
                               system.config.servers_per_node,
                               cfg.lease_ttl)
        injector = sim.install_faults(spec, seed=seed)
        result.faults = tuple(f.describe() for f in injector.timeline)
        crash_times = sorted(f.at for f in injector.timeline
                             if f.kind in ("node-crash", "server-crash"))
        if len(crash_times) >= 2:
            result.crash_window = min(
                b - a for a, b in zip(crash_times, crash_times[1:]))
        if system.scrub is not None and cfg.scrub_interval > 0:
            # Periodic scrubbing across the storm: ticks that land
            # while recovery or flushes are in flight defer.
            system.scrub.start_periodic()
        if mix == "partition":
            # Overwrite phase in the middle of the storm: every rank
            # rewrites its block (v2 pattern) while cuts are active.
            # Quorum admission must either commit a write on a majority
            # or reject it whole — ``expected`` tracks which, so a
            # healed ex-owner serving the old pattern after a committed
            # overwrite surfaces as silent corruption below.
            yield sim.engine.timeout(0.5 * _STORM_WINDOW)
            fh = yield from sim.open(comm, "/chaos", "w",
                                     fstype="univistor")
            for r in range(comm.size):
                try:
                    yield from fh.write_at_all([IORequest.contiguous_block(
                        r, BLOCK, PatternPayload(r + comm.size))])
                except DataLossError as err:
                    # Quorum unreachable: the honest whole-write
                    # rejection the invariant allows.
                    result.writes_lost += 1
                    result.failure_causes += (_loss_cause("write", r, err),)
                    continue
                except Exception as err:  # noqa: BLE001 - the invariant
                    result.violations.append(
                        f"rank {r}: overwrite unhandled "
                        f"{type(err).__name__}: {err}")
                    continue
                expected[r] = PatternPayload(r + comm.size).materialize(
                    0, BLOCK)
                result.writes_ok += 1
            try:
                yield from fh.close()
                yield from fh.sync()
            except DataLossError:
                pass  # flush blocked by the cut; caches still serve
            except Exception as err:  # noqa: BLE001 - the invariant
                result.violations.append(
                    f"overwrite close: unhandled "
                    f"{type(err).__name__}: {err}")
            yield sim.engine.timeout(0.5 * _STORM_WINDOW
                                     + _settle_for(cfg))
        elif mix == "hotspot":
            # Skewed overwrite waves: every rank hammers its slot in the
            # shared hot range while the storm lands, driving the heat
            # tracker past the split threshold mid-fault.  Quorum
            # admission holds under mitigation exactly as it does under
            # partitions: a wave write either commits on a majority (and
            # ``hot_expected`` advances) or is rejected whole.
            fh = yield from sim.open(comm, "/chaos", "w",
                                     fstype="univistor")
            for wave in range(1, _HOT_WAVES + 1):
                for r in range(comm.size):
                    pattern = PatternPayload(100 + wave * comm.size + r)
                    try:
                        yield from fh.write_at_all([IORequest(
                            r, HOT_BASE + r * _HOT_STRIDE, HOT_SLOT,
                            pattern)])
                    except DataLossError as err:
                        result.writes_lost += 1
                        result.failure_causes += (
                            _loss_cause("write", r, err),)
                        continue
                    except Exception as err:  # noqa: BLE001 - invariant
                        result.violations.append(
                            f"rank {r}: hot overwrite unhandled "
                            f"{type(err).__name__}: {err}")
                        continue
                    hot_expected[r] = pattern.materialize(0, HOT_SLOT)
                    result.writes_ok += 1
                yield sim.engine.timeout(_HOT_WAVE_GAP)
            try:
                yield from fh.close()
                yield from fh.sync()
            except DataLossError:
                pass  # flush blocked by the storm; caches still serve
            except Exception as err:  # noqa: BLE001 - the invariant
                result.violations.append(
                    f"hot close: unhandled {type(err).__name__}: {err}")
            yield sim.engine.timeout(_settle_for(cfg))
        elif mix == "storm2":
            # Overwrite phase BEFORE the crashes, on a healthy cluster,
            # and the file deliberately stays OPEN through the storm: no
            # close means no async flush and no close-time replication,
            # so when the double crash wipes both writer nodes inside
            # the detection window, the only durable copy of v2 is the
            # synchronous write-time quorum mirror (data_quorum=2).
            # With data_quorum=1 this exact run loses the overwrites —
            # the version-ordered ladder raises instead of serving the
            # stale v1 replica (the pre-PR silent stale-read gap).
            fh = yield from sim.open(comm, "/chaos", "w",
                                     fstype="univistor")
            for r in range(comm.size):
                try:
                    yield from fh.write_at_all([IORequest.contiguous_block(
                        r, BLOCK, PatternPayload(r + comm.size))])
                except DataLossError as err:
                    result.writes_lost += 1
                    result.failure_causes += (_loss_cause("write", r, err),)
                    continue
                except Exception as err:  # noqa: BLE001 - the invariant
                    result.violations.append(
                        f"rank {r}: overwrite unhandled "
                        f"{type(err).__name__}: {err}")
                    continue
                expected[r] = PatternPayload(r + comm.size).materialize(
                    0, BLOCK)
                result.writes_ok += 1
            yield sim.engine.timeout(_STORM_WINDOW + _settle_for(cfg))
            try:
                yield from fh.close()
                yield from fh.sync()
            except DataLossError:
                pass  # flush blocked by the storm; replicas still serve
            except Exception as err:  # noqa: BLE001 - the invariant
                result.violations.append(
                    f"storm2 close: unhandled {type(err).__name__}: {err}")
        else:
            yield sim.engine.timeout(_STORM_WINDOW + _SETTLE)
        if system.scrub is not None:
            # Periodic background scrubbing: one pass between the storm
            # and the reads (node deaths already trigger their own).
            yield system.scrub.start_scrub()

        fh2 = yield from sim.open(comm, "/chaos", "r", fstype="univistor")
        for r in range(comm.size):
            try:
                data = yield from fh2.read_at_all(
                    [IORequest(r, r * BLOCK, BLOCK)])
            except DataLossError as err:
                # Structured loss is the honest failure the invariant
                # allows.
                result.reads_lost += 1
                result.failure_causes += (_loss_cause("read", r, err),)
                continue
            except Exception as err:  # noqa: BLE001 - the invariant
                result.violations.append(
                    f"rank {r}: unhandled {type(err).__name__}: {err}")
                continue
            blob = b"".join(e.materialize() for e in data[r])
            if blob == expected[r]:
                result.reads_ok += 1
            else:
                result.violations.append(
                    f"rank {r}: silent corruption "
                    f"({sum(a != b for a, b in zip(blob, expected[r]))} "
                    f"wrong bytes)")
        for r in (range(comm.size) if mix == "hotspot" else ()):
            try:
                data = yield from fh2.read_at_all([IORequest(
                    r, HOT_BASE + r * _HOT_STRIDE, HOT_SLOT)])
            except DataLossError as err:
                result.reads_lost += 1
                result.failure_causes += (_loss_cause("read", r, err),)
                continue
            except Exception as err:  # noqa: BLE001 - the invariant
                result.violations.append(
                    f"rank {r}: hot read unhandled "
                    f"{type(err).__name__}: {err}")
                continue
            blob = b"".join(e.materialize() for e in data[r])
            if blob == hot_expected[r]:
                result.reads_ok += 1
            else:
                result.violations.append(
                    f"rank {r}: hot-slot silent corruption/stale read "
                    f"({sum(a != b for a, b in zip(blob, hot_expected[r]))}"
                    f" wrong bytes)")
        yield from fh2.close()

    try:
        sim.run_to_completion(app())
        sim.run()  # drain background work; an unobserved crash raises
    except Exception as err:  # noqa: BLE001 - the invariant
        result.violations.append(
            f"engine: unhandled {type(err).__name__}: {err}")
    result.telemetry_ops = tuple(r.op for r in sim.telemetry.records)
    h = hashlib.sha256()
    # storm_legacy exists to replay the pre-quorum storm trajectory —
    # digests included — so it hashes under its historical mix label.
    digest_mix = "storm" if result.mix == "storm_legacy" else result.mix
    h.update(repr((result.seed, result.hardened, digest_mix,
                   result.reads_ok, result.reads_lost,
                   result.writes_ok, result.writes_lost,
                   tuple(result.violations), result.faults)).encode())
    for rec in sim.telemetry.records:
        h.update(f"{rec.app}|{rec.op}|{rec.path}|{rec.t_start:.9f}|"
                 f"{rec.t_end:.9f}|{rec.nbytes}\n".encode())
    result.digest = h.hexdigest()
    return result


def run_campaign(seeds: int, hardened: bool = True,
                 first_seed: int = 0, jobs: int = 1,
                 mix: str = "storm",
                 config: Optional[UniviStorConfig] = None) -> CampaignResult:
    """Run ``seeds`` consecutive schedules; aggregates the invariant.

    ``jobs > 1`` fans the seeds out over a ``multiprocessing`` pool.
    Each run is a pure function of ``(seed, hardened, mix, config)`` —
    every worker builds its own engine and machine from scratch — so the
    per-seed digests are bit-identical to the serial path and
    ``starmap`` preserves seed order in :attr:`CampaignResult.runs`.
    (``UniviStorConfig`` is a plain frozen dataclass, so the override
    pickles across the pool.)
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if mix not in MIXES:
        raise ValueError(f"unknown chaos mix {mix!r}; valid: {MIXES}")
    campaign = CampaignResult()
    seed_range = range(first_seed, first_seed + seeds)
    if jobs > 1 and seeds > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(jobs, seeds)) as pool:
            campaign.runs.extend(pool.starmap(
                run_one,
                [(seed, hardened, config, mix) for seed in seed_range]))
        return campaign
    for seed in seed_range:
        campaign.runs.append(run_one(seed, hardened=hardened,
                                     config=config, mix=mix))
    return campaign
