"""The benchmark's three workloads, one pass at a time.

A *pass* builds fresh simulations, runs the workload once and checks its
outputs.  Every pass of one run uses the same inputs, which
:func:`inputs` derives from the benchmark seed alone, so the simulated
metrics of all passes must agree bit for bit.

* ``micro`` -- the paper's HDF5 micro-benchmark (Fig. 5/6): 4096 ranks on
  128 nodes, ``UniviStor/DRAM``, 256 MiB per rank, one collective write
  and one collective read of each rank's block of a shared file.
* ``workflow`` -- the Fig. 9 overlap workflow: 5 steps of VPIC-IO writes
  beside concurrent BD-CATS-IO reads, 512 ranks split half and half,
  ``UniviStor/DRAM`` with workflow locks and background flush to Lustre.
* ``chaos`` -- a sequential hardened chaos campaign on 3 nodes x 2 ranks;
  each seed runs the canonical ``storm`` mix, then the ``hotspot`` mix.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro import chaos
from repro.experiments import fig9
from repro.experiments.common import build_simulation
from repro.simulation import Simulation
from repro.units import GiB, MiB
from repro.workloads.iobench import MicroBench
from repro.workloads.vpic import VpicIO

__all__ = ["WORKLOADS", "PassResult", "SetupClock", "inputs",
           "phase_rates"]

MICRO_RANKS = 4096
MICRO_BYTES_PER_RANK = 256 * MiB
WORKFLOW_RANKS = 512
WORKFLOW_STEPS = 5
#: Chaos seeds per pass; each seed runs the storm mix, then the hotspot
#: mix, so the per-seed host times form one distribution.  A hundred
#: seeds leave ten beyond the 90th percentile.
CHAOS_SEEDS_PER_PASS = 100
CHAOS_MIXES = ("storm", "hotspot")


@dataclass
class PassResult:
    """One pass: host timings, simulated metrics and correctness."""

    setup_s: float
    wall_s: float
    #: Host milliseconds per seed: each chaos seed (both mixes), or the
    #: whole pass for ``micro`` / ``workflow``, which have one seed.
    seed_ms: Dict[int, float]
    #: Simulated metrics; identical on every pass of one run.
    sim: Dict[str, float]
    #: SHA-256 over every ``OpRecord`` of the pass (and chaos digests).
    digest: str
    units: int
    failed_units: int
    violations: List[str] = field(default_factory=list)
    #: Metadata records held at the end of the pass (all simulations).
    record_count: int = 0


class SetupClock:
    """Times simulation set-up: machine build, system install and
    communicators (``Simulation.__init__``, ``install_univistor`` and
    ``comm``), and keeps the simulations a pass builds."""

    _TIMED = ("__init__", "install_univistor", "comm")

    def __init__(self):
        self.total = 0.0
        self.sims: List[Simulation] = []
        self._originals = {}

    def install(self) -> "SetupClock":
        for attr in self._TIMED:
            original = Simulation.__dict__[attr]
            self._originals[attr] = original
            setattr(Simulation, attr, self._timed(original, attr))
        return self

    def uninstall(self) -> None:
        for attr, original in self._originals.items():
            setattr(Simulation, attr, original)
        self._originals.clear()

    def _timed(self, fn, attr):
        clock = self

        def timed(sim, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                clock.total += time.perf_counter() - t0
                if attr == "__init__":
                    clock.sims.append(sim)

        return timed

    def take_sims(self) -> List[Simulation]:
        sims, self.sims = self.sims, []
        return sims


def inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload for one benchmark seed."""
    rng = random.Random(seed)
    if workload == "micro":
        return {"payload_seed_base": rng.randrange(1, 10 ** 9)}
    if workload == "workflow":
        # VPIC payload seeds are 100_000 * (step + 1) + 1_000 * property
        # + rank; a multiple of 10**6 keeps every stream distinct.
        return {"payload_seed_offset": rng.randrange(1, 10 ** 6) * 10 ** 6}
    if workload == "chaos":
        first = rng.randrange(0, 10 ** 6)
        return {"seeds": list(range(first, first + CHAOS_SEEDS_PER_PASS))}
    raise ValueError(f"unknown workload {workload!r}")


# -- simulated metrics -------------------------------------------------------
def phase_rates(records) -> Dict[str, list]:
    """Bytes and simulated time of every open+data+close phase, by
    whether the phase wrote or read: ``{"write": [bytes, seconds],
    "read": [...]}``.  A phase is one open of a path by one application
    up to its close; the paper's I/O rate is bytes over that time."""
    totals = {"write": [0.0, 0.0], "read": [0.0, 0.0]}
    open_phases: Dict[tuple, list] = {}
    for rec in records:
        key = (rec.app, rec.path)
        if rec.op == "open":
            open_phases[key] = [None, 0.0, rec.duration]
            continue
        phase = open_phases.get(key)
        if phase is None:
            continue
        if rec.op in ("write", "read"):
            phase[0] = phase[0] or rec.op
            phase[1] += rec.nbytes
            phase[2] += rec.duration
        elif rec.op == "close":
            del open_phases[key]
            if phase[0] is not None:
                totals[phase[0]][0] += phase[1]
                totals[phase[0]][1] += phase[2] + rec.duration
    return totals


def _sim_metrics(sims: List[Simulation]) -> Dict[str, float]:
    """Simulated I/O rates and elapsed time over a pass's simulations."""
    rates = {"write": [0.0, 0.0], "read": [0.0, 0.0]}
    elapsed = 0.0
    for sim in sims:
        records = sim.telemetry.records
        for kind, (nbytes, seconds) in phase_rates(records).items():
            rates[kind][0] += nbytes
            rates[kind][1] += seconds
        opens = [r.t_start for r in records if r.op == "open"]
        closes = [r.t_end for r in records if r.op == "close"]
        if opens and closes:
            elapsed += max(closes) - min(opens)
    out = {f"sim_{kind}_GiBps": (nbytes / seconds / GiB if seconds else 0.0)
           for kind, (nbytes, seconds) in rates.items()}
    out["sim_elapsed_s"] = elapsed
    return out


def _digest(sims: List[Simulation], extra: str = "") -> str:
    h = hashlib.sha256(extra.encode())
    for sim in sims:
        for rec in sim.telemetry.records:
            h.update(f"{rec.app}|{rec.op}|{rec.path}|{rec.t_start!r}|"
                     f"{rec.t_end!r}|{rec.nbytes!r}|{rec.driver}\n".encode())
    return h.hexdigest()


def _record_count(sims: List[Simulation]) -> int:
    return sum(sim.univistor.metadata.record_count for sim in sims
               if sim.univistor is not None)


def _bytes(sims: List[Simulation], app: str, op: str) -> float:
    return sum(sim.telemetry.total_bytes(app=app, op=op) for sim in sims)


# -- passes ------------------------------------------------------------------
def micro_pass(inp: dict, clock: SetupClock) -> PassResult:
    setup0 = clock.total
    t0 = time.perf_counter()
    sim, fstype = build_simulation(MICRO_RANKS, "UniviStor/DRAM")
    comm = sim.comm("micro", size=MICRO_RANKS)
    bench = MicroBench(sim, comm, "/pfs/micro.h5", fstype,
                       MICRO_BYTES_PER_RANK,
                       payload_seed_base=inp["payload_seed_base"])

    def app():
        yield from bench.write_phase()
        return (yield from bench.read_phase())

    results = sim.run_to_completion(app(), name="micro")
    total = time.perf_counter() - t0
    setup = clock.total - setup0
    sims = clock.take_sims()
    expected = float(MICRO_RANKS * MICRO_BYTES_PER_RANK)
    violations = []
    read_ok = 1.0
    try:
        bench.verify_sample(results)
    except AssertionError as err:
        violations.append(f"read-back: {err}")
        read_ok = 0.0
    for op in ("write", "read"):
        moved = _bytes(sims, "micro", op)
        if moved != expected:
            violations.append(f"{op} bytes {moved} != {expected}")
    sim_metrics = _sim_metrics(sims)
    sim_metrics["read_ok_ratio"] = read_ok
    sim_metrics["write_ok_ratio"] = _bytes(sims, "micro", "write") / expected
    return PassResult(setup_s=setup, wall_s=total - setup,
                      seed_ms={0: total * 1e3}, sim=sim_metrics,
                      digest=_digest(sims), units=1,
                      failed_units=1 if violations else 0,
                      violations=violations,
                      record_count=_record_count(sims))


class _SeededVpicIO(VpicIO):
    """VPIC-IO with every payload stream shifted by the pass's offset
    (set on the class before each workflow pass)."""

    payload_seed_offset = 0

    def seed_base(self, step: int, prop_index: int) -> int:
        return super().seed_base(step, prop_index) + self.payload_seed_offset


def workflow_pass(inp: dict, clock: SetupClock) -> PassResult:
    setup0 = clock.total
    _SeededVpicIO.payload_seed_offset = inp["payload_seed_offset"]
    violations = []
    read_ok = 1.0
    t0 = time.perf_counter()
    fig9.VpicIO = _SeededVpicIO
    try:
        fig9.run_workflow(WORKFLOW_RANKS, "UniviStor/DRAM", overlap=True,
                          steps=WORKFLOW_STEPS, verify=True)
    except Exception as err:  # noqa: BLE001 - a failed gate, reported
        violations.append(f"workflow: {type(err).__name__}: {err}")
        read_ok = 0.0
    finally:
        fig9.VpicIO = VpicIO
    total = time.perf_counter() - t0
    setup = clock.total - setup0
    sims = clock.take_sims()
    half = WORKFLOW_RANKS // 2
    expected = float(half * 256 * MiB * WORKFLOW_STEPS)
    moved = {"write": _bytes(sims, "vpic", "write"),
             "read": _bytes(sims, "bdcats", "read")}
    for op, nbytes in moved.items():
        if nbytes != expected:
            violations.append(f"{op} bytes {nbytes} != {expected}")
    sim_metrics = _sim_metrics(sims)
    sim_metrics["read_ok_ratio"] = read_ok
    sim_metrics["write_ok_ratio"] = moved["write"] / expected
    return PassResult(setup_s=setup, wall_s=total - setup,
                      seed_ms={0: total * 1e3}, sim=sim_metrics,
                      digest=_digest(sims), units=1,
                      failed_units=1 if violations else 0,
                      violations=violations,
                      record_count=_record_count(sims))


def chaos_pass(inp: dict, clock: SetupClock) -> PassResult:
    setup0 = clock.total
    seed_ms = {}
    runs = []
    t0 = time.perf_counter()
    for seed in inp["seeds"]:
        start = time.perf_counter()
        runs.extend(chaos.run_one(seed, hardened=True, mix=mix)
                    for mix in CHAOS_MIXES)
        seed_ms[seed] = (time.perf_counter() - start) * 1e3
    total = time.perf_counter() - t0
    setup = clock.total - setup0
    sims = clock.take_sims()
    reads_ok = sum(r.reads_ok for r in runs)
    reads = sum(r.reads_total for r in runs)
    writes_ok = sum(r.writes_ok for r in runs)
    writes = writes_ok + sum(r.writes_lost for r in runs)
    violations = [f"seed {r.seed} ({r.mix}): {v}"
                  for r in runs for v in r.violations]
    sim_metrics = _sim_metrics(sims)
    sim_metrics["read_ok_ratio"] = reads_ok / reads if reads else 1.0
    sim_metrics["write_ok_ratio"] = writes_ok / writes if writes else 1.0
    return PassResult(setup_s=setup, wall_s=total - setup, seed_ms=seed_ms,
                      sim=sim_metrics,
                      digest=_digest(sims, ",".join(r.digest for r in runs)),
                      units=len(inp["seeds"]),
                      failed_units=len({r.seed for r in runs if r.violations}),
                      violations=violations,
                      record_count=_record_count(sims))


WORKLOADS = {"micro": micro_pass, "workflow": workflow_pass,
             "chaos": chaos_pass}
