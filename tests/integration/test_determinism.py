"""Determinism regression tests for the hot-path optimizations (ISSUE 2).

The kernel, fair-share rescheduling, telemetry and metadata layers were
rewritten for speed with one hard constraint: **bit-identical behaviour**.
Same inputs must give the same telemetry record sequence — order included
— down to the float timestamps, because same-time FIFO event order is a
kernel invariant and every figure in the paper depends on it.

Two layers of protection:

* *golden digests* — SHA-256 over the full record sequence of three
  scenarios (the fig5 micro path, a ``--fault-spec`` faulted run, and a
  cap-heavy Lustre-direct run), captured from the **pre-optimization**
  code at commit 06ecc15.  If an "optimization" perturbs float
  arithmetic or event ordering anywhere in the stack, the digest moves
  and this fails.
* *run-to-run repeatability* — each scenario run twice from scratch must
  produce the identical sequence object-by-object.

If a future PR *intentionally* changes modelled timing (new contention
model, different constants), regenerate the goldens with
``python tests/integration/test_determinism.py`` and say so in the PR.
"""

import hashlib

import pytest

from repro.cluster.spec import MachineSpec
from repro.core.config import UniviStorConfig
from repro.experiments.common import build_simulation
from repro.sim.faults import FaultSpec
from repro.simulation import Simulation
from repro.units import MiB
from repro.workloads import MicroBench

#: The faulted scenario's ``--fault-spec`` string (CLI mini-language):
#: an explicit server crash survivable under replication=2, a transient
#: PFS brownout, and seeded random device degradations.
FAULT_SPEC = ("server-crash@0.3:server=1;"
              "device-degrade@0.1:tier=pfs,factor=0.5,duration=1.0;"
              "random:device_degrade_rate=0.05,horizon=1.5")
FAULT_SEED = 11

# (repr(sim.now), record count, sha256 of the record tuple sequence),
# captured at 06ecc15 (pre-optimization).
GOLDEN_MICRO = (
    "1.4404037423742115", 7,
    "050732f6dc840a523a3d47e1c239ec941d3bfa0ec30bcb1d11674b77065d9d6e")
GOLDEN_FAULTED = (
    "1.8037943566036996", 42,
    "f8284e69ba679d3c1049e80318490eea5b37751fcf34b2241d3ed5384440a846")
GOLDEN_LUSTRE = (
    "4.865715489523809", 6,
    "2d49122c1985a940238551a033b3e9029c1d02c90ab7e448dd5e3359687dc3e5")


def _record_tuples(sim):
    return [(r.app, r.op, r.path, r.t_start, r.t_end, r.nbytes, r.driver)
            for r in sim.telemetry.records]


def _digest(tuples):
    h = hashlib.sha256()
    for t in tuples:
        h.update(repr(t).encode())
    return h.hexdigest()


def run_micro():
    """The fig5 micro path: 64 ranks, UniviStor/DRAM, write + read."""
    sim, fstype = build_simulation(64, "UniviStor/DRAM")
    comm = sim.comm("iobench", size=64)
    bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                       bytes_per_proc=64 * MiB)

    def app():
        yield from bench.write_phase()
        yield from bench.read_phase()

    sim.run_to_completion(app())
    return sim


def run_faulted():
    """Micro under a fault campaign: crash a metadata replica mid-write,
    brown out the PFS, sprinkle seeded random degradations."""
    cfg = UniviStorConfig.dram_bb(metadata_replication=2, io_retry_limit=2)
    sim, fstype = build_simulation(64, "UniviStor/(DRAM+BB)", config=cfg)
    sim.install_faults(FaultSpec.parse(FAULT_SPEC), seed=FAULT_SEED)
    comm = sim.comm("iobench", size=64)
    bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                       bytes_per_proc=64 * MiB)

    def app():
        yield from bench.write_phase(sync=True)
        yield from bench.read_phase()

    sim.run_to_completion(app())
    return sim


def run_lustre():
    """Plain Lustre: exercises the capped water-filling path heavily
    (every stripe transfer carries a per-stream OST cap)."""
    sim, fstype = build_simulation(64, "Lustre")
    comm = sim.comm("iobench", size=64)
    bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                       bytes_per_proc=64 * MiB)

    def app():
        yield from bench.write_phase()
        yield from bench.read_phase()

    sim.run_to_completion(app())
    return sim


SCENARIOS = {
    "micro": (run_micro, GOLDEN_MICRO),
    "faulted": (run_faulted, GOLDEN_FAULTED),
    "lustre": (run_lustre, GOLDEN_LUSTRE),
}


class TestGoldenDigests:
    """The optimized stack reproduces the pre-optimization sequences."""

    def _check(self, name):
        run, (golden_now, golden_count, golden_digest) = SCENARIOS[name]
        sim = run()
        tuples = _record_tuples(sim)
        assert repr(sim.now) == golden_now
        assert len(tuples) == golden_count
        assert _digest(tuples) == golden_digest

    def test_fig5_micro_path(self):
        self._check("micro")

    def test_faulted_run(self):
        self._check("faulted")

    def test_lustre_capped_path(self):
        self._check("lustre")


class TestEngineLayoutInvariance:
    """The engine has one layout (docs/MODEL.md §13).  The old layout
    knobs (``engine_shards`` / ``engine_bucket_width`` / ``shard=``) are
    accepted for one grace window: each form warns and is otherwise
    ignored, so a run that passes them still reproduces the goldens —
    same final clock, same record sequence, same digest."""

    def _check_micro(self, **engine_kw):
        from repro.experiments.common import univistor_config_for
        with pytest.warns(DeprecationWarning, match="one layout"):
            cfg = univistor_config_for("UniviStor/DRAM", **engine_kw)
        sim, fstype = build_simulation(64, "UniviStor/DRAM", config=cfg)
        comm = sim.comm("iobench", size=64)
        bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                           bytes_per_proc=64 * MiB)

        def app():
            yield from bench.write_phase()
            yield from bench.read_phase()

        sim.run_to_completion(app())
        _assert_golden(sim, GOLDEN_MICRO)

    def test_sharded_engine_matches_micro_golden(self):
        self._check_micro(engine_shards=4)

    def test_bucket_kernel_matches_micro_golden(self):
        self._check_micro(engine_bucket_width=0.01)

    def test_sharded_bucket_matches_micro_golden(self):
        # Every deprecated form at once: config knobs, Simulation
        # arguments and a spawn-time shard pin.
        with pytest.warns(DeprecationWarning, match="one layout"):
            cfg = UniviStorConfig.dram_only(engine_shards=3,
                                            engine_bucket_width=0.01)
        with pytest.warns(DeprecationWarning, match="one layout"):
            sim = Simulation(MachineSpec.cori_haswell(nodes=2),
                             engine_shards=3, engine_bucket_width=0.01)
        sim.install_univistor(cfg)
        comm = sim.comm("iobench", size=64)
        bench = MicroBench(sim, comm, "/pfs/m.h5", "univistor",
                           bytes_per_proc=64 * MiB)

        def app():
            yield from bench.write_phase()
            yield from bench.read_phase()

        with pytest.warns(DeprecationWarning, match="one layout"):
            sim.spawn(app(), shard=3)
        sim.run()
        _assert_golden(sim, GOLDEN_MICRO)

    def test_faulted_run_sharded(self):
        with pytest.warns(DeprecationWarning, match="one layout"):
            cfg = UniviStorConfig.dram_bb(metadata_replication=2,
                                          io_retry_limit=2, engine_shards=4)
        sim, fstype = build_simulation(64, "UniviStor/(DRAM+BB)",
                                       config=cfg)
        sim.install_faults(FaultSpec.parse(FAULT_SPEC), seed=FAULT_SEED)
        comm = sim.comm("iobench", size=64)
        bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                           bytes_per_proc=64 * MiB)

        def app():
            yield from bench.write_phase(sync=True)
            yield from bench.read_phase()

        sim.run_to_completion(app())
        _assert_golden(sim, GOLDEN_FAULTED)


def _assert_golden(sim, golden):
    golden_now, golden_count, golden_digest = golden
    tuples = _record_tuples(sim)
    assert repr(sim.now) == golden_now
    assert len(tuples) == golden_count
    assert _digest(tuples) == golden_digest


class TestRunToRunDeterminism:
    """Two fresh runs produce identical record sequences, order included."""

    def _check(self, name):
        run, _ = SCENARIOS[name]
        first = _record_tuples(run())
        second = _record_tuples(run())
        assert first == second

    def test_fig5_micro_path(self):
        self._check("micro")

    def test_faulted_run(self):
        self._check("faulted")


if __name__ == "__main__":  # golden regeneration helper
    for name, (run, _) in SCENARIOS.items():
        sim = run()
        tuples = _record_tuples(sim)
        print(f"GOLDEN_{name.upper()} = (\n    {repr(sim.now)!r}, "
              f"{len(tuples)},\n    {_digest(tuples)!r})")
