"""Simulator self-benchmarks: wall-clock cost of the reproduction itself.

Unlike the figure benches (which report *simulated* I/O rates), these
measure how fast the simulator runs on the host — the numbers that decide
whether the full paper sweep is practical.  They exercise the hot paths:
the event kernel, fair-share rescheduling, extent-map writes and the
full-stack micro-benchmark at two scales.
"""

import numpy as np

from repro.cluster.spec import MachineSpec
from repro.core.config import StorageTier, UniviStorConfig
from repro.core.location_cache import LocationCache
from repro.core.metadata import MetadataRecord, MetadataService
from repro.experiments.common import build_simulation
from repro.sim import BandwidthResource, Engine
from repro.simmpi.mpiio import IORequest
from repro.simulation import Simulation
from repro.storage.datamodel import ExtentMap, PatternPayload
from repro.units import KiB, MiB
from repro.workloads import MicroBench


class TestKernelThroughput:
    def test_event_loop_throughput(self, benchmark):
        """Chained timeouts: pure scheduler overhead per event."""
        def run():
            engine = Engine()

            def ticker():
                for _ in range(20_000):
                    yield engine.timeout(1.0)

            engine.run_process(ticker())
            return engine.now

        assert benchmark(run) == 20_000.0

    def test_fair_share_rescheduling(self, benchmark):
        """Staggered flows force O(flows) rescheduling churn."""
        def run():
            engine = Engine()
            pipe = BandwidthResource(engine, 1000.0)

            def submit(i):
                yield engine.timeout(i * 0.1)
                yield pipe.transfer(100.0 + i, streams=1 + i % 7)

            for i in range(300):
                engine.process(submit(i))
            engine.run()
            return pipe.bytes_moved

        assert benchmark(run) > 0

    def test_extent_map_random_writes(self, benchmark):
        """Interval-map maintenance under overwrite churn."""
        rng = np.random.default_rng(7)
        ops = [(int(o), int(l), int(s)) for o, l, s in
               zip(rng.integers(0, 1 << 20, 3000),
                   rng.integers(1, 1 << 12, 3000),
                   rng.integers(0, 50, 3000))]

        def run():
            m = ExtentMap()
            for offset, length, seed in ops:
                m.write(offset, length, PatternPayload(seed))
            return len(m)

        assert benchmark(run) > 0


class TestMetadataFastPath:
    """Host cost of the metadata plane (docs/MODEL.md §9)."""

    PROCS = 4
    WAVES = 24
    CHUNKS = 64
    CHUNK = int(4 * KiB)

    def _wave_records(self, wave):
        """One collective write's record stream: per-proc contiguous runs
        of chunk records, appended wave after wave (offsets *and* VAs
        continue across waves, so compaction can collapse each proc's
        region)."""
        records = []
        run_bytes = self.CHUNKS * self.CHUNK
        for proc in range(self.PROCS):
            base = proc * (64 << 20) + wave * run_bytes
            va = float(wave * run_bytes)
            for i in range(self.CHUNKS):
                records.append(MetadataRecord(
                    1, base + i * self.CHUNK, self.CHUNK, proc,
                    va + i * self.CHUNK, StorageTier.DRAM, proc % 2))
        return records

    def test_metadata_insert_throughput(self, benchmark):
        """Collective-write insert stream: batched, coalesced and
        compacted."""
        waves = [self._wave_records(w) for w in range(self.WAVES)]

        def run():
            md = MetadataService(n_servers=8, range_size=float(1 * MiB),
                                 replication=2)
            for records in waves:
                md.insert_many(records, coalesce=True)
            return md.record_count

        assert benchmark(run) > 0

    def test_cached_read_latency(self, benchmark):
        """Strided multi-range lookups: location-cache hits plus the
        unchanged per-range cost accounting."""
        chunk = int(4 * KiB)
        n_records = 16384  # 64 MiB of 4 KiB pieces, writers alternating
        md = MetadataService(n_servers=4, range_size=float(64 * KiB),
                             replication=1)
        cache = LocationCache(md.range_size)
        cache.begin_file(1)
        records = [MetadataRecord(1, i * chunk, chunk, i % 4,
                                  float(i * chunk), StorageTier.DRAM,
                                  i % 2)
                   for i in range(n_records)]
        md.insert_many(records)
        cache.insert_records(records)
        span = int(1 * MiB)
        limit = n_records * chunk - span
        offsets = [(j * 997 * chunk) % limit // chunk * chunk
                   for j in range(64)]

        def run():
            total = 0
            for off in offsets:
                found = cache.lookup(1, off, span)
                md.read_servers_for(1, off, span)
                total += len(found)
            return total

        assert benchmark(run) > 0


class TestHotRangeThroughput:
    """Simulated payoff of the adaptive hotspot mitigation
    (docs/MODEL.md §11): every rank hammers a small slot inside ONE
    64 KiB metadata range, so the static layout serializes each
    collective on the range's replica set while the mitigation splits
    the range across the (elastically grown) server pool."""

    RANKS = 6
    WAVES = 60
    SLOTS_PER_RANK = 8
    SLOT = 512

    def _run_skewed(self, adaptive):
        """Returns the simulated hot-phase throughput (bytes/s)."""
        config = UniviStorConfig.hardened(
            metadata_range_size=float(64 * KiB),
            journal_checkpoint=2,
            hotspot_enabled=adaptive,
            range_split_threshold=8,
            range_merge_threshold=0,
            hotspot_interval=0.002,
            pool_max_servers=8)
        sim = Simulation(MachineSpec.small_test(nodes=3))
        sim.install_univistor(config)
        comm = sim.comm("hot", self.RANKS, procs_per_node=2)
        n_slots = self.RANKS * self.SLOTS_PER_RANK
        stride = int(64 * KiB) // n_slots
        elapsed = {}

        def app():
            fh = yield from sim.open(comm, "/hot", "w",
                                     fstype="univistor")
            start = sim.now
            for wave in range(self.WAVES):
                yield from fh.write_at_all([
                    IORequest(r, (r * self.SLOTS_PER_RANK + k) * stride,
                              self.SLOT,
                              PatternPayload(wave * n_slots + r + k))
                    for r in range(comm.size)
                    for k in range(self.SLOTS_PER_RANK)])
            elapsed["hot"] = sim.now - start
            yield from fh.close()
            yield from fh.sync()

        sim.run_to_completion(app())
        sim.run()
        return self.WAVES * n_slots * self.SLOT / elapsed["hot"]

    def test_hot_range_throughput(self, benchmark):
        """Skewed overwrite waves into one range; with the mitigation on
        the simulated hot-range throughput must be at least 2x the
        static layout's."""
        adaptive = benchmark.pedantic(self._run_skewed, args=(True,),
                                      rounds=3, iterations=1)
        benchmark.extra_info["simulated_bytes_per_sec"] = adaptive
        static = self._run_skewed(False)
        assert adaptive >= 2.0 * static, (
            f"hot-range mitigation payoff below 2x: "
            f"{adaptive / static:.2f}x")


class TestWriteQuorumOverhead:
    """Simulated write-ack cost of the synchronous data-plane quorum
    (docs/MODEL.md §12): at ``data_quorum=2`` the shared-BB mirror
    joins the collective's completion, so the ack waits for the slowest
    of the primary placement and the mirror.  Non-gating on the ratio —
    the bench records the dq=2 vs dq=1 simulated write-phase times in
    the trajectory so the durability-vs-latency trade-off stays
    visible across PRs."""

    RANKS = 6
    WAVES = 20
    BLOCK = int(256 * KiB)

    def _run_waves(self, data_quorum):
        """Returns the simulated write-phase duration (seconds)."""
        config = UniviStorConfig.hardened(
            metadata_range_size=float(64 * KiB),
            journal_checkpoint=2,
            data_quorum=data_quorum)
        sim = Simulation(MachineSpec.small_test(nodes=3))
        sim.install_univistor(config)
        comm = sim.comm("quorum", self.RANKS, procs_per_node=2)
        elapsed = {}

        def app():
            fh = yield from sim.open(comm, "/quorum", "w",
                                     fstype="univistor")
            start = sim.now
            for wave in range(self.WAVES):
                yield from fh.write_at_all([
                    IORequest.contiguous_block(
                        r, self.BLOCK,
                        PatternPayload(wave * self.RANKS + r))
                    for r in range(comm.size)])
            elapsed["write"] = sim.now - start
            yield from fh.close()
            yield from fh.sync()

        sim.run_to_completion(app())
        sim.run()
        return elapsed["write"]

    def test_write_quorum_overhead(self, benchmark):
        dq2 = benchmark.pedantic(self._run_waves, args=(2,),
                                 rounds=3, iterations=1)
        dq1 = self._run_waves(1)
        benchmark.extra_info["simulated_write_seconds_dq2"] = dq2
        benchmark.extra_info["simulated_write_seconds_dq1"] = dq1
        benchmark.extra_info["quorum_overhead_ratio"] = dq2 / dq1
        # The mirror rides the ack path, so dq=2 can never be cheaper
        # than the async-replication baseline; the magnitude is
        # trajectory data, not a gate.
        assert dq2 >= dq1


class TestFullStackThroughput:
    def _run_micro(self, procs, bytes_per_proc=256 * MiB, config=None):
        sim, fstype = build_simulation(procs, "UniviStor/DRAM",
                                       config=config)
        comm = sim.comm("iobench", size=procs)
        bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                           bytes_per_proc=bytes_per_proc)

        def app():
            yield from bench.write_phase()
            yield from bench.read_phase()

        sim.run_to_completion(app())
        return sim.telemetry.total_bytes(op="write")

    def test_micro_1024_procs_wall_time(self, benchmark):
        """Full write+read at 1024 ranks (32 nodes)."""
        total = benchmark.pedantic(self._run_micro, args=(1024,),
                                   rounds=3, iterations=1)
        assert total == 1024 * 256 * MiB

    def test_micro_8192_procs_wall_time(self, benchmark):
        """Full write+read at the paper's largest scale (256 nodes)."""
        total = benchmark.pedantic(self._run_micro, args=(8192,),
                                   rounds=1, iterations=1)
        assert total == 8192 * 256 * MiB

    def test_micro_100k_procs_wall_time(self, benchmark):
        """Full write+read at 100 000 ranks (3125 nodes) — the ROADMAP's
        whole-machine-rank-count scale gate.

        Per-rank payload is small (1 MiB): the point is rank-count
        scaling of the kernel, collective, and metadata paths, not
        bytes."""
        total = benchmark.pedantic(self._run_micro,
                                   args=(100_000, 1 * MiB),
                                   rounds=1, iterations=1)
        assert total == 100_000 * 1 * MiB


class TestMultiJobThroughput:
    def _run_trace(self):
        from repro.workloads.engine import WorkloadSpec, run_trace
        spec = WorkloadSpec(jobs=25, seed=0)
        return run_trace(spec.generate(), spec=spec)

    def test_multi_job_throughput(self, benchmark):
        """25-job heavy-tail trace through admission + DHP: the wall cost
        of one strategy point in a compare-strategies sweep."""
        result = benchmark.pedantic(self._run_trace, rounds=3, iterations=1)
        assert len(result.jobs) == 25
        assert result.counters["wl-complete"] == 25
