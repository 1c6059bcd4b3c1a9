"""Model-based checking of the hardened stack under fault interleavings.

A RuleBasedStateMachine drives a hardened deployment (detection,
takeover, scrubbing, replication, quorum metadata) through collective
writes, overwrites and reads interleaved with server and node crashes,
network partitions and heals, range splits and merges, pool growth and
shrinkage, and scrub passes.  After every step:

* a read returns the reference bytes, or raises a structured
  :class:`~repro.core.errors.DataLossError` (``QuorumLostError``
  included) that names the lost span;
* every metadata range that answers ``lookup`` answers it the same as a
  fresh replay of the accepted piece stream, and every record
  ``records_of`` lists (the flush and scrub view) maps its span as that
  replay does;
* the per-file ``VersionMap`` authority never goes backwards.

The reference advances only for writes that were accepted: a request
the quorum rejected leaves no authority stamp, so the stamp of the op's
write version says which requests of a failed collective applied.

A failure shrinks to a minimal rule sequence; run it again with
``REPRO_STATEFUL_PROFILE=stateful-nightly`` for a larger budget.
"""

import os

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core.errors import DataLossError
from repro.core.metadata import MetadataService, coalesce_records
from repro.sim.faults import Fault, FaultInjector, FaultSpec
from repro.units import KiB

NODES = 3
PROCS_PER_NODE = 2
RANKS = NODES * PROCS_PER_NODE
RANGE = int(16 * KiB)
#: Blocks straddle range boundaries, so pieces split.
BLOCK = int(24 * KiB)
SPAN = RANKS * BLOCK
N_RANGES = -(-SPAN // RANGE)
PATH = "/hardened"
POOL_MAX = 8


def _as_tuples(records):
    merged, _ = coalesce_records(sorted(records, key=lambda r: r.offset))
    return [(r.offset, r.length, r.proc_id, r.va, r.tier, r.node_id)
            for r in merged]


class HardenedMachine(RuleBasedStateMachine):
    """Drive a hardened deployment and a reference byte-store."""

    #: Config overrides of a subclass (on top of the hardened stack).
    CONFIG: dict = {}

    @initialize()
    def setup(self):
        self.sim = Simulation(MachineSpec.small_test(nodes=NODES))
        self.system = self.sim.install_univistor(UniviStorConfig.hardened(
            metadata_range_size=float(RANGE), metadata_replication=3,
            journal_checkpoint=2, lease_ttl=0.25, **self.CONFIG))
        self.comm = self.sim.comm("hardened", RANKS,
                                  procs_per_node=PROCS_PER_NODE)
        self.accepted = []
        self._capture_accepted_pieces()
        self.patterns = 0
        self.expected = {}
        self.authority = []
        self._write(range(RANKS), 0, BLOCK)
        assert len(self.expected) == RANKS, "seed write rejected"

    def _capture_accepted_pieces(self):
        metadata = self.system.metadata
        insert_many = metadata.insert_many

        def capturing(records, coalesce=False, stats=None, pieces=None):
            got = []
            try:
                return insert_many(records, coalesce, stats, got)
            finally:
                self.accepted.extend(got)
                if pieces is not None:
                    pieces.extend(got)

        metadata.insert_many = capturing

    # -- helpers ----------------------------------------------------------
    @property
    def session(self):
        return self.system.session(PATH)

    def _advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    def _inject(self, **fault):
        spec = FaultSpec(events=(Fault(at=self.sim.now, **fault),))
        FaultInjector(self.system, spec).install()
        self._advance(1e-4)

    def _write(self, ranks, lo, length):
        requests = []
        for rank in ranks:
            self.patterns += 1
            requests.append(IORequest(rank, rank * BLOCK + lo, length,
                                      PatternPayload(1000 + self.patterns)))
        session = self.system.session(PATH)
        before = session.write_version
        sim = self.sim

        def app():
            fh = yield from sim.open(self.comm, PATH, "w",
                                     fstype="univistor")
            try:
                yield from fh.write_at_all(requests)
            except DataLossError:
                pass  # a rejected write: the stamps say what applied
            try:
                yield from fh.close()
            except DataLossError:
                pass

        self.sim.run_to_completion(app())
        if session.write_version == before:
            return  # nothing applied
        version = session.write_version
        for req in requests:
            spans = session.data_versions.spans(req.offset, req.length)
            applied = (sum(e - s for s, e, _v, _ep in spans) == req.length
                       and all(v == version for _s, _e, v, _ep in spans))
            if not applied:
                continue
            block = bytearray(self.expected.get(req.rank, bytes(BLOCK)))
            block[lo:lo + length] = req.payload.materialize(0, length)
            self.expected[req.rank] = bytes(block)

    # -- I/O rules ----------------------------------------------------------
    @rule(ranks=st.sets(st.integers(0, RANKS - 1), min_size=1),
          lo=st.integers(0, BLOCK - 1),
          length=st.integers(1, BLOCK))
    def write(self, ranks, lo, length):
        self._write(sorted(ranks), lo, min(length, BLOCK - lo))

    @rule(rank=st.integers(0, RANKS - 1), lo=st.integers(0, BLOCK - 1),
          length=st.integers(1, BLOCK))
    def read(self, rank, lo, length):
        length = min(length, BLOCK - lo)
        offset = rank * BLOCK + lo
        sim = self.sim

        def app():
            fh = yield from sim.open(self.comm, PATH, "r",
                                     fstype="univistor")
            try:
                data = yield from fh.read_at_all(
                    [IORequest(rank, offset, length)])
            except DataLossError as err:
                data = err
            yield from fh.close()
            return data

        out = self.sim.run_to_completion(app())
        if isinstance(out, DataLossError):
            event(f"read: {type(out).__name__}")
            assert out.fid == self.session.fid, f"no provenance: {out!r}"
            assert out.offset is not None and out.length, \
                f"no lost span: {out!r}"
            return
        event("read: bytes")
        blob = b"".join(e.materialize() for e in out[rank])
        want = self.expected[rank][lo:lo + length]
        assert blob == want, (
            f"rank {rank} [{offset}, +{length}): "
            f"{sum(a != b for a, b in zip(blob, want))} wrong bytes")

    # -- fault rules --------------------------------------------------------
    @precondition(lambda self: len(self.system.failed_servers) < 2)
    @rule(server=st.integers(0, NODES * PROCS_PER_NODE - 1))
    def crash_server(self, server):
        if server not in self.system.failed_servers:
            self._inject(kind="server-crash", target=server)

    @precondition(lambda self: not self.system.failed_nodes
                  and not self.system.failed_servers)
    @rule(node=st.integers(0, NODES - 1))
    def crash_node(self, node):
        self._inject(kind="node-crash", target=node)

    @precondition(lambda self: not self.system.partitioned_servers)
    @rule(node=st.integers(0, NODES - 1),
          mode=st.sampled_from(["sym", "oneway"]))
    def partition(self, node, mode):
        self._inject(kind="partition", nodes=(node,), mode=mode)

    @precondition(lambda self: self.system.partitioned_servers)
    @rule()
    def heal(self):
        self._inject(kind="heal")

    @rule(dt=st.sampled_from([0.05, 0.3, 0.7]))
    def settle(self, dt):
        self._advance(dt)

    # -- layout and maintenance rules -----------------------------------------
    @rule(range_index=st.integers(0, N_RANGES - 1))
    def split(self, range_index):
        try:
            self.system.metadata.split_range(range_index)
        except DataLossError:
            pass  # the minority side defers

    @rule(range_index=st.integers(0, N_RANGES - 1))
    def merge(self, range_index):
        try:
            self.system.metadata.merge_range(range_index)
        except DataLossError:
            pass

    @precondition(lambda self: len(self.system.metadata.pool_servers())
                  < POOL_MAX)
    @rule()
    def grow_pool(self):
        self.system.grow_pool()

    @rule(data=st.data())
    def shrink_pool(self, data):
        pool = self.system.metadata.pool_servers()
        if len(pool) > 3:
            self.system.shrink_pool(data.draw(st.sampled_from(pool)))

    @rule()
    def scrub(self):
        def app():
            yield self.system.scrub.start_scrub()

        self.sim.run_to_completion(app())

    # -- invariants ---------------------------------------------------------
    @invariant()
    def lookup_matches_replay(self):
        if not hasattr(self, "sim"):
            return
        fresh = MetadataService(1, float(RANGE))
        fresh.insert_many(self.accepted)
        metadata = self.system.metadata
        fid = self.session.fid
        for range_index in range(N_RANGES):
            lo = range_index * RANGE
            length = min(RANGE, SPAN - lo)
            try:
                got, _servers = metadata.lookup(fid, lo, length)
            except DataLossError:
                continue  # unavailable is honest; divergent is not
            want, _ = fresh.lookup(fid, lo, length)
            assert _as_tuples(got) == _as_tuples(want), \
                f"range {range_index} diverges from the accepted stream"

    @invariant()
    def records_of_serves_no_superseded_record(self):
        """The flush, scrub and replication paths list a file through
        ``records_of``: every record it returns must map its span as
        the accepted stream does."""
        if not hasattr(self, "sim"):
            return
        fresh = MetadataService(1, float(RANGE))
        fresh.insert_many(self.accepted)
        fid = self.session.fid
        for rec in self.system.metadata.records_of(fid):
            want, _ = fresh.lookup(fid, rec.offset, rec.length)
            assert _as_tuples(want) == _as_tuples([rec]), \
                f"records_of returned a superseded record {rec}"

    @invariant()
    def authority_never_goes_backwards(self):
        if not hasattr(self, "sim"):
            return
        now = self.session.data_versions.spans(0, SPAN)
        for s, e, version, epoch in self.authority:
            for n_s, n_e, n_version, n_epoch in \
                    self.session.data_versions.spans(s, e - s):
                assert (n_version, n_epoch) >= (version, epoch), (
                    f"[{n_s}, {n_e}) went back from v{version}e{epoch} "
                    f"to v{n_version}e{n_epoch}")
            assert sum(n_e - n_s for n_s, n_e, _v, _ep in
                       self.session.data_versions.spans(s, e - s)) \
                == e - s, f"[{s}, {e}) lost its authority"
        self.authority = now


class DataQuorumMachine(HardenedMachine):
    """The same rules on the data-plane quorum deployment."""

    CONFIG = {"data_quorum": 2}


_PROFILE = settings.get_profile(
    os.environ.get("REPRO_STATEFUL_PROFILE", "stateful"))

TestHardenedModel = HardenedMachine.TestCase
TestHardenedModel.settings = _PROFILE
TestDataQuorumModel = DataQuorumMachine.TestCase
TestDataQuorumModel.settings = _PROFILE
