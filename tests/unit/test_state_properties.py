"""Property tests for the two structures that derive their state.

* :class:`VersionMap` keeps merged, canonical runs; per byte it must
  answer exactly what a byte-array map stamped the same way answers.
* :class:`LogFile` derives each chunk's used and live bytes from the
  active-chunk watermark and a sparse dead-byte map; it must behave
  exactly like the per-chunk list accounting it replaced, which
  :class:`ListLog` below re-implements.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StorageTier
from repro.core.dhp import LogFile
from repro.core.versioning import VersionMap
from repro.sim import Engine
from repro.storage.datamodel import PatternPayload
from repro.storage.device import StorageDevice
from repro.storage.posix import FileStore

DOMAIN = 64


# -- VersionMap ---------------------------------------------------------------
def _stamp_ops():
    # Few distinct (version, epoch) pairs, so runs touch and merge often.
    return st.lists(st.tuples(st.integers(0, DOMAIN - 1),
                              st.integers(0, 24),
                              st.integers(1, 3),
                              st.integers(0, 1)),
                    max_size=30)


def _apply(ops):
    """Stamp ``ops`` on a VersionMap and on a per-byte reference."""
    vmap = VersionMap()
    ref = [None] * (DOMAIN + 32)
    for offset, length, version, epoch in ops:
        vmap.stamp(offset, length, version, epoch)
        for b in range(offset, offset + length):
            ref[b] = (version, epoch)
    return vmap, ref


def _per_byte(spans):
    out = {}
    for start, end, *stamp in spans:
        for b in range(start, end):
            assert b not in out, "spans overlap"
            out[b] = tuple(stamp)
    return out


@given(ops=_stamp_ops())
@settings(max_examples=300, deadline=None)
def test_version_map_matches_byte_reference_and_stays_canonical(ops):
    vmap, ref = _apply(ops)
    spans = vmap.spans(0, len(ref))
    assert _per_byte(spans) == {b: s for b, s in enumerate(ref)
                                if s is not None}
    for (s0, e0, v0, ep0), (s1, _e1, v1, ep1) in zip(spans, spans[1:]):
        assert s0 < e0 <= s1
        # No two touching spans share a stamp.
        assert not (e0 == s1 and (v0, ep0) == (v1, ep1))
    assert len(vmap) == len(spans)
    assert vmap.max_version() == max((s[0] for s in ref if s), default=0)


@given(authority_ops=_stamp_ops(), copy_ops=_stamp_ops(),
       copied=st.lists(st.tuples(st.integers(0, DOMAIN - 1),
                                 st.integers(1, 24)), max_size=4),
       window=st.tuples(st.integers(0, DOMAIN - 1), st.integers(0, 40)))
@settings(max_examples=300, deadline=None)
def test_stale_spans_match_byte_reference(authority_ops, copy_ops, copied,
                                          window):
    authority, want = _apply(authority_ops)
    copy, have = _apply(copy_ops)
    for offset, length in copied:
        copy.copy_from(authority, offset, length)
        for b in range(offset, min(offset + length, len(have))):
            if want[b] is not None:
                have[b] = want[b]
    offset, length = window
    expected = {}
    for b in range(offset, min(offset + length, len(want))):
        if want[b] is None:
            continue  # the authority demands nothing here
        have_v, have_ep = have[b] or (0, 0)
        if have_v < want[b][0]:
            expected[b] = (have_v, have_ep) + want[b]
    stale = copy.stale_spans(authority, offset, length)
    assert _per_byte([(s.start, s.end, s.have_version, s.have_epoch,
                       s.want_version, s.want_epoch)
                      for s in stale]) == expected


def test_collective_blocks_merge_into_one_run():
    vmap = VersionMap()
    for rank in range(64):
        vmap.stamp(rank * 100, 100, 1, 0)
    assert len(vmap) == 1
    vmap.stamp(250, 100, 2, 0)       # an overwrite splits the run ...
    assert len(vmap) == 3
    vmap.stamp(250, 100, 1, 0)       # ... and re-stamping heals it
    assert vmap.spans(0, 6400) == [(0, 6400, 1, 0)]


# -- LogFile ------------------------------------------------------------------
class ListLog:
    """Per-chunk list accounting: one ``used`` and one ``live`` entry per
    allocated chunk, updated on every append and free."""

    def __init__(self, capacity, chunk_size, device_bytes):
        self.chunk_size = float(chunk_size)
        self.max_chunks = max(1, int(capacity // chunk_size))
        self.device_bytes = device_bytes
        self.used, self.live, self.free_stack = [], [], []
        self.active = None
        self.bytes_live = 0.0

    def remaining_in_log(self):
        remaining = 0.0
        if self.active is not None:
            remaining += self.chunk_size - self.used[self.active]
        fresh = self.max_chunks - len(self.used)
        return remaining + (fresh + len(self.free_stack)) * self.chunk_size

    def _charge(self, n_chunks):
        self.device_bytes -= n_chunks * self.chunk_size

    def append(self, length):
        cs = self.chunk_size
        runs, placed = [], 0

        def record(addr, take):
            if runs and runs[-1][0] + runs[-1][1] == addr:
                runs[-1] = (runs[-1][0], runs[-1][1] + take)
            else:
                runs.append((addr, take))
            self.bytes_live += take

        while placed < length:
            if self.active is None:
                if not self.free_stack:
                    want = max(1, math.ceil((length - placed) / cs))
                    want = min(want, self.max_chunks - len(self.used),
                               int(self.device_bytes // cs))
                    if want > 0:
                        self._charge(want)
                        first = len(self.used)
                        self.used.extend([0.0] * want)
                        self.live.extend([0.0] * want)
                        take = int(min(length - placed, want * cs))
                        record(first * cs, take)
                        placed += take
                        full, rem = divmod(take, int(cs))
                        for i in range(want):
                            used = cs if i < full else (rem if i == full
                                                        else 0.0)
                            self.used[first + i] = self.live[first + i] = used
                        if self.used[-1] < cs:
                            self.active = first + want - 1
                        continue
                if self.free_stack:
                    cid = self.free_stack.pop()
                    self.used[cid] = self.live[cid] = 0.0
                elif (len(self.used) >= self.max_chunks
                      or self.device_bytes < cs):
                    break
                else:
                    self._charge(1)
                    self.used.append(0.0)
                    self.live.append(0.0)
                    cid = len(self.used) - 1
                self.active = cid
            take = int(min(cs - self.used[self.active], length - placed))
            record(self.active * cs + self.used[self.active], take)
            self.used[self.active] += take
            self.live[self.active] += take
            placed += take
            if self.used[self.active] >= cs:
                self.active = None
        return runs

    def free_segment(self, addr, length):
        cs = self.chunk_size
        remaining = length
        while remaining > 0:
            cid = int(addr // cs)
            if cid >= len(self.used):
                raise ValueError("unallocated")
            in_chunk = min(remaining, cs - (addr - cid * cs))
            self.live[cid] -= in_chunk
            self.bytes_live -= in_chunk
            if self.live[cid] < -1e-6:
                raise ValueError("negative")
            if (self.live[cid] <= 1e-6 and self.used[cid] >= cs - 1e-6
                    and cid != self.active and cid not in self.free_stack):
                self.free_stack.append(cid)
            addr += in_chunk
            remaining -= in_chunk


_LOG_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 40)),
    # Free part of an earlier run (a run may already be dead: a double
    # free must fail the same way) ...
    st.tuples(st.just("free"), st.integers(0, 50), st.integers(0, 7),
              st.integers(1, 40)),
    # ... or bytes past the last allocated chunk.
    st.tuples(st.just("free-unallocated"), st.integers(0, 7))),
    max_size=40)


def _assert_same(log, ref):
    assert log.allocated_chunks == len(ref.used)
    for cid in range(len(ref.used)):
        c = log.chunk(cid)
        assert (c.chunk_id, c.used, c.live) == (cid, ref.used[cid],
                                                ref.live[cid])
    with pytest.raises(IndexError):
        log.chunk(len(ref.used))
    assert log.free_stack == ref.free_stack
    assert log.remaining_in_log() == ref.remaining_in_log()
    assert log.bytes_live == ref.bytes_live


@given(chunk=st.integers(1, 8), capacity=st.integers(1, 90),
       device_bytes=st.one_of(st.none(), st.integers(0, 90)), ops=_LOG_OPS)
@settings(max_examples=400, deadline=None)
def test_log_file_matches_per_chunk_list_accounting(chunk, capacity,
                                                    device_bytes, ops):
    device = (None if device_bytes is None else
              StorageDevice(Engine(), "d", capacity=device_bytes,
                            bandwidth=1.0))
    log = LogFile(StorageTier.DRAM, capacity, chunk,
                  FileStore().create("/log"), device=device)
    ref = ListLog(capacity, chunk,
                  10 ** 9 if device_bytes is None else device_bytes)
    runs = []
    for op in ops:
        if op[0] == "append":
            got = log.append(op[1], PatternPayload(1))
            assert got == ref.append(op[1])
            runs.extend(got)
            continue
        if op[0] == "free":
            if not runs:
                continue
            addr, run_len = runs[op[1] % len(runs)]
            skip = op[2] % run_len
            args = (addr + skip, min(op[3], run_len - skip))
        else:
            args = ((len(ref.used) + op[1]) * chunk, chunk)
        try:
            ref.free_segment(*args)
        except ValueError:
            with pytest.raises(ValueError):
                log.free_segment(*args)
        else:
            log.free_segment(*args)
        _assert_same(log, ref)
    _assert_same(log, ref)
    if device is not None:
        assert device.available == ref.device_bytes
