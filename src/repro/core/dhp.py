"""Distributed and Hierarchical data Placement (§II-B1).

Each (file, process) pair owns one log per storage layer.  Writes append
into the current layer's log until it (or its backing device) runs out of
space, then spill to the next layer — transforming the application's
shared-file pattern into file-per-process logs spread over the hierarchy,
exactly Fig. 2.

A log's space is a sequence of fixed-size **chunks**; data is appended
inside a chunk log-structured.  A **free-chunk stack** records reusable
chunk IDs: a fully dead chunk (all its bytes overwritten or deleted) is
pushed back and reused before fresh chunks are taken.

A log's capacity, and so its VA window (Eq. 1), is fixed when the writer
is built; its backing file and chunk lists appear on its first append.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.config import StorageTier
from repro.core.va import VirtualAddressSpace
from repro.storage.datamodel import Payload
from repro.storage.device import CapacityError, StorageDevice
from repro.storage.posix import SimFile

__all__ = ["Chunk", "LogFile", "PlacedSegment", "DHPWriter", "LogFullError"]


#: Chunk lists of a log nothing was appended to yet (shared, immutable).
_UNOPENED: Tuple = ()


class LogFullError(RuntimeError):
    """The log (or its device) cannot hold any more data."""


@dataclass(frozen=True, slots=True)
class Chunk:
    """Descriptor of one log chunk (exposed for inspection/tests)."""

    chunk_id: int
    used: float
    live: float


@dataclass(frozen=True, slots=True)
class PlacedSegment:
    """Where one contiguous run of logical file bytes physically landed."""

    rank: int
    logical_offset: int
    length: int
    layer: int
    tier: StorageTier
    va: float
    physical_address: float

    @property
    def logical_end(self) -> int:
        return self.logical_offset + self.length


class LogFile:
    """One process's log on one storage layer.

    ``capacity`` bounds the log (the c/p rule); ``device`` is the capacity
    ledger actually charged chunk by chunk — a log may fail *before* its
    own bound if the device runs dry (other processes' logs compete for
    the same DRAM/BB space).  ``sim_file`` holds the real bytes: either
    the :class:`SimFile` itself or ``open_file(tier) -> SimFile``, called
    on the first append.  A layer no byte ever reaches then creates no
    file and no chunk lists (its VA window is fixed by ``capacity``
    alone, Eq. 1).
    """

    __slots__ = ("tier", "capacity", "chunk_size", "device", "max_chunks",
                 "_file", "_open_file", "_chunk_used", "_chunk_live",
                 "_free_stack", "_active", "bytes_written", "bytes_live")

    def __init__(self, tier: StorageTier, capacity: float, chunk_size: float,
                 sim_file: Union[SimFile, Callable[[StorageTier], SimFile]],
                 device: Optional[StorageDevice] = None):
        if capacity <= 0:
            raise ValueError(f"log capacity must be positive, got {capacity}")
        if chunk_size <= 0:
            raise ValueError(f"chunk size must be positive, got {chunk_size}")
        self.tier = tier
        self.capacity = float(capacity)
        self.chunk_size = float(chunk_size)
        self.device = device
        self.max_chunks = (math.inf if capacity == math.inf
                           else max(1, int(capacity // chunk_size)))
        if isinstance(sim_file, SimFile):
            self._file: Optional[SimFile] = sim_file
            self._open_file = None
        else:
            self._file = None
            self._open_file = sim_file
        #: Bytes appended per allocated chunk, indexed by chunk id; this
        #: and the two lists below become real lists on the first append.
        self._chunk_used: Sequence[float] = _UNOPENED
        #: Live (not-yet-freed) bytes per chunk.
        self._chunk_live: Sequence[float] = _UNOPENED
        self._free_stack: Sequence[int] = _UNOPENED
        self._active: Optional[int] = None  # chunk being appended to
        self.bytes_written = 0.0
        self.bytes_live = 0.0

    @property
    def sim_file(self) -> Optional[SimFile]:
        """The backing file, or ``None`` while nothing was ever appended
        to a log built with a factory.  Every placed segment's log has
        one, so readers resolving a record never see ``None``."""
        return self._file

    def _open(self) -> None:
        """First append: create the backing file and the chunk lists."""
        if self._file is None:
            self._file = self._open_file(self.tier)
            self._open_file = None
        self._chunk_used = []
        self._chunk_live = []
        self._free_stack = []

    # -- queries ---------------------------------------------------------
    @property
    def allocated_chunks(self) -> int:
        return len(self._chunk_used)

    @property
    def free_stack(self) -> List[int]:
        return list(self._free_stack)

    def chunk(self, chunk_id: int) -> Chunk:
        return Chunk(chunk_id, self._chunk_used[chunk_id],
                     self._chunk_live[chunk_id])

    def remaining_in_log(self) -> float:
        """Space the log could still accept (ignoring device pressure)."""
        if self.max_chunks == math.inf:
            return math.inf
        remaining = 0.0
        if self._active is not None:
            remaining += self.chunk_size - self._chunk_used[self._active]
        fresh = self.max_chunks - self.allocated_chunks
        remaining += (fresh + len(self._free_stack)) * self.chunk_size
        return remaining

    # -- allocation -------------------------------------------------------
    def _take_chunk(self) -> int:
        """Pop a free chunk or mint a fresh one; charges the device."""
        if self._free_stack:
            cid = self._free_stack.pop()
            self._chunk_used[cid] = 0.0
            self._chunk_live[cid] = 0.0
            return cid
        if self.allocated_chunks >= self.max_chunks:
            raise LogFullError(f"log on {self.tier.value} is full")
        if self.device is not None:
            try:
                self.device.allocate(self.chunk_size)
            except CapacityError as err:
                raise LogFullError(str(err)) from None
        self._chunk_used.append(0.0)
        self._chunk_live.append(0.0)
        return self.allocated_chunks - 1

    def append(self, length: int, payload: Payload,
               payload_offset: int = 0) -> List[Tuple[float, int]]:
        """Append up to ``length`` bytes; returns [(physical_address, run_length)].

        Contiguous fresh chunks produce a single run; chunks reused from
        the free stack fragment the append.  The append is *partial* when
        the log (or its device) runs out of space: the returned runs sum
        to what actually landed here and the caller spills the remainder
        to the next layer (Fig. 2).  An already-full log returns ``[]``.
        """
        if length <= 0:
            raise ValueError(f"append length must be positive, got {length}")
        if self._chunk_used is _UNOPENED:
            self._open()
        runs: List[Tuple[float, int]] = []
        placed = 0
        while placed < length:
            if self._active is None:
                # Fast path: with no reusable chunks, a large append takes
                # a contiguous run of fresh chunks in one batch (a single
                # device charge and a single extent) instead of looping
                # chunk by chunk — O(1) per append instead of O(chunks).
                if not self._free_stack:
                    batch = self._take_fresh_batch(length - placed)
                    if batch is not None:
                        first, n_chunks = batch
                        take = int(min(length - placed,
                                       n_chunks * self.chunk_size))
                        addr = first * self.chunk_size
                        self._record_run(runs, addr, take, payload,
                                         payload_offset + placed)
                        placed += take
                        # Account per-chunk usage for the batch.
                        full, rem = divmod(take, int(self.chunk_size))
                        for i in range(n_chunks):
                            used = (self.chunk_size if i < full
                                    else (rem if i == full else 0.0))
                            self._chunk_used[first + i] = used
                            self._chunk_live[first + i] = used
                        last = first + n_chunks - 1
                        if self._chunk_used[last] < self.chunk_size:
                            self._active = last
                        continue
                try:
                    self._active = self._take_chunk()
                except LogFullError:
                    break
            used = self._chunk_used[self._active]
            space = self.chunk_size - used
            if space <= 0:
                self._active = None
                continue
            take = int(min(space, length - placed))
            addr = self._active * self.chunk_size + used
            self._record_run(runs, addr, take, payload,
                             payload_offset + placed)
            self._chunk_used[self._active] += take
            self._chunk_live[self._active] += take
            placed += take
            if self._chunk_used[self._active] >= self.chunk_size:
                self._active = None
        return runs

    def _record_run(self, runs: List[Tuple[float, int]], addr: float,
                    take: int, payload: Payload, payload_offset: int) -> None:
        """Write bytes and extend/append the physical run list."""
        if runs and runs[-1][0] + runs[-1][1] == addr:
            prev_addr, prev_len = runs[-1]
            runs[-1] = (prev_addr, prev_len + take)
        else:
            runs.append((addr, take))
        self._file.write_at(int(addr), take, payload, payload_offset)
        self.bytes_written += take
        self.bytes_live += take

    def _take_fresh_batch(self, nbytes: int) -> Optional[Tuple[int, int]]:
        """Allocate up to ceil(nbytes/chunk) fresh chunks contiguously.

        Returns (first_chunk_id, count) or ``None`` when no fresh chunk
        can be allocated (log bound or device pressure); partial batches
        are fine — the caller loops.
        """
        want = max(1, math.ceil(nbytes / self.chunk_size))
        if self.max_chunks != math.inf:
            want = min(want, int(self.max_chunks - self.allocated_chunks))
            if want <= 0:
                return None
        if self.device is not None:
            # Charge what the device can actually hold.
            can = int(self.device.available // self.chunk_size)
            want = min(want, can)
            if want <= 0:
                return None
            self.device.allocate(want * self.chunk_size)
        first = self.allocated_chunks
        self._chunk_used.extend([0.0] * want)
        self._chunk_live.extend([0.0] * want)
        return first, want

    def free_segment(self, physical_address: float, length: int) -> None:
        """Mark bytes dead; fully dead chunks go back on the free stack."""
        if length <= 0:
            return
        remaining = length
        addr = physical_address
        while remaining > 0:
            cid = int(addr // self.chunk_size)
            if cid >= self.allocated_chunks:
                raise ValueError(
                    f"free of unallocated chunk {cid} (address {addr})")
            in_chunk = min(remaining,
                           self.chunk_size - (addr - cid * self.chunk_size))
            self._chunk_live[cid] -= in_chunk
            self.bytes_live -= in_chunk
            if self._chunk_live[cid] < -1e-6:
                raise ValueError(f"chunk {cid} live bytes went negative")
            if (self._chunk_live[cid] <= 1e-6
                    and self._chunk_used[cid] >= self.chunk_size - 1e-6
                    and cid != self._active):
                # Chunk fully written and fully dead: reusable (§II-B1).
                if cid not in self._free_stack:
                    self._free_stack.append(cid)
            addr += in_chunk
            remaining -= in_chunk

    def read_runs(self, runs: Sequence[Tuple[float, int]]):
        """Materialise extents for physical runs (for the read service)."""
        out = []
        for addr, length in runs:
            out.extend(self._file.read_at(int(addr), int(length)))
        return out


class DHPWriter:
    """DHP for one (file, rank): logs across layers + spill logic."""

    __slots__ = ("rank", "vas", "logs", "_spill_level")

    def __init__(self, rank: int, vas: VirtualAddressSpace,
                 logs: Sequence[LogFile]):
        if len(logs) != vas.layers:
            raise ValueError("one log per VA layer required")
        for layer, log in enumerate(logs):
            if log.tier is not vas.tier_of_layer(layer):
                raise ValueError(
                    f"log {layer} tier {log.tier} != VA tier "
                    f"{vas.tier_of_layer(layer)}")
        self.rank = rank
        self.vas = vas
        self.logs = list(logs)
        #: Index of the shallowest layer that may still accept data; once
        #: a layer rejects an append the writer never returns to it (logs
        #: are append-only until chunks are freed).
        self._spill_level = 0

    def write(self, logical_offset: int, length: int, payload: Payload,
              payload_offset: int = 0) -> List[PlacedSegment]:
        """Place a logical write, spilling across layers as needed."""
        if length <= 0:
            raise ValueError(f"write length must be positive, got {length}")
        segments: List[PlacedSegment] = []
        placed = 0
        layer = self._spill_level
        while placed < length:
            if layer >= len(self.logs):
                raise LogFullError(
                    f"rank {self.rank}: data exhausted all "
                    f"{len(self.logs)} layers")
            log = self.logs[layer]
            if log.device is not None and not log.device.accepts_placement:
                # Failed or degraded tier: spill straight past it without
                # raising ``_spill_level`` — a transient brownout should
                # not permanently retire the layer (graceful degradation).
                layer += 1
                continue
            runs = log.append(length - placed, payload,
                              payload_offset + placed)
            for addr, run_len in runs:
                segments.append(PlacedSegment(
                    rank=self.rank,
                    logical_offset=logical_offset + placed,
                    length=run_len,
                    layer=layer,
                    tier=log.tier,
                    va=self.vas.va(layer, addr),
                    physical_address=addr,
                ))
                placed += run_len
            if placed < length:
                # This layer is out of space: spill downward (Fig. 2).
                layer += 1
                self._spill_level = max(self._spill_level, layer)
        return segments

    def free(self, segment: PlacedSegment) -> None:
        """Release a previously placed segment (overwrite/delete path)."""
        self.logs[segment.layer].free_segment(segment.physical_address,
                                              segment.length)

    def bytes_per_layer(self) -> List[float]:
        return [log.bytes_live for log in self.logs]
