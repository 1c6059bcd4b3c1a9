"""File contents as extent maps over symbolic payloads.

The evaluation writes up to ``8192 procs x 256 MiB x 10 steps`` = 20 TiB of
data; holding real bytes is impossible, but the reproduction must still
*verify* that every read returns exactly what was written (that is the whole
point of UniviStor's addressing machinery).  The trick: data is described by
**payloads** — lazily sliceable content sources:

* :class:`BytesPayload` — literal bytes (for tests and metadata regions),
* :class:`PatternPayload` — a deterministic synthetic stream identified by a
  seed (what the VPIC/BD-CATS workload generators emit),
* :class:`ZeroPayload` — holes.

An :class:`ExtentMap` maps file offsets to payload slices with full
overwrite semantics.  Two maps describe identical bytes iff their
normalised extent lists are equal — and for small sizes the map can be
materialised to actual bytes to cross-check that claim.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "Payload",
    "BytesPayload",
    "CorruptPayload",
    "PatternPayload",
    "ZeroPayload",
    "Extent",
    "ExtentMap",
]


class Payload:
    """Abstract content source addressed by a non-negative byte offset."""

    __slots__ = ()

    def materialize(self, start: int, length: int) -> bytes:
        """Return the literal bytes of ``[start, start + length)``."""
        raise NotImplementedError

    def same_source(self, other: "Payload") -> bool:
        """True if ``self`` and ``other`` are the same byte stream."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class BytesPayload(Payload):
    """Literal byte content (small data: metadata regions, test payloads)."""

    data: bytes

    def materialize(self, start: int, length: int) -> bytes:
        if start < 0 or start + length > len(self.data):
            raise IndexError(
                f"slice [{start}, {start + length}) outside payload of "
                f"{len(self.data)} bytes")
        return self.data[start:start + length]

    def same_source(self, other: Payload) -> bool:
        return isinstance(other, BytesPayload) and self.data == other.data

    def describe(self) -> str:
        return f"bytes[{len(self.data)}]"


@dataclass(frozen=True, slots=True)
class PatternPayload(Payload):
    """A deterministic infinite byte stream identified by ``seed``.

    Byte ``i`` of stream ``s`` is ``sha``-free and vectorised:
    ``(i * 2654435761 + s * 40503 + (i >> 8)) & 0xFF`` — cheap, stable
    across runs, and differing seeds disagree almost everywhere, so payload
    mix-ups are caught by materialised comparisons in tests.
    """

    seed: int

    def materialize(self, start: int, length: int) -> bytes:
        if start < 0:
            raise IndexError(f"negative payload offset {start}")
        idx = np.arange(start, start + length, dtype=np.uint64)
        vals = (idx * np.uint64(2654435761)
                + np.uint64(self.seed * 40503)
                + (idx >> np.uint64(8)))
        return (vals & np.uint64(0xFF)).astype(np.uint8).tobytes()

    def same_source(self, other: Payload) -> bool:
        return isinstance(other, PatternPayload) and self.seed == other.seed

    def describe(self) -> str:
        return f"pattern[{self.seed}]"


@dataclass(frozen=True, slots=True)
class CorruptPayload(Payload):
    """Bit-rotted content: bytes whose stored checksum no longer matches.

    Injected by the ``data-corrupt`` fault (via :meth:`SimFile.corrupt_at`)
    in place of whatever payload previously covered the range.  The
    simulation models checksum verification as payload provenance: a clean
    copy still carries its original payload, a rotted one carries a
    ``CorruptPayload``, so "verify the checksum" is "is any piece of this
    range corrupt?".  Materialisation is deterministic garbage derived from
    ``token`` (the corruption event id), so even a run that *fails* to
    detect rot stays bit-reproducible.
    """

    token: int

    def materialize(self, start: int, length: int) -> bytes:
        if start < 0:
            raise IndexError(f"negative payload offset {start}")
        idx = np.arange(start, start + length, dtype=np.uint64)
        vals = (idx * np.uint64(2246822519)
                + np.uint64(self.token * 65599) + np.uint64(0xB17F))
        return (vals & np.uint64(0xFF)).astype(np.uint8).tobytes()

    def same_source(self, other: Payload) -> bool:
        return isinstance(other, CorruptPayload) and self.token == other.token

    def describe(self) -> str:
        return f"corrupt[{self.token}]"


class ZeroPayload(Payload):
    """All zeros — unwritten holes read as zeros, like POSIX."""

    __slots__ = ()
    _instance: Optional["ZeroPayload"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def materialize(self, start: int, length: int) -> bytes:
        if start < 0:
            raise IndexError(f"negative payload offset {start}")
        return bytes(length)

    def same_source(self, other: Payload) -> bool:
        return isinstance(other, ZeroPayload)

    def describe(self) -> str:
        return "zeros"


@dataclass(frozen=True, slots=True)
class Extent:
    """``length`` bytes at file ``offset`` drawn from ``payload`` at
    ``payload_offset``."""

    offset: int
    length: int
    payload: Payload
    payload_offset: int = 0

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"negative extent offset {self.offset}")
        if self.length <= 0:
            raise ValueError(f"non-positive extent length {self.length}")
        if self.payload_offset < 0:
            raise ValueError(f"negative payload offset {self.payload_offset}")

    @property
    def end(self) -> int:
        return self.offset + self.length

    def slice(self, start: int, end: int) -> "Extent":
        """Sub-extent covering file range [start, end) ⊆ [offset, end)."""
        if not (self.offset <= start < end <= self.end):
            raise ValueError(
                f"slice [{start}, {end}) outside extent [{self.offset}, {self.end})")
        return Extent(start, end - start, self.payload,
                      self.payload_offset + (start - self.offset))

    def materialize(self) -> bytes:
        return self.payload.materialize(self.payload_offset, self.length)

    def matches(self, other: "Extent") -> bool:
        """Same file range and identical content source/alignment."""
        return (self.offset == other.offset
                and self.length == other.length
                and self.payload_offset == other.payload_offset
                and self.payload.same_source(other.payload))

    def abuts(self, other: "Extent") -> bool:
        """True if ``other`` directly continues ``self`` in file and payload."""
        return (other.offset == self.end
                and other.payload.same_source(self.payload)
                and other.payload_offset == self.payload_offset + self.length)


class ExtentMap:
    """An ordered, non-overlapping set of extents with overwrite semantics.

    The invariant (checked by :meth:`check_invariants` and property tests):
    extents are sorted by offset, never overlap, and adjacent extents from
    the same payload stream are merged.
    """

    __slots__ = ("_starts", "_extents")

    def __init__(self):
        self._starts: List[int] = []
        self._extents: List[Extent] = []

    # -- queries ---------------------------------------------------------
    @property
    def extents(self) -> List[Extent]:
        return list(self._extents)

    @property
    def size(self) -> int:
        """One past the last written byte (0 if empty)."""
        return self._extents[-1].end if self._extents else 0

    @property
    def bytes_stored(self) -> int:
        return sum(e.length for e in self._extents)

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    # -- mutation ----------------------------------------------------------
    def write(self, offset: int, length: int, payload: Payload,
              payload_offset: int = 0) -> None:
        """Overwrite file range [offset, offset+length) with payload bytes."""
        if length == 0:
            return
        new = Extent(offset, length, payload, payload_offset)
        lo = bisect.bisect_left(self._starts, new.offset)
        # Step back to an extent that may overlap from the left.
        if lo > 0 and self._extents[lo - 1].end > new.offset:
            lo -= 1
        hi = lo
        keep_left: Optional[Extent] = None
        keep_right: Optional[Extent] = None
        while hi < len(self._extents) and self._extents[hi].offset < new.end:
            ext = self._extents[hi]
            if ext.offset < new.offset:
                keep_left = ext.slice(ext.offset, new.offset)
            if ext.end > new.end:
                keep_right = ext.slice(new.end, ext.end)
            hi += 1
        replacement = []
        if keep_left is not None:
            replacement.append(keep_left)
        replacement.append(new)
        if keep_right is not None:
            replacement.append(keep_right)
        self._extents[lo:hi] = replacement
        self._starts[lo:hi] = [e.offset for e in replacement]
        self._merge_around(lo, lo + len(replacement))

    def _merge_around(self, lo: int, hi: int) -> None:
        """Coalesce continuation extents in the window [lo-1, hi+1)."""
        i = max(0, lo - 1)
        while i + 1 < len(self._extents) and i < hi + 1:
            a, b = self._extents[i], self._extents[i + 1]
            if a.abuts(b):
                merged = Extent(a.offset, a.length + b.length, a.payload,
                                a.payload_offset)
                self._extents[i:i + 2] = [merged]
                self._starts[i:i + 2] = [merged.offset]
                hi -= 1
            else:
                i += 1

    # -- reading ---------------------------------------------------------
    def read(self, offset: int, length: int) -> List[Extent]:
        """Extents covering [offset, offset+length); holes become zeros."""
        if offset < 0:
            raise ValueError(f"negative read offset {offset}")
        if length == 0:
            return []
        end = offset + length
        out: List[Extent] = []
        cursor = offset
        starts = self._starts
        extents = self._extents
        lo = bisect.bisect_left(starts, offset)
        if lo > 0 and extents[lo - 1].end > offset:
            lo -= 1
        # Upper bound by bisect: iterating a tail *slice* copied the
        # whole remainder of the extent list on every read.
        hi = bisect.bisect_left(starts, end, lo)
        for i in range(lo, hi):
            ext = extents[i]
            ext_end = ext.offset + ext.length
            if ext_end <= cursor:
                continue
            if ext.offset > cursor:
                out.append(Extent(cursor, ext.offset - cursor, ZeroPayload()))
                cursor = ext.offset
            if cursor <= ext.offset and ext_end <= end:
                # Fully-covered extent: share the frozen object instead
                # of allocating an identical copy.
                piece = ext
            else:
                piece = ext.slice(max(ext.offset, cursor), min(ext_end, end))
            out.append(piece)
            cursor = piece.offset + piece.length
        if cursor < end:
            out.append(Extent(cursor, end - cursor, ZeroPayload()))
        # Coalesce continuation pieces so reads are provenance-normalised
        # (two zero holes, or two chunks of one payload stream, compare
        # equal regardless of how the writes were fragmented).
        merged: List[Extent] = []
        for piece in out:
            if merged and (merged[-1].abuts(piece)
                           or (isinstance(piece.payload, ZeroPayload)
                               and isinstance(merged[-1].payload, ZeroPayload)
                               and merged[-1].end == piece.offset)):
                prev = merged.pop()
                merged.append(Extent(prev.offset, prev.length + piece.length,
                                     prev.payload, prev.payload_offset))
            else:
                merged.append(piece)
        return merged

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Materialise a read (test-sized data only)."""
        return b"".join(e.materialize() for e in self.read(offset, length))

    # -- verification ------------------------------------------------------
    def same_content(self, other: "ExtentMap", offset: int, length: int) -> bool:
        """True if both maps describe identical bytes over the range."""
        mine = _normalise(self.read(offset, length))
        theirs = _normalise(other.read(offset, length))
        return mine == theirs

    def check_invariants(self) -> None:
        """Raise AssertionError if internal invariants are violated."""
        assert self._starts == [e.offset for e in self._extents], \
            "starts index out of sync"
        for a, b in zip(self._extents, self._extents[1:]):
            assert a.end <= b.offset, f"overlap: {a} / {b}"
            assert not a.abuts(b), f"unmerged continuation: {a} / {b}"

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return ", ".join(
            f"[{e.offset}+{e.length})<-{e.payload.describe()}@{e.payload_offset}"
            for e in self._extents) or "<empty>"


def _key(ext: Extent) -> Tuple[int, int, str, int]:
    return (ext.offset, ext.length, ext.payload.describe(), ext.payload_offset)


def _normalise(extents: List[Extent]) -> List[Tuple[int, int, str, int]]:
    return [_key(e) for e in extents]
