"""Operation timing records and I/O-rate accounting.

The paper's metric (§III-A): *"We measured the time required to open,
write, read, and close a file.  We define I/O rate as the ratio of the
size of data read/written to the I/O time."*  :class:`Telemetry` collects
exactly those per-operation records from the drivers and computes the
aggregate rates the figures plot.

Aggregates are maintained **incrementally**: :meth:`Telemetry.record`
folds each record into running ``(time, bytes, count)`` sums for every
combination of ``(app, op, driver)`` wildcards, so :meth:`io_rate`,
:meth:`total_time` and :meth:`total_bytes` are O(1) dict hits for those
filters — they used to rescan the whole record list per call, inside the
experiment sweep loops.  ``path=`` / ``predicate=`` filters still scan.
Accumulation happens in record-arrival order, exactly the order the old
scans summed in, so the reported floats are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Engine

__all__ = ["OpRecord", "Telemetry"]

#: (time, bytes, count) of an empty selection.  Integer zeros, matching
#: what ``sum()`` over no records used to return.
_ZERO = (0, 0, 0)


@dataclass(frozen=True, slots=True)
class OpRecord:
    """One timed file operation."""

    app: str
    op: str        # "open" | "write" | "read" | "close" | "flush"
    path: str
    t_start: float
    t_end: float
    nbytes: float = 0.0
    driver: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class Telemetry:
    """Collects :class:`OpRecord` entries during a simulation run."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.records: List[OpRecord] = []
        # (app | None, op | None, driver | None) -> [time, bytes, count];
        # None is a wildcard, so the key a query builds from its filters
        # addresses its aggregate directly.
        self._aggregates: Dict[tuple, list] = {}
        #: Named event counters (``meta-batch``, ``meta-coalesce``, ...) — a
        #: side channel deliberately separate from the :class:`OpRecord`
        #: stream: counters track host-side fast-path activity and must
        #: not perturb the pinned record sequences the golden-digest
        #: tests hash.
        self.counters: Dict[str, float] = {}

    def incr(self, name: str, value: float = 1.0) -> None:
        """Bump a named counter (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def record(self, app: str, op: str, path: str, t_start: float,
               nbytes: float = 0.0, driver: str = "") -> OpRecord:
        """Close out an operation that started at ``t_start`` (ends now)."""
        rec = OpRecord(app=app, op=op, path=path, t_start=t_start,
                       t_end=self.engine.now, nbytes=nbytes, driver=driver)
        self.records.append(rec)
        duration = rec.t_end - t_start
        aggregates = self._aggregates
        for key in ((None, None, None), (app, None, None),
                    (None, op, None), (None, None, driver),
                    (app, op, None), (app, None, driver),
                    (None, op, driver), (app, op, driver)):
            entry = aggregates.get(key)
            if entry is None:
                aggregates[key] = [duration, nbytes, 1]
            else:
                entry[0] += duration
                entry[1] += nbytes
                entry[2] += 1
        return rec

    # -- selection ---------------------------------------------------------
    def select(self, app: Optional[str] = None, op: Optional[str] = None,
               path: Optional[str] = None, driver: Optional[str] = None,
               predicate: Optional[Callable[[OpRecord], bool]] = None
               ) -> List[OpRecord]:
        out = self.records
        if app is not None:
            out = [r for r in out if r.app == app]
        if op is not None:
            out = [r for r in out if r.op == op]
        if path is not None:
            out = [r for r in out if r.path == path]
        if driver is not None:
            out = [r for r in out if r.driver == driver]
        if predicate is not None:
            out = [r for r in out if predicate(r)]
        return list(out)

    # -- aggregates -----------------------------------------------------------
    def _aggregate(self, app=None, op=None, path=None, driver=None,
                   predicate=None) -> Optional[tuple]:
        """The (time, bytes, count) sums for a filter, or None if the
        filter needs a record scan (``path`` / ``predicate``)."""
        if path is not None or predicate is not None:
            return None
        return self._aggregates.get((app, op, driver), _ZERO)

    def total_time(self, **kw) -> float:
        agg = self._aggregate(**kw)
        if agg is not None:
            return agg[0]
        return sum(r.duration for r in self.select(**kw))

    def total_bytes(self, **kw) -> float:
        agg = self._aggregate(**kw)
        if agg is not None:
            return agg[1]
        return sum(r.nbytes for r in self.select(**kw))

    def io_rate(self, **kw) -> float:
        """Bytes moved / time spent, over the selected records (§III-A)."""
        time = self.total_time(**kw)
        if time <= 0:
            return 0.0
        return self.total_bytes(**kw) / time

    def op_counts(self) -> Dict[str, int]:
        return {key[1]: entry[2]
                for key, entry in self._aggregates.items()
                if key[0] is None and key[1] is not None and key[2] is None}

    def clear(self) -> None:
        self.records.clear()
        self._aggregates.clear()
        self.counters.clear()
