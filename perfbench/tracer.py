"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions named in :mod:`layers` from the
outside: the simulator's own files are not edited.  Every call opens a
span ``[name, start, end, parent]`` on the host clock; spans nest through
the Python call stack, so the span open when another one starts is its
parent.  Spans stay in memory and are folded into per-name stats (and
optionally written out as a Chrome trace) when a pass ends.

Generator functions (``File.write_at_all``, ``ReadService.read_collective``,
``WorkflowManager.acquire_*``, ...) only build a generator when called, so
the tracer wraps the generator itself: every resume is one span, so host
time sums over all resumes, and ``sim_s`` is ``engine.now`` at return
minus ``engine.now`` at the first resume.  The wrappers hand return
values, yielded events, thrown-in and raised exceptions through
unchanged, and never touch the engine, so a traced run simulates exactly
what an untraced one does.

The wrappers also keep the engine on the path an untraced run takes.
The engine recycles a consumed ``Timeout`` only when nothing else refers
to it, so the tracer never keeps one: a returned ``Timeout``'s trigger
time is read when it is returned.  (A suspended generator wrapper holds
only the event its process waits on, and lets go of it on the resume
that yields the next one, before the engine checks.)  Processes and
plain events, which the engine never recycles, are kept until the pass
ends and read then.  No callback is added to any event, since a
waiter-free event is what lets the engine dispatch it inline.

Functions imported by name into other modules (``placement_efficiency``)
are replaced everywhere they are bound, so every lookup sees the wrapper.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional

from layers import EVENT_FACTORIES, PROBES, Probe

__all__ = ["Tracer", "self_times", "chrome_trace"]

# Slots of a per-name stat record.
_CALLS, _SIM, _BYTES, _COUNT = range(4)


def self_times(spans: List[list]) -> List[float]:
    """Self time of each span: its duration minus the part its direct
    children cover.  Children run inside their parent on one thread and
    one after another, so the part they cover is the sum of their
    durations."""
    covered = [0.0] * len(spans)
    for _name, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [t1 - t0 - covered[i] for i, (_n, t0, t1, _p) in enumerate(spans)]


def chrome_trace(spans: List[list], limit: Optional[int] = None) -> dict:
    """The first ``limit`` spans (all by default) as Chrome trace-event
    JSON (chrome://tracing, Perfetto)."""
    base = spans[0][1] if spans else 0.0
    return {"traceEvents": [
        {"name": name, "ph": "X", "pid": 1, "tid": 1,
         "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
         "args": {"id": i, "parent": parent}}
        for i, (name, t0, t1, parent) in enumerate(spans[:limit])],
        "otherData": {"spans": len(spans)}}


class Tracer:
    """Spans and per-name counters for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index or -1]`` per span, this pass.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: name -> [calls, sim_s, bytes, count]
        self._stats: Dict[str, list] = {}
        #: (stat record, events, latest ``Timeout`` time or None,
        #: engine.now at call) awaiting the events' trigger time; the
        #: events are never a ``Timeout`` (see the module doc).
        self._pending: List[tuple] = []
        #: Processes and events started inside the open call of a
        #: ``spawns`` probe, or None outside one.
        self._spawned: Optional[list] = None
        #: The engine whose clock ``sim_s`` reads: the latest one built.
        self.engine = None
        self.events = 0
        self._event_type: Optional[type] = None
        self._timeout_type: Optional[type] = None
        self._restore: List[tuple] = []

    # -- clocks -------------------------------------------------------------
    def now(self) -> float:
        return self.engine.now if self.engine is not None else 0.0

    def stat(self, name: str) -> list:
        record = self._stats.get(name)
        if record is None:
            record = self._stats[name] = [0, 0.0, 0.0, 0.0]
        return record

    # -- wrappers -----------------------------------------------------------
    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        """A traced stand-in for ``fn``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator_function(probe.name, fn)
        return self._wrap_function(probe, fn)

    def _wrap_generator_function(self, name: str, fn: Callable) -> Callable:
        record = self.stat(name)
        trace = self._traced_generator

        def traced(*args, **kwargs):
            record[_CALLS] += 1
            return trace(name, fn(*args, **kwargs), record)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _traced_generator(self, name: str, gen, record: list):
        """Drive ``gen`` one resume at a time, one span per resume."""
        wrapper = self._drive(name, gen, record)
        wrapper.__name__ = gen.__name__
        wrapper.__qualname__ = gen.__qualname__
        return wrapper

    def _drive(self, name: str, gen, record: list):
        spans, stack, clock = self.spans, self._stack, self.clock
        send, throw = gen.send, gen.throw
        started = None
        value = None
        error = None
        while True:
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            if started is None:
                started = self.now()
            try:
                if error is None:
                    out = send(value)
                else:
                    out = throw(error)
            except StopIteration as stop:
                spans[idx][2] = clock()
                stack.pop()
                record[_SIM] += self.now() - started
                return stop.value
            except BaseException:
                spans[idx][2] = clock()
                stack.pop()
                record[_SIM] += self.now() - started
                raise
            spans[idx][2] = clock()
            stack.pop()
            error = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # delivered into ``gen`` next lap
                error = err
                value = None

    def _wrap_function(self, probe: Probe, fn: Callable) -> Callable:
        name = probe.name
        record = self.stat(name)
        spans, stack, clock = self.spans, self._stack, self.clock
        nbytes = probe.nbytes
        count = probe.count[1] if probe.count else None
        sim_cost = probe.sim_cost
        track_event = "sim_s" in probe.stats and sim_cost is None
        spawns = probe.spawns
        timed = spawns or track_event
        tracer = self

        def traced(*args, **kwargs):
            record[_CALLS] += 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            called_at = tracer.now() if timed else 0.0
            if spawns:
                outer, tracer._spawned = tracer._spawned, []
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                if spawns:
                    started, tracer._spawned = tracer._spawned, outer
            if nbytes is not None:
                record[_BYTES] += nbytes(args, kwargs, result)
            if count is not None:
                record[_COUNT] += count(args, kwargs, result)
            if sim_cost is not None:
                record[_SIM] += sim_cost(args, kwargs, result)
            elif spawns:
                tracer._await(record, started, called_at)
            elif track_event and isinstance(result, tracer._event_type):
                tracer._await(record, [result], called_at)
                if tracer._spawned is not None:
                    tracer._spawned.append(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _await(self, record: list, events: list, called_at: float) -> None:
        """Add to ``record``'s ``sim_s`` the time from ``called_at`` until
        the last of ``events`` triggers.  A ``Timeout``'s time is fixed,
        so it is read now; the other events are read when the pass ends."""
        latest = None
        held = []
        for event in events:
            if event.__class__ is self._timeout_type:
                latest = event._when if latest is None else max(latest,
                                                                 event._when)
            else:
                held.append(event)
        self._pending.append((record, held, latest, called_at))

    # -- installation -------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every probe's function and the engine's event factories."""
        from repro.sim.engine import Engine, Event, Timeout

        self._event_type = Event
        self._timeout_type = Timeout
        for probe in PROBES:
            module = importlib.import_module("repro." + probe.module)
            owner_name, _, attr = probe.qualname.rpartition(".")
            if owner_name:
                self._patch_methods(getattr(module, owner_name), attr, probe)
            else:
                self._patch_function(getattr(module, attr), probe)
        self._patch_engine(Engine)
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_methods(self, cls: type, attr: str, probe: Probe) -> None:
        """Wrap ``cls.attr`` and every subclass override of it."""
        todo = [cls]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(klass, attr,
                          classmethod(self.wrap(probe, raw.__func__)))
            else:
                self._set(klass, attr, self.wrap(probe, raw))

    def _patch_function(self, fn: Callable, probe: Probe) -> None:
        """Replace ``fn`` in every ``repro`` module that binds it."""
        traced = self.wrap(probe, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def _patch_engine(self, engine_cls: type) -> None:
        tracer = self
        init = engine_cls.__init__

        def traced_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            tracer.engine = engine

        self._set(engine_cls, "__init__", traced_init)
        for attr in EVENT_FACTORIES:
            self._set(engine_cls, attr,
                      self._counting(engine_cls.__dict__[attr],
                                     spawn=attr == "process"))

    def _counting(self, fn: Callable, spawn: bool) -> Callable:
        """``fn`` counting the events it creates; a ``spawn`` factory's
        events are also the work started inside a ``spawns`` probe."""
        tracer = self

        def counted(*args, **kwargs):
            tracer.events += 1
            event = fn(*args, **kwargs)
            if spawn and tracer._spawned is not None:
                tracer._spawned.append(event)
            return event

        counted.__wrapped__ = fn
        return counted

    # -- per-pass results ---------------------------------------------------
    def settle(self) -> None:
        """Add the ``sim_s`` of calls whose events have triggered since."""
        for record, events, latest, called_at in self._pending:
            fired = [event._when for event in events if event.processed]
            if latest is not None:
                fired.append(latest)
            if fired:
                record[_SIM] += max(fired) - called_at
        self._pending.clear()

    def fold(self) -> dict:
        """This pass's stats by metric name, then a reset for the next.

        Returns ``{"metrics": {...}, "counts": {...}, "spans": [...]}``:
        ``metrics`` holds each probe stat, ``counts`` the raw per-name
        counts behind the derived ratios, and ``spans`` this pass's spans.
        """
        self.settle()
        host: Dict[str, float] = {}
        for (name, _t0, _t1, _p), own in zip(self.spans,
                                             self_times(self.spans)):
            host[name] = host.get(name, 0.0) + own
        metrics: Dict[str, float] = {}
        counts: Dict[str, float] = {"sim.engine.Engine": self.events}
        for probe in PROBES:
            record = self.stat(probe.name)
            values = {"calls": record[_CALLS], "sim_s": record[_SIM],
                      "bytes": record[_BYTES],
                      "host_self_s": host.get(probe.name, 0.0)}
            for stat in probe.stats:
                metrics[f"{probe.name}.{stat}"] = values[stat]
            if probe.count is not None:
                counts[f"{probe.name}.{probe.count[0]}"] = record[_COUNT]
            record[:] = [0, 0.0, 0.0, 0.0]
        spans = list(self.spans)
        self.spans.clear()
        self.events = 0
        return {"metrics": metrics, "counts": counts, "spans": spans}
