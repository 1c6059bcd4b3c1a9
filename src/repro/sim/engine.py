"""Deterministic discrete-event simulation engine.

The engine follows the classic process-interaction style popularised by
SimPy: simulation *processes* are Python generators that ``yield`` event
objects; the engine resumes a process when the event it is waiting for
triggers.  Simulated time only advances between events — the Python code
inside a process runs in zero simulated time.

Determinism guarantees
----------------------
Events scheduled for the same simulated time fire in the order they were
scheduled (FIFO, enforced by a sequence counter used as a total-order
tie-breaker).  Nothing in the kernel consults wall-clock time or global
random state, so a simulation is a pure function of its inputs.

Scheduler architecture (docs/MODEL.md §13)
------------------------------------------
Scheduling is a two-stage pipeline.  Every schedule operation appends to
a creation-ordered *pending* list; events are *flushed* into a binary
heap of ``(when, seq, event)`` triples only when the dispatch loop
actually needs an ordering decision.  The sequence tie-breaker is
assigned at flush time — the pending list is FIFO, so flush order equals
creation order and the dispatch order is bit-identical to the classic
schedule-time assignment, while events consumed before ever reaching the
heap pay no heap cost at all.

Three fast paths ride on that pipeline:

* *sole-pending bypass* — when the heap is empty and exactly one event
  is pending, the run loop dispatches it straight from the pending list;
* *direct handoff* — :meth:`Process._resume` dispatches a freshly
  scheduled sole-runnable event inline, without suspending back to the
  run loop;
* *Timeout free slot* — the handoff path recycles the consumed
  :class:`Timeout` through a one-slot free list when a refcount check
  proves no simulation code retained it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Engine",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, running without events, ...)."""


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not triggered" from "triggered with value None".
_PENDING = object()
_INF = float("inf")
# _run_until value outside run()/run_process(): direct handoff requires
# _when <= _run_until, so -inf disables it (step() must dispatch exactly
# one event per call).
_NEG_INF = float("-inf")


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it may be :meth:`succeed`-ed (with a value) or
    :meth:`fail`-ed (with an exception) exactly once.  Processes waiting on
    the event are resumed in FIFO order when it triggers.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "name",
                 "_when", "_seq")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self.name = name

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (or has fired)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Open-coded Engine._schedule: succeed() is the hottest trigger
        # path (every resource grant and transfer completion lands here).
        engine = self.engine
        self._when = engine._now
        engine._pending.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in each waiter."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        engine = self.engine
        self._when = engine._now
        engine._pending.append(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None,
                 name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Open-coded Event.__init__ + Engine._schedule: one Timeout per
        # modelled latency hop makes this the most-allocated event kind.
        self.engine = engine
        self.callbacks = []
        self._ok = True
        self._value = value
        self.name = name
        self.delay = delay
        self._when = engine._now + delay
        engine._pending.append(self)


_new_timeout = Timeout.__new__


class Initialize:
    """Internal bootstrap scheduled to make a new process take its first
    step.  Deliberately *not* an :class:`Event`: only the scheduler (pops
    it, runs its callback) and :meth:`Process._resume` (reads ``_ok`` /
    ``_value``) ever see it, so the successful outcome lives on the class
    and starting a process allocates one slot plus one list.
    """

    __slots__ = ("callbacks", "_when", "_seq")

    _ok = True
    _value = None

    def __init__(self, engine: "Engine", process: "Process"):
        self.callbacks = [process._resume]
        self._when = engine._now
        engine._pending.append(self)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process object is itself an event that triggers when the generator
    returns (value = the generator's return value) or raises (failure).
    Other processes may therefore ``yield`` a process to join it.
    """

    __slots__ = ("_generator", "_target", "_send", "_throw")

    def __init__(self, engine: "Engine", generator: Generator,
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(engine, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        # Bound methods cached once: _resume runs per yield, and the
        # attribute chain through the generator costs there.
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = Initialize(engine, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current sim time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise SimulationError("cannot interrupt a process being initialised")
        # Detach from whatever the process is waiting on, then resume it
        # with the interrupt on the next event boundary.
        event = Event(self.engine)
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume)
        if self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self.engine._schedule(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        engine = self.engine
        engine._active_process = self
        send = self._send
        pending = engine._pending
        heap = engine._heap
        until = engine._run_until
        refcount = getrefcount
        timeout_cls = Timeout
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                self._target = None
                engine._active_process = None
                self._value = stop.value
                self._when = engine._now
                pending.append(self)
                return
            except BaseException as err:
                self._target = None
                engine._active_process = None
                if engine.strict:
                    # With joiners the failure is delivered to them; with
                    # none it is recorded and re-raised by run() — crashing
                    # a process is a bug in simulation code either way.
                    self._ok = False
                    self._value = err
                    self._when = engine._now
                    pending.append(self)
                    if not self.callbacks:
                        engine._record_crash(self, err)
                    return
                raise

            try:
                cbs = next_event.callbacks
            except AttributeError:
                engine._active_process = None
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                ) from None
            if cbs is None:
                # Already processed: continue immediately with its outcome.
                event = next_event
                continue
            # Direct handoff: the event just yielded is the sole runnable
            # event in the whole engine (nothing in the heap, pending holds
            # exactly it, no other waiters) and fires within the run bound —
            # dispatch it inline instead of suspending back to the run loop.
            # This is exactly what the run loop would do next; determinism
            # is untouched.  The event consumed on the *previous* lap is
            # recycled through the engine's free slot when the refcount
            # proves nothing outside this frame still references it.
            if (not heap and not cbs and len(pending) == 1
                    and pending[0] is next_event
                    and next_event._when <= until):
                del pending[:]
                engine._now = next_event._when
                next_event.callbacks = None
                if event.__class__ is timeout_cls and refcount(event) == 2:
                    engine._free = event
                    engine._free_cbs = cbs
                event = next_event
                continue
            if next_event.engine is not engine:
                engine._active_process = None
                raise SimulationError("yielded an event from a different engine")
            cbs.append(self._resume)
            self._target = next_event
            engine._active_process = None
            return


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self.events = list(events)
        self._count = 0
        for ev in self.events:
            if ev.engine is not self.engine:
                raise SimulationError("condition mixes events from different engines")
        if not self.events:
            self._ok = True
            self._value = []
            engine._schedule(self)
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._on_event(ev)
            else:
                ev.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* component events have triggered.

    Value is the list of component values in the original order.  Fails as
    soon as any component fails.
    """

    __slots__ = ()

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Triggers when *any* component event triggers; value = (event, value)."""

    __slots__ = ()

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed((event, event._value))


class Engine:
    """The discrete-event scheduler.

    One binary heap in ``(time, seq)`` order, fed through a
    creation-ordered pending list; the sole-pending bypass, direct
    handoff and ``Timeout`` free slot (module docstring) skip the heap
    whenever only one event is runnable.

    Parameters
    ----------
    strict:
        When True (default), an uncaught exception inside a process fails the
        process event (joiners see it) and is re-raised by :meth:`run` if the
        crash was never observed.  When False the exception propagates
        immediately.
    """

    def __init__(self, strict: bool = True):
        self._now: float = 0.0
        self._seq: int = 0
        #: Creation-ordered staging list shared by every schedule path;
        #: flushed (seq assignment + heap insertion) lazily.  The list
        #: object is never rebound — hot paths alias it.
        self._pending: list = []
        self._heap: list = []
        # Single-slot Timeout free list fed by the direct-handoff path
        # (see Process._resume); _free_cbs is the matching empty
        # callbacks list so reuse allocates nothing.
        self._free: Optional[Timeout] = None
        self._free_cbs: Optional[list] = None
        self._active_process: Optional[Process] = None
        self._run_until: float = _NEG_INF
        self.strict = strict
        self._crashes: list = []
        # Monotonic id source usable by layers above (files, segments, ...).
        self._id_counter = 0

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def next_id(self) -> int:
        """Return a fresh engine-unique integer id."""
        self._id_counter += 1
        return self._id_counter

    # -- event construction ------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Reuse the free-slot Timeout when the handoff path proved the
        # previous one dead; otherwise build one without the class-call
        # overhead.  Both paths mirror Timeout.__init__ exactly.
        t = self._free
        if t is not None:
            self._free = None
            t.callbacks = self._free_cbs
            t._value = value
            t.name = name
            t.delay = delay
            t._when = self._now + delay
            self._pending.append(t)
            return t
        t = _new_timeout(Timeout)
        t.engine = self
        t.callbacks = []
        t._ok = True
        t._value = value
        t.name = name
        t.delay = delay
        t._when = self._now + delay
        self._pending.append(t)
        return t

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def call_later(self, delay: float, fn) -> Timeout:
        """Run ``fn(event)`` after ``delay`` simulated seconds.

        Sugar over a :class:`Timeout` plus a callback — the idiom the
        fault injector and the health monitor use to arm one-shot actions
        without spinning up a full process.
        """
        ev = Timeout(self, delay)
        ev.callbacks.append(fn)
        return ev

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        event._when = self._now + delay
        self._pending.append(event)

    def _flush(self) -> None:
        """Move pending events into the heap, assigning the sequence
        tie-breaker in creation order (the pending list is FIFO, so this
        yields the same total order as schedule-time seqs)."""
        pending = self._pending
        seq = self._seq
        heap = self._heap
        for e in pending:
            seq += 1
            e._seq = seq
            heappush(heap, (e._when, seq, e))
        self._seq = seq
        del pending[:]

    def _record_crash(self, process: Process, err: BaseException) -> None:
        self._crashes.append((process, err))

    # -- the loop ------------------------------------------------------------
    # ``run``/``run_process`` open-code the pop-and-dispatch of ``step``
    # with the queue bound to a local: the loop body runs once per event
    # and the method-call + attribute overhead dominates kernel cost.
    # Dispatch order is exactly step()'s, so determinism is unaffected.

    def step(self) -> None:
        """Process the single next event."""
        if self._pending:
            self._flush()
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _seq, event = heappop(self._heap)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        if callbacks:
            if len(callbacks) == 1:
                # Single waiter is the overwhelmingly common case.
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)

    def peek(self) -> float:
        """Simulated time of the next event, or ``inf`` if none."""
        if self._pending:
            self._flush()
        return self._heap[0][0] if self._heap else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError(f"until={until} lies in the past (now={self._now})")
        bound = _INF if until is None else until
        pending = self._pending
        heap = self._heap
        pop = heappop
        self._run_until = bound
        try:
            while True:
                if pending:
                    if len(pending) == 1 and not heap:
                        event = pending[0]
                        if event._when > bound:
                            break
                        del pending[:]
                    else:
                        self._flush()
                        if heap[0][0] > bound:
                            break
                        _w, _s, event = pop(heap)
                elif heap:
                    if heap[0][0] > bound:
                        break
                    _w, _s, event = pop(heap)
                else:
                    break
                self._now = event._when
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
        finally:
            self._run_until = _NEG_INF
        if until is not None:
            self._now = until
        self._raise_unobserved_crash()

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn ``generator``, run to completion, return value."""
        proc = self.process(generator, name=name)
        pending = self._pending
        heap = self._heap
        pop = heappop
        self._run_until = _INF
        try:
            while proc._value is _PENDING:
                if pending:
                    if len(pending) == 1 and not heap:
                        event = pending.pop()
                    else:
                        self._flush()
                        _w, _s, event = pop(heap)
                elif heap:
                    _w, _s, event = pop(heap)
                else:
                    raise SimulationError(
                        f"deadlock: process {proc.name!r} is blocked "
                        f"and no events remain")
                self._now = event._when
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
        finally:
            self._run_until = _NEG_INF
        self._raise_unobserved_crash()
        if not proc._ok:
            raise proc._value
        return proc._value

    def _raise_unobserved_crash(self) -> None:
        for process, err in self._crashes:
            # A crash observed by a joiner has processed callbacks and a
            # non-ok outcome that someone consumed; we cannot reliably know
            # consumption, so re-raise the first crash always: crashing a
            # process is a bug in simulation code, not a modelling outcome.
            self._crashes = []
            raise err
