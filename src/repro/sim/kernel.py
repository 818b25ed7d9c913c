"""Deterministic discrete-event simulation kernel.

A small, self-contained process-based DES kernel in the style of SimPy,
built from scratch for this reproduction.  Simulation *processes* are
Python generators that ``yield`` :class:`Event` objects, or a plain
``float`` / ``int`` delay to sleep; the kernel resumes a process when
the event it waits on fires or the sleep ends.  Event ordering is
fully deterministic: ties in time are broken by priority and then by a
monotonically increasing event id, so a given seed always produces the
same trajectory.

Dispatch costs one Python call per wake-up: a waiting process
registers its bound ``_resume`` on the event (no closure per wait), a
yielded delay is a pooled timer that ``_resume`` pushes itself (no
:class:`Timeout` built), and :attr:`Environment.now` is a plain slot.
:meth:`Environment.timeout` is for a timer that is composed (an
``any_of`` deadline), carries a value, or takes callbacks.  Work that
needs no generator — run a function when a timer fires — hangs a
callback on a :class:`Timeout` (or :meth:`Environment.call_later`)
instead of starting a :class:`Process`;
:meth:`repro.shop.protocol.Transport.gather` runs a whole bid round
that way, and puts the round's one event on the queue at the instant
its last answer lands (:meth:`Environment.schedule_at`) instead of a
timer per answer.  A process that yields a generator makes a
sub-call: it runs on the process's stack, and a wake-up resumes only
the innermost generator.

Typical usage::

    env = Environment()

    def nap(delay):
        yield delay  # sleep: a bare number, no timer object
        return delay

    def worker(env):
        slept = yield nap(3.0)  # sub-call: ``slept`` is its value
        return f"done after {slept}"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 3.0 and proc.value == "done after 3.0"
"""

from __future__ import annotations

import heapq
from types import GeneratorType as _GeneratorType
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Environment",
]

#: Default priority for ordinary events.
PRIORITY_NORMAL = 1
#: Priority used for urgent bookkeeping events (process resumption).
PRIORITY_URGENT = 0


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, running a dead process)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* when :meth:`succeed`
    or :meth:`fail` schedules it, and *processed* once the kernel has
    invoked its callbacks.  Each event may be triggered exactly once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: True once failure has been delivered to at least one waiter.
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fire as a failure carrying ``exception``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        if event._ok is None:
            raise SimulationError("source event not triggered")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._ok is None
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self.defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        env._eid = eid = env._eid + 1
        _heappush(env._queue, (env.now + delay, PRIORITY_NORMAL, eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class _PooledTimeout(Event):
    """A recycled timer event for :meth:`Environment.call_later` and a
    process's yielded delay.

    Never handed to user code: its last callback is the ``append`` of
    the environment's free list, so hot timer paths (e.g.
    :class:`~repro.sim.network.FairShareLink` completion timers, every
    hypervisor stage) stop allocating one event per re-arm.  It has no
    ``env`` to point back.
    """

    __slots__ = ("delay",)

    def __init__(self) -> None:
        self.callbacks = None
        self.defused = False
        self.delay = 0.0
        self._ok = True
        self._value = None

    def __repr__(self) -> str:
        return f"<_PooledTimeout delay={self.delay}>"


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        env.schedule(self, priority=PRIORITY_URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that fires when the generator
    returns (value = the generator's return value) or raises (failure
    carrying the exception).

    ``_target`` is the one event whose firing may advance the
    generator: the :class:`Initialize` that starts it, the pending
    event it yielded (or the urgent stand-in scheduled for an already
    processed one), the pooled timer of a delay it yielded, or the
    event carrying an :class:`Interrupt`.  It is
    ``None`` while the generator runs and once it has terminated.
    ``_resume`` is registered on events as the bound method itself —
    one Python call per wake-up — and drops any call whose event is
    not ``_target``: a wake-up an interrupt superseded while that
    event was already firing, or one that outlived the process.

    ``_stack`` holds the generators, outermost first.  A yielded
    generator is a sub-call: pushed and started, then popped with its
    value sent (or exception thrown) into its caller.  ``x = yield
    sub()`` means ``x = yield from sub()``, but a wake-up (or an
    interrupt) reaches only the top generator.  ``_stack`` is dropped
    the moment the process ends: whoever still holds a finished
    process (a waiter, a list of requests) does not keep the
    generators' frames and locals alive with it.

    A yielded ``float`` or ``int`` (exactly: not a ``bool``, not a
    subclass) is a sleep of that many time units, keyed on the heap as
    ``Timeout`` keys it; a negative one is thrown back into the
    generator as :class:`ValueError`, at its ``yield``.
    """

    __slots__ = ("_stack", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._stack: Optional[List[Generator]] = [generator]
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a terminated process is an error; interrupting a
        process that is waiting on an event detaches it from that
        event.  A process that has not taken its first step yet takes
        it, and meets the interrupt at its first ``yield``, at the same
        simulated instant.  Of several interrupts issued before one is
        delivered, the last wins.
        """
        if self._ok is not None:
            raise SimulationError("cannot interrupt a terminated process")
        target = self._target
        if target is None:
            raise SimulationError("a process cannot interrupt itself")
        if type(target) is Initialize:

            def deliver(_event: Event) -> None:
                if self._ok is None:
                    self.interrupt(cause)

            target.callbacks.append(deliver)
            return
        waiters = target.callbacks
        if waiters is not None:
            # Detach: the event's later firing must not wake us, but a
            # failure we were the one waiting for stays observed.
            waiters[waiters.index(self._resume)] = _defuse
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev.defused = True
        interrupt_ev.callbacks = [self._resume]
        self._target = interrupt_ev
        self.env.schedule(interrupt_ev, priority=PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the top generator with the outcome of ``event``."""
        if event is not self._target:
            # Stale wake-up: superseded by an interrupt while ``event``
            # was firing, or the process has terminated.
            if not event._ok:
                event.defused = True
            return
        env = self.env
        self._target = None
        stack = self._stack
        generator = stack[-1]
        ok = event._ok
        value = event._value
        if not ok:
            event.defused = True
        while True:
            try:
                if ok:
                    next_ev = generator.send(value)
                else:
                    next_ev = generator.throw(value)
            except StopIteration as stop:
                stack.pop()
                if stack:
                    generator, ok, value = stack[-1], True, stop.value
                    continue
                self._stack = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                stack.pop()
                # Minus this frame: it holds the process, which is about
                # to hold the exception, which holds its traceback.
                value = exc.with_traceback(exc.__traceback__.tb_next)
                if stack:
                    generator, ok = stack[-1], False
                    continue
                self._stack = None
                self.fail(value)
                return
            kind = type(next_ev)
            if kind is float or kind is int:
                # A delay: ``call_later`` inlined, this process the
                # callback.  Same heap key as a ``Timeout``.
                if next_ev < 0:
                    ok, value = False, ValueError(f"negative delay {next_ev}")
                    continue
                pool = env._timeout_pool
                timer = pool.pop() if pool else _PooledTimeout()
                timer.delay = next_ev
                timer.callbacks = [self._resume, pool.append]
                self._target = timer
                env._eid = eid = env._eid + 1
                _heappush(
                    env._queue,
                    (env.now + next_ev, PRIORITY_NORMAL, eid, timer),
                )
                return
            if isinstance(next_ev, Event):
                break
            if kind is not _GeneratorType:
                # Ill-typed yield: kill the process with a clear error.
                return self._kill(f"process yielded non-event {next_ev!r}")
            stack.append(next_ev)
            generator, ok, value = next_ev, True, None

        if next_ev.env is not env:
            return self._kill("event from a different environment")

        if next_ev.callbacks is not None:
            # Pending: register for resumption when it fires.
            self._target = next_ev
            next_ev.callbacks.append(self._resume)
        else:
            # Already processed: resume immediately at the current time.
            resume_ev = Event(env)
            resume_ev._ok = next_ev._ok
            resume_ev._value = next_ev._value
            if not next_ev._ok:
                next_ev.defused = True
                resume_ev.defused = True
            resume_ev.callbacks = [self._resume]
            self._target = resume_ev
            env.schedule(resume_ev, priority=PRIORITY_URGENT)

    def _kill(self, message: str) -> None:
        """Close every generator, innermost first, and fail the process."""
        stack, self._stack = self._stack, None
        try:
            while stack:
                stack.pop().close()
        finally:
            self.fail(SimulationError(message))

    def __repr__(self) -> str:
        if self._stack is None:
            return "<Process dead>"
        name = getattr(self._stack[0], "__name__", "process")
        state = "alive" if self._ok is None else "dead"
        return f"<Process {name} {state}>"


class _Condition(Event):
    """Base for AllOf/AnyOf composition events.

    Once decided, a condition swaps itself for :func:`_defuse` on the
    children still pending (one pass over each one's waiters): a
    decided ``AnyOf(ack, deadline)`` goes with its waiter, not when
    the timer pops.
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: Tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("event from a different environment")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(
                    self._check if self._ok is None else _defuse
                )

    def _satisfied(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        else:
            self._count += 1
            if not self._satisfied(self._count, len(self.events)):
                return
            self.succeed(self._collect())
        check = self._check
        for ev in self.events:
            waiters = ev.callbacks
            if waiters is not None:
                try:
                    waiters[waiters.index(check)] = _defuse
                except ValueError:
                    pass  # decided in __init__, before this child's turn

    def _collect(self) -> dict:
        # Only events whose callbacks already ran count as "fired":
        # a Timeout pre-sets its ok flag at creation, so .triggered
        # alone would leak not-yet-elapsed timeouts into the result.
        return {
            ev: ev._value
            for ev in self.events
            if ev.processed and ev._ok
        }


class AllOf(_Condition):
    """Fires when *all* component events have fired successfully."""

    __slots__ = ()

    def _satisfied(self, count: int, total: int) -> bool:
        return count == total


class AnyOf(_Condition):
    """Fires when *any* component event has fired successfully."""

    __slots__ = ()

    def _satisfied(self, count: int, total: int) -> bool:
        return count >= 1


def _defuse(event: Event) -> None:
    """Callback marking a failure as handled by an external waiter."""
    event.defused = True


class EmptySchedule(Exception):
    """Internal: the event queue ran dry."""


class Environment:
    """Execution environment: clock plus the pending-event queue."""

    __slots__ = (
        "now",
        "_queue",
        "_eid",
        "_executed",
        "tracer",
        "_timeout_pool",
        "boundary_emits",
    )

    def __init__(self, initial_time: float = 0.0):
        #: Current simulation time.  A plain slot, read on every hot
        #: path; only the run loops write it, and :meth:`advance_clock`
        #: is the checked way to move it from outside.
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._executed = 0
        #: Optional structured tracer (see :mod:`repro.sim.trace`).
        self.tracer = None
        #: Free list of recycled :class:`_PooledTimeout` instances.
        self._timeout_pool: List[_PooledTimeout] = []
        #: Boundary messages staged from this environment; bumped by
        #: ``BoundaryLink._stage`` and fenced on by the shard runner
        #: (see :meth:`run_below_fenced`).
        self.boundary_emits = 0

    @property
    def executed_events(self) -> int:
        """Events actually processed (popped and fired) so far.

        Distinct from the schedule counter: events still sitting in
        the queue — e.g. beyond a ``run(until=...)`` horizon — are
        scheduled but never executed.
        """
        return self._executed

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` time units.

        A process that only sleeps yields ``delay`` itself; a timer
        object is for composing (``any_of``), a value or callbacks.
        """
        return Timeout(self, delay, value)

    def call_later(
        self, delay: float, fn: Callable[[Event], None]
    ) -> None:
        """Invoke ``fn`` after ``delay`` using a pooled timer event.

        Equivalent to appending ``fn`` to a fresh ``timeout(delay)``
        — one heap push, normal priority, so the event
        trajectory is bit-identical — but the underlying event object
        is recycled through a free list (whose ``append`` is the
        callback after ``fn``) instead of allocated anew.
        The event is internal: ``fn`` receives it but must not retain
        it past the callback.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._timeout_pool
        ev = pool.pop() if pool else _PooledTimeout()
        ev.delay = delay
        ev.callbacks = [fn, pool.append]
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (self.now + delay, PRIORITY_NORMAL, eid, ev))

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------
    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL) -> None:
        """Enqueue ``event`` to fire at the current time."""
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (self.now, priority, eid, event))

    def schedule_at(self, event: Event, time: float) -> None:
        """Enqueue ``event`` to fire at the absolute instant ``time``.

        The clock will read exactly ``time`` when it fires, which
        ``now + (time - now)`` does not promise in floating point.
        The caller has already given the event its outcome.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, before now ({self.now})"
            )
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (time, PRIORITY_NORMAL, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def advance_clock(self, time: float) -> None:
        """Advance the clock to ``time`` without processing an event.

        Used by the shard runner to deliver boundary messages at their
        exact timestamp and to land precisely on a ``run(until=...)``
        horizon.  Rewinding is kernel misuse.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot rewind clock from {self.now} to {time}"
            )
        self.now = time

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise EmptySchedule()
        self.now, _, _, event = _heappop(self._queue)
        self._executed += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._ok is False and not event.defused:
            # An un-waited-for failure must not pass silently.
            raise event._value

    def run_below(self, limit: float) -> float:
        """Process every event with time *strictly below* ``limit``.

        The conservative-sync primitive: a shard may only execute
        events below its lookahead horizon, and an event *at* the
        horizon must wait (a boundary message could still arrive
        exactly then).  The clock is left at the last processed event;
        returns the time of the next pending event (``inf`` if none).
        """
        queue = self._queue
        pop = _heappop
        while queue and queue[0][0] < limit:
            self.now, _, _, event = pop(queue)
            self._executed += 1
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if event._ok is False and not event.defused:
                raise event._value
        return queue[0][0] if queue else float("inf")

    def run_below_fenced(self, limit: float) -> float:
        """:meth:`run_below`, stopping early after a boundary send.

        Executes events strictly below ``limit`` but returns as soon
        as a *timestamp* finishes during which :attr:`boundary_emits`
        changed.  Conservative sync needs this: a horizon computed
        from a peer's next event time is invalidated the moment this
        site sends the peer a message (the peer may now wake earlier
        and reply), so the site must stop and let the co-scheduler
        recompute.  Finishing the emitting timestamp itself is safe —
        any causal reply is at least one round-trip of (positive)
        link latency away.
        """
        queue = self._queue
        pop = _heappop
        emits = self.boundary_emits
        while queue and queue[0][0] < limit:
            t = queue[0][0]
            while queue and queue[0][0] == t:
                self.now, _, _, event = pop(queue)
                self._executed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
            if self.boundary_emits != emits:
                break
        return queue[0][0] if queue else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulation time), or an :class:`Event` (run
        until it fires, returning its value).

        With a numeric ``until`` the run is *exact at the boundary*:
        every event scheduled at exactly that time is processed (in
        priority/eid order, like any other time step) and the clock
        always ends at ``until`` — including when the queue drains
        early.
        """
        stop_at: Optional[float] = None
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_at = float(until)
            if stop_at < self.now:
                raise ValueError(
                    f"until ({stop_at}) must not be before now ({self.now})"
                )
        if stop_event is not None and stop_event.callbacks is not None:
            # run() itself is the waiter: a failure is re-raised below
            # rather than at step() time.
            stop_event.callbacks.append(_defuse)

        # Three specialized loops keep the per-event overhead of the
        # common cases minimal: the step body is inlined so each event
        # costs one heap pop and one tuple unpack, no method call.
        queue = self._queue
        pop = _heappop
        if stop_event is not None:
            while stop_event.callbacks is not None:
                if not queue:
                    raise SimulationError(
                        "run(until=event): queue empty before event fired"
                    )
                self.now, _, _, event = pop(queue)
                self._executed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_at is None:
            while queue:
                self.now, _, _, event = pop(queue)
                self._executed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
            return None
        while queue and queue[0][0] <= stop_at:
            self.now, _, _, event = pop(queue)
            self._executed += 1
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if event._ok is False and not event.defused:
                raise event._value
        # Exact at the boundary: the clock lands on ``until`` whether
        # the queue drained early or the next event lies beyond it.
        self.now = stop_at
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self.now} pending={len(self._queue)}>"
