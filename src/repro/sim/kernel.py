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
instead of starting a :class:`Process`, and many such callbacks at
once are one train (:meth:`Environment.call_each`);
:meth:`repro.shop.protocol.Transport.gather` runs a whole bid round
that way, and decides the round's one event at the instant its last
answer lands (:meth:`Environment.schedule_at`) instead of a timer per
answer; a round's handler returns its answer or a pending event to be
asked again at, so :class:`Process` is the one place a generator is
stepped.  A process that yields a generator makes a
sub-call: it runs on the process's stack, and a wake-up resumes only
the innermost generator.  A generator that *returns* a generator makes
a tail call: the returned one takes over its slot on the stack, so a
layer that delegates after its first step keeps no frame, and the
caller receives the returned generator's value.

A yielded delay that nothing can overtake costs no wake-up at all: the
process runs on in place, the clock set to its wake time, with no
timer, heap entry or event.  That takes three conditions, each with
what would break without it:

(a) the wake is strictly earlier than the head of the heap (a tie goes
    to the event already queued, as its lower id would) — else a
    queued event would run after a sleep it precedes;
(b) the wake is strictly below the horizon of the one dispatch loop,
    :meth:`Environment.run_below`, which every ``run`` drives: the
    window's end, the float above ``run(until=t)``'s ``t``, infinity
    under ``run()``, and under ``run(until=event)`` infinity until the
    event's stop callback lowers it to the event's instant; ``-inf``
    under :meth:`step` and outside the loop — else a sleep would cross
    a window end (and a boundary delivery due there) or a ``run``
    bound;
(c) the event that woke the process has no other callback still to
    run: the process is its only waiter, or it is the process's own
    pooled sleep timer (whose other callback is the pool's ``append``)
    — else the callbacks after it would run with the clock already
    past their instant.

Under them the order of execution, every clock value and every RNG
draw are those of a queued sleep; event ids and
:attr:`Environment.executed_events` are lower.

A train of callbacks takes the second in-place path.
:meth:`Environment.call_each` reserves one event id per member, in
index order, and puts only the next member on the heap, as one pooled
timer.  When a member's callback returns, the next member runs on in
place, the clock set to its time, under the same three conditions:
(a) its time is strictly earlier than the heap's head; (b) it is
strictly below the running loop's horizon; (c) holds by construction,
for the event being dispatched is the train's own pooled timer, whose
only other callback is the pool's ``append``.  Otherwise the next
member goes on the heap under the id reserved for it, so it ties with
events scheduled since as its own timer would have.

A decided event takes the third in-place path.  An event is decided
when its outcome and instant are fixed as it is made, and nothing can
observe it before it fires: a process that ends successfully
(:meth:`Process._resume`), the flow a
:class:`~repro.sim.network.FairShareLink` completion timer finishes,
and a bid round's one event at its last landing
(:meth:`schedule_at`).  Each caller is in tail position of a callback
of the event being dispatched.  :meth:`Environment._fire` reserves the
event's id, as queueing it would, and runs its callbacks in place, the
clock set to its instant, when all four conditions hold:

(a) the instant is strictly earlier than the heap's head — else an
    event queued at that instant, whose lower id sorts first, would
    run after it;
(b) the instant is strictly below the running loop's horizon — else a
    round landing past a window end or a ``run(until=t)`` bound would
    fire inside that run, and :meth:`step` would hide an event;
(c) the event being dispatched has no callback left to run, as for
    (E)'s sleeps — else that callback would run after the decided
    event's waiters, with the clock possibly moved on by a sleep of
    theirs; a link that finishes several flows at one instant queues
    them all, in flow order, for the same reason;
(d) no decided event is already firing in place — else a chain of
    processes each waiting on the one before would unwind on the
    Python stack, one level per process; one level suffices.

Otherwise the event goes on the heap under its reserved id.  Under
them, too, the order of execution, every clock value, every RNG draw
and every event id are those of queueing it; only
:attr:`Environment.executed_events` is lower.  A process that fails is
always queued, so a failure nobody waits for still raises from the
loop, and the firing happens after ``_resume`` has left its ``except
StopIteration`` block, so a waiter's exception is not chained to it.

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
import math
from functools import partial
from itertools import repeat
from operator import add as _add
from types import GeneratorType as _GeneratorType
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

_heappush = heapq.heappush
_heappop = heapq.heappop
_nextafter = math.nextafter
_INF = math.inf
#: ``Environment._horizon`` outside a run loop: no sleep runs on.
_NO_HORIZON = -math.inf

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


class _PooledTimeout(Event):
    """A recycled timer event for :meth:`Environment.call_later`, a
    train's next member and a process's yielded delay.

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
    interrupt) reaches only the top generator.  A generator that
    returns a generator is replaced by it in its slot (a tail call):
    the returned one is started at once, and its value or exception
    is what the caller receives.  For such a ``sub`` the two differ:
    ``yield from sub()`` gives the caller the returned generator
    itself, so a generator that tail-calls is only ever yielded to the
    kernel, the one stepper of generators (a bid round's handler
    returns an answer or a pending event instead).  ``_stack``
    is dropped the moment the process ends: whoever still holds a
    finished process (a waiter, a list of requests) does not keep the
    generators' frames and locals alive with it.

    A yielded ``float`` or ``int`` (exactly: not a ``bool``, not a
    subclass) is a sleep of that many time units, keyed on the heap as
    ``Timeout`` keys it, or run on in place when nothing can overtake
    it (the module docstring's three conditions); a negative one is
    thrown back into the generator as :class:`ValueError`, at its
    ``yield``.  A process that returns is a decided event: its end
    fires in place when nothing can overtake it (the third path).
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
        # The process is ``event``'s last callback: its only waiter, or
        # the pooled timer of its own sleep (whose other is the pool's
        # ``append``).
        solo = env._fanout == 1 or type(event) is _PooledTimeout
        while True:
            try:
                if ok:
                    next_ev = generator.send(value)
                else:
                    next_ev = generator.throw(value)
            except StopIteration as stop:
                ok, value = True, stop.value
                if type(value) is _GeneratorType:
                    # A tail call: the returned generator takes over
                    # the finished one's slot.
                    stack[-1] = generator = value
                    value = None
                    continue
                stack.pop()
                if stack:
                    generator = stack[-1]
                    continue
                next_ev = None  # ended: fired below, out of this block
                break
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
                if next_ev < 0:
                    ok, value = False, ValueError(f"negative delay {next_ev}")
                    continue
                # A sleep nothing can overtake runs on in place: it
                # wakes strictly before the heap's head, inside the
                # running loop's horizon, and no other callback of
                # ``event`` is still to run at this instant.
                wake = env.now + next_ev
                if solo and wake < env._horizon:
                    queue = env._queue
                    if not queue or wake < queue[0][0]:
                        env.now = wake
                        ok, value = True, None
                        continue
                # Otherwise ``call_later`` inlined, this process the
                # callback.  Same heap key as a ``Timeout``.
                pool = env._timeout_pool
                timer = pool.pop() if pool else _PooledTimeout()
                timer.delay = next_ev
                timer.callbacks = [self._resume, pool.append]
                self._target = timer
                env._eid = eid = env._eid + 1
                _heappush(env._queue, (wake, PRIORITY_NORMAL, eid, timer))
                return
            if isinstance(next_ev, Event):
                break
            if kind is not _GeneratorType:
                # Ill-typed yield: kill the process with a clear error.
                return self._kill(f"process yielded non-event {next_ev!r}")
            stack.append(next_ev)
            generator, ok, value = next_ev, True, None

        if next_ev is None:
            # The process succeeded: decided now, and its waiters run
            # in place when nothing can overtake them.
            self._stack = None
            self._ok = True
            self._value = value
            env._eid = eid = env._eid + 1
            return env._fire(self, env.now, eid, event)
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


def _stop(event: Event) -> None:
    """``run(until=event)``'s callback: observe ``event`` and end the
    loop at its instant."""
    event.defused = True
    event.env._horizon = event.env.now


def _train(env: "Environment", fn: Callable, members: list, timer) -> None:
    """Run the member of a :meth:`Environment.call_each` due now, then
    each next one that nothing can overtake, in place; park the first
    one that something can.

    ``members`` are the ones still to run, ``(time, event id, index)``,
    the next one last; only that one is on the heap, as a pooled timer
    whose other callback is the pool's ``append``.
    """
    queue = env._queue
    while True:
        try:
            fn(members.pop()[2], timer)
        except BaseException:
            if members:
                _park(env, fn, members)
            raise
        if not members:
            return
        # Strictly before the heap's head and inside the running loop's
        # horizon (this timer's only other callback is the ``append``).
        at = members[-1][0]
        if at < env._horizon and (not queue or at < queue[0][0]):
            env.now = at
            continue
        return _park(env, fn, members)


def _park(env: "Environment", fn: Callable, members: list) -> None:
    """Put a train's next member on the heap under its reserved key."""
    at, eid, _ = members[-1]
    pool = env._timeout_pool
    timer = pool.pop() if pool else _PooledTimeout()
    timer.callbacks = [partial(_train, env, fn, members), pool.append]
    _heappush(env._queue, (at, PRIORITY_NORMAL, eid, timer))


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
        "_horizon",
        "_fanout",
        "_firing",
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
        #: A sleep waking strictly before this runs on in place: the
        #: running loop's bound, ``-inf`` outside a loop and in
        #: :meth:`step`.
        self._horizon = _NO_HORIZON
        #: Callbacks of the event being dispatched (a count: nothing
        #: here may keep a process reachable).
        self._fanout = 0
        #: True while a decided event's callbacks run in place: one
        #: fired inside them goes on the heap (nesting stays one deep).
        self._firing = False

    @property
    def executed_events(self) -> int:
        """Events actually processed (popped and fired) so far.

        Distinct from the schedule counter: events still sitting in
        the queue — e.g. beyond a ``run(until=...)`` bound — are
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

    def call_each(
        self, delays: Sequence[float], fn: Callable[[int, Event], None]
    ) -> None:
        """Invoke ``fn(i, timer)`` at ``now + delays[i]`` for every ``i``.

        The calls, their instants and their order are those of one
        ``call_later(delays[i], partial(fn, i))`` per member, made now
        in index order: every member's event id is reserved here, so a
        member keys the heap as its own timer would and ties with
        events scheduled in between break the same way.  Only the next
        member is on the heap, as one pooled timer; after a member
        returns, the next one runs on in place when nothing can
        overtake it (the module docstring's second path).  ``timer`` is
        internal, as for :meth:`call_later`.
        """
        total = len(delays)
        if not total:
            return
        if min(delays) < 0:
            raise ValueError(f"negative delay {min(delays)}")
        now, eid = self.now, self._eid
        self._eid = eid + total
        if total == 1:
            # One member costs what one ``call_later`` costs.
            pool = self._timeout_pool
            timer = pool.pop() if pool else _PooledTimeout()
            timer.callbacks = [partial(fn, 0), pool.append]
            _heappush(
                self._queue, (now + delays[0], PRIORITY_NORMAL, eid + 1, timer)
            )
            return
        # ``(time, event id, index)``, the next member last.
        members = zip(
            map(_add, repeat(now), delays),
            range(eid + 1, eid + total + 1),
            range(total),
        )
        _park(self, fn, sorted(members, reverse=True))

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

    def schedule_at(
        self, event: Event, time: float, woke: Optional[Event] = None
    ) -> None:
        """Enqueue ``event`` to fire at the absolute instant ``time``.

        The clock will read exactly ``time`` when it fires, which
        ``now + (time - now)`` does not guarantee in floating point.
        The caller has already given the event its outcome.  Called
        in tail position from a callback of ``woke``, the event being
        dispatched, it fires in place when nothing can overtake it
        (the module docstring's third path).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, before now ({self.now})"
            )
        self._eid = eid = self._eid + 1
        self._fire(event, time, eid, woke)

    def _fire(
        self, event: Event, at: float, eid: int, woke: Optional[Event]
    ) -> None:
        """Run decided ``event``'s callbacks at ``at``, in place when
        nothing can overtake it, else queue it under its reserved
        ``eid``.

        ``woke`` is the event whose callback calls this, in tail
        position (``None``: another callback is still due at this
        instant, so ``event`` is queued).  In place takes the module
        docstring's four conditions of the third path.
        """
        queue = self._queue
        if (
            at < self._horizon
            and (not queue or at < queue[0][0])
            and woke is not None
            and (self._fanout == 1 or type(woke) is _PooledTimeout)
            and not self._firing
        ):
            self.now = at
            callbacks = event.callbacks
            event.callbacks = None
            self._fanout = len(callbacks)
            self._firing = True
            for callback in callbacks:
                callback(event)
            self._firing = False
            return
        _heappush(queue, (at, PRIORITY_NORMAL, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def advance_clock(self, time: float) -> None:
        """Advance the clock to ``time`` without processing an event.

        Used by the shard runner to deliver boundary messages at their
        exact timestamp and to land precisely on a ``run(until=...)``
        bound.  Rewinding is kernel misuse.
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

        The conservative-sync primitive: a site runs a lookahead
        window strictly below its end, and an event *at* the end must
        wait (a boundary delivery may be due exactly then).  A sleep
        that runs on in place stays below it too.  The clock is left
        at the last processed event; returns the time of the next
        pending event (``inf`` if none).  The loop reads its bound from
        ``_horizon`` on every event, so a callback may lower it: that
        is how ``run(until=event)`` stops.
        """
        queue = self._queue
        pop = _heappop
        self._horizon = limit
        try:
            while queue and queue[0][0] < self._horizon:
                self.now, _, _, event = pop(queue)
                self._executed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    self._fanout = len(callbacks)
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
        finally:
            self._horizon = _NO_HORIZON
            self._firing = False
        return queue[0][0] if queue else float("inf")

    # Kept for the ``sim.kernel.run_below_fenced`` row of e2e TARGETS.
    run_below_fenced = run_below

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulation time), or an :class:`Event` (run
        until it fires, returning its value).

        With a numeric ``until`` the run is *exact at the boundary*:
        every event scheduled at exactly that time is processed (in
        priority/eid order, like any other time step), a sleep that
        runs on in place may wake at it, and the clock always ends at
        ``until`` — including when the queue drains early.
        """
        if until is None:
            self.run_below(_INF)
            return None
        if not isinstance(until, Event):
            stop_at = float(until)
            if stop_at < self.now:
                raise ValueError(
                    f"until ({stop_at}) must not be before now ({self.now})"
                )
            # ``t <= stop_at`` is ``t < nextafter(stop_at, inf)``.
            self.run_below(_nextafter(stop_at, _INF))
            # Exact at the boundary: the clock lands on ``until``
            # whether the queue drained early or the next event lies
            # beyond it.
            self.now = stop_at
            return None
        if until.callbacks is not None:
            # run() itself is the waiter: a failure is re-raised below
            # rather than at dispatch.  Its stop callback lowers the
            # horizon to the event's instant, so the loop ends once the
            # event's callbacks have run, and the waiters after it sleep
            # on no further.
            until.callbacks.append(_stop)
            try:
                self.run_below(_INF)
            finally:
                waiters = until.callbacks
                if waiters is not None:
                    # The run ended first: the event stays observed,
                    # and stops no later loop.
                    waiters[waiters.index(_stop)] = _defuse
            if until.callbacks is not None:
                raise SimulationError(
                    "run(until=event): queue empty before event fired"
                )
        if not until._ok:
            raise until._value
        return until._value
