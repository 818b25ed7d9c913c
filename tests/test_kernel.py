"""Unit tests for the discrete-event simulation kernel."""

import math
import re
import traceback
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
    _defuse,
)
from tests.helpers import OracleProcess, python_call_counts, python_calls
from tests.oracles.queued_decided import every_decided_event_queued


class TestEvent:
    def test_event_starts_pending(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value


class TestTimeout:
    def test_timeout_fires_at_delay(self):
        env = Environment()
        results = []

        def proc(env):
            yield env.timeout(3.5)
            results.append(env.now)

        env.process(proc(env))
        env.run()
        assert results == [3.5]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_value_passthrough(self):
        env = Environment()

        def proc(env):
            got = yield env.timeout(1, "hello")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "hello"

    def test_zero_delay_fires_immediately(self):
        env = Environment()

        def proc(env):
            yield env.timeout(0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0


class TestProcess:
    def test_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"
        assert not p.is_alive

    def test_sequential_timeouts_accumulate(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            yield env.timeout(3)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 5.0

    def test_process_waits_on_process(self):
        env = Environment()

        def inner(env):
            yield env.timeout(4)
            return 7

        def outer(env):
            value = yield env.process(inner(env))
            return value * 2

        p = env.process(outer(env))
        env.run()
        assert p.value == 14

    def test_waiting_on_terminated_process_returns_value(self):
        env = Environment()

        def inner(env):
            yield env.timeout(1)
            return "early"

        def outer(env, target):
            yield env.timeout(5)
            value = yield target
            return (env.now, value)

        inner_proc = env.process(inner(env))
        p = env.process(outer(env, inner_proc))
        env.run()
        assert p.value == (5.0, "early")

    def test_exception_propagates_to_waiter(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter(env, target):
            try:
                yield target
            except ValueError as exc:
                return f"caught {exc}"

        target = env.process(failing(env))
        p = env.process(waiter(env, target))
        env.run()
        assert p.value == "caught boom"

    def test_unhandled_failure_crashes_run(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1)
            raise ValueError("unhandled")

        env.process(failing(env))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_failure_traceback_is_the_generators(self):
        # A failed process's traceback starts at its generator, not at
        # the kernel frame that resumed it; each process the failure
        # passes through adds its own frame and loses only the kernel's.
        env = Environment()

        def helper():
            raise ValueError("deep")

        def inner(env):
            yield env.timeout(1)
            helper()

        def middle(env):
            yield env.process(inner(env))

        def outer(env):
            try:
                yield env.process(middle(env))
            except ValueError as exc:
                frames = traceback.extract_tb(exc.__traceback__)
                return [frame.name for frame in frames]

        p = env.process(outer(env))
        env.run()
        assert p.value == ["outer", "middle", "inner", "helper"]

    def test_unhandled_failure_traceback_ends_at_the_raise(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1)
            raise ValueError("unhandled")

        env.process(failing(env))
        with pytest.raises(ValueError) as caught:
            env.run()
        assert caught.traceback[-1].name == "failing"

    def test_yielding_non_event_kills_process(self):
        # A number is a delay, but only a plain ``float`` or ``int``:
        # ``True`` is an ``int`` subclass and no way to spell a sleep.
        for junk in ("soon", True, None, [1.0]):
            env = Environment()

            def bad(env):
                yield junk

            p = env.process(bad(env))
            with pytest.raises(SimulationError, match="non-event"):
                env.run()
            assert not p.is_alive

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)



class TestTailCall:
    """A generator that returns a generator hands its slot on the
    process's stack to it: the caller gets the
    returned generator's value or exception, and the delegating frame
    is gone while the returned one runs."""

    @staticmethod
    def program(env, log):
        """One handler exercising every way a tail call ends."""

        def leaf(tag, delay):
            yield delay
            log.append((env.now, tag))
            return tag

        def failing(delay):
            yield delay
            raise ValueError("raised by the tail")

        def link(depth):
            # Sleeps, then tail-calls: a chain of links is one slot.
            yield 0.5
            log.append((env.now, "link", depth))
            return link(depth - 1) if depth else leaf("leaf", 1.0)

        def hands_off_a_failure():
            yield 0.25
            return failing(0.5)

        def at_once():
            return leaf("no first yield", 0.0)
            yield  # pragma: no cover - makes this a generator

        def data():
            yield 0.0
            return [1, 2]  # an iterable, not a generator: a value

        def top():
            got = yield link(2)
            log.append((env.now, "got", got))
            try:
                yield hands_off_a_failure()
            except ValueError as exc:
                log.append((env.now, "caught", str(exc)))
            log.append((env.now, "at once", (yield at_once())))
            log.append((env.now, "data", (yield data())))
            return leaf("last", 0.25)

        return top()

    EXPECTED = [
        (0.5, "link", 2),
        (1.0, "link", 1),
        (1.5, "link", 0),
        (2.5, "leaf"),
        (2.5, "got", "leaf"),
        (3.25, "caught", "raised by the tail"),
        (3.25, "no first yield"),
        (3.25, "at once", "no first yield"),
        (3.25, "data", [1, 2]),
        (3.5, "last"),
    ]

    def test_a_tail_call_returns_its_value(self):
        env = Environment()
        log = []
        proc = env.process(self.program(env, log))
        env.run()
        assert log == self.EXPECTED
        assert proc.value == "last" and env.now == 3.5
        assert proc._stack is None

    def test_the_delegating_frame_is_gone_while_the_tail_runs(self):
        env = Environment()

        def tail():
            yield env.event()  # parks for good
            return "never"  # pragma: no cover

        def delegate():
            yield 1.0
            return tail()

        def caller():
            return (yield delegate())

        proc = env.process(caller())
        env.run()
        names = [gen.gi_code.co_name for gen in proc._stack]
        assert names == ["caller", "tail"]

    def test_a_process_whose_generator_tail_calls_ends_with_the_tail(self):
        env = Environment()

        def tail():
            yield 2.0
            return "tail"

        def head():
            yield 1.0
            return tail()

        proc = env.process(head())
        env.run(until=1.5)
        assert [g.gi_code.co_name for g in proc._stack] == ["tail"]
        env.run()
        assert proc.value == "tail" and env.now == 3.0

    def test_an_interrupt_reaches_the_tail(self):
        env = Environment()
        log = []

        def tail():
            try:
                yield 10.0
            except Interrupt as exc:
                log.append((env.now, "tail", exc.cause))
                return "interrupted"
            return "slept"  # pragma: no cover

        def delegate():
            try:
                yield 1.0
            except Interrupt:  # pragma: no cover - not on the stack
                log.append("delegate")
            return tail()

        def caller():
            got = yield delegate()
            log.append((env.now, "caller", got))

        proc = env.process(caller())
        env.call_later(2.0, lambda _ev: proc.interrupt("stop"))
        env.run()
        assert log == [(2.0, "tail", "stop"), (2.0, "caller", "interrupted")]
        assert proc.ok and env.now == 11.0  # the tail's timer still fires

    def test_an_interrupt_uncaught_by_the_tail_reaches_the_caller(self):
        env = Environment()

        def tail():
            yield 10.0

        def delegate():
            yield 1.0
            return tail()

        def caller():
            try:
                yield delegate()
            except Interrupt as exc:
                return ("caller", exc.cause, env.now)

        proc = env.process(caller())
        env.call_later(2.0, lambda _ev: proc.interrupt("stop"))
        env.run()
        assert proc.value == ("caller", "stop", 2.0)


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                return (env.now, interrupt.cause)

        def killer(env, victim):
            yield env.timeout(2)
            victim.interrupt("reason")

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        env.run()
        assert victim.value == (2.0, "reason")

    def test_interrupted_process_can_continue(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(1)
            return env.now

        def killer(env, victim):
            yield env.timeout(2)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        env.run()
        assert victim.value == 3.0

    def test_interrupt_terminated_process_rejected(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1)

        def late(env, victim):
            yield env.timeout(5)
            with pytest.raises(SimulationError):
                victim.interrupt()

        victim = env.process(quick(env))
        p = env.process(late(env, victim))
        env.run()
        assert p.ok

    def test_stale_wakeup_dropped_after_interrupt(self):
        # Interrupt a process in the same time step as its event fires:
        # it must see exactly one resumption (the Interrupt).
        env = Environment()
        wakeups = []

        def sleeper(env, ev):
            try:
                yield ev
                wakeups.append("value")
            except Interrupt:
                wakeups.append("interrupt")
            yield env.timeout(10)
            return wakeups

        def killer(env, victim, ev):
            yield env.timeout(1)
            ev.succeed("x")
            victim.interrupt()

        ev = env.event()
        victim = env.process(sleeper(env, ev))
        env.process(killer(env, victim, ev))
        env.run()
        assert victim.value in (["interrupt"], ["value"])
        assert len(victim.value) == 1

    def test_interrupt_before_first_step_lands_at_first_yield(self):
        # Spawned and interrupted in one callback: the process still
        # starts, and meets the interrupt where it first waits.
        env = Environment()
        log = []

        def victim(env):
            log.append(("started", env.now))
            try:
                yield env.timeout(10)
                log.append(("finished", env.now))
            except Interrupt as interrupt:
                log.append(("interrupted", env.now, interrupt.cause))

        def spawner(env):
            yield env.timeout(3)
            env.process(victim(env)).interrupt("early")

        env.process(spawner(env))
        env.run()
        assert log == [("started", 3.0), ("interrupted", 3.0, "early")]

    def test_last_of_two_early_interrupts_wins(self):
        env = Environment()

        def victim(env):
            try:
                yield env.timeout(10)
            except Interrupt as interrupt:
                return (env.now, interrupt.cause)

        p = env.process(victim(env))
        p.interrupt("first")
        p.interrupt("second")
        env.run()
        assert p.value == (0.0, "second")

    def test_early_interrupt_of_process_that_never_waits_is_dropped(self):
        env = Environment()

        def victim(env):
            return "done"
            yield  # pragma: no cover - makes this a generator

        p = env.process(victim(env))
        p.interrupt("early")
        env.run()
        assert p.value == "done"

    def test_rewait_on_same_event_after_interrupt_resumes_once(self):
        env = Environment()
        log = []

        def sleeper(env, ev):
            try:
                yield ev
            except Interrupt:
                log.append(("interrupt", env.now))
            value = yield ev
            log.append(("woke", env.now, value))
            yield env.timeout(10)
            log.append(("end", env.now))

        def bystander(env, ev):
            value = yield ev
            log.append(("bystander", env.now, value))

        def killer(env, victim, ev):
            yield env.timeout(1)
            victim.interrupt()
            yield env.timeout(1)
            ev.succeed("x")

        ev = env.event()
        victim = env.process(sleeper(env, ev))
        env.process(bystander(env, ev))
        env.process(killer(env, victim, ev))
        env.run()
        # One wake-up, in the place of the second wait: behind the
        # bystander that registered before it.
        assert log == [
            ("interrupt", 1.0),
            ("bystander", 2.0, "x"),
            ("woke", 2.0, "x"),
            ("end", 12.0),
        ]
        assert len(ev.callbacks or ()) == 0

    def test_failure_of_event_abandoned_by_interrupt_stays_observed(self):
        env = Environment()

        def sleeper(env, ev):
            try:
                yield ev
            except Interrupt:
                yield env.timeout(5)
            return env.now

        def killer(env, victim, ev):
            yield env.timeout(1)
            victim.interrupt()
            yield env.timeout(1)
            ev.fail(RuntimeError("nobody waits any more"))

        ev = env.event()
        victim = env.process(sleeper(env, ev))
        env.process(killer(env, victim, ev))
        env.run()
        assert victim.value == 6.0


class TestYieldedDelay:
    """A process sleeps by yielding a plain ``float`` or ``int``."""

    @staticmethod
    def trajectory(sleep):
        env = Environment()
        log = []

        def worker(name, delays):
            for delay in delays:
                yield sleep(env, delay)
                log.append((env.now, env._eid, name))

        env.process(worker("a", [1.5, 0, 2, 0.25]))
        env.process(worker("b", [1.5, 2.0, 0.0, 0]))
        env.timeout(3.5)  # a bystander timer at the same instant
        env.run()
        return log, env.now, env.executed_events

    def test_a_delay_is_a_timeout_to_the_last_event_id(self):
        # Same heap key, so the same order and clock.  One sleep is
        # next with nothing that can overtake it — ``b``'s last, of 0
        # at 3.5, with ``a`` queued for 3.75 — and runs on in place:
        # it takes no event id and executes no event.  A 0 at 1.5 is
        # not next: a wake queued at 1.5 already goes first.  Each
        # process's end has no waiter and nothing queued at or before
        # its instant, so it fires in place: it keeps its event id and
        # executes no event, both ways.
        bare = self.trajectory(lambda env, delay: delay)
        timed = self.trajectory(Environment.timeout)
        assert bare == (
            [(1.5, 5, "a"), (1.5, 6, "b"), (1.5, 7, "a"), (3.5, 8, "b"),
             (3.5, 9, "a"), (3.5, 10, "b"), (3.5, 10, "b"), (3.75, 11, "a")],
            3.75,
            10,
        )
        assert timed == (
            [(1.5, 5, "a"), (1.5, 6, "b"), (1.5, 7, "a"), (3.5, 8, "b"),
             (3.5, 9, "a"), (3.5, 10, "b"), (3.5, 11, "b"), (3.75, 12, "a")],
            3.75,
            11,
        )

    def test_negative_delay_raises_at_the_yield(self):
        env = Environment()

        def proc():
            try:
                yield -1.0
            except ValueError as exc:
                caught = str(exc)
            yield 2
            return caught, env.now

        p = env.process(proc())
        env.run()
        assert p.value == ("negative delay -1.0", 2.0)

    def test_uncaught_negative_delay_fails_the_process(self):
        env = Environment()

        def proc():
            yield -3

        p = env.process(proc())
        with pytest.raises(ValueError, match="negative delay -3") as caught:
            env.run()
        assert not p.is_alive and env.now == 0.0
        assert caught.traceback[-1].name == "proc"

    def test_interrupt_during_a_delay_detaches_and_recycles_the_timer(self):
        env = Environment()

        def sleeper():
            try:
                yield 10.0
            except Interrupt as interrupt:
                return env.now, interrupt.cause

        p = env.process(sleeper())
        env.run(until=0.5)
        timer = p._target
        env.call_later(1.0, lambda _ev: p.interrupt("wake"))
        env.run(until=5.0)
        assert p.value == (1.5, "wake")
        # Still on the heap, no longer the process's: its firing at 10
        # wakes nobody and hands the timer back to the free list.
        assert timer.callbacks[0] is _defuse and len(timer.callbacks) == 2
        assert timer not in env._timeout_pool
        env.run()
        assert env.now == 10.0 and timer in env._timeout_pool

    def test_a_sleep_costs_its_wake_alone(self):
        # Beside the generator's own frame, a sleep that is next costs
        # no call: the process runs on in place.  One that is not next
        # costs one, the ``_resume`` that wakes it: no
        # ``Environment.timeout``, no ``Timeout.__init__``.  Two
        # processes in lockstep: each wake ties with the other's,
        # queued first.
        def run_calls(sleeps, procs):
            env = Environment()

            def proc():
                for _ in range(sleeps):
                    yield 1.0

            for _ in range(procs):
                env.process(proc())
            return python_call_counts(env.run)

        frame = (
            "TestYieldedDelay.test_a_sleep_costs_its_wake_alone."
            "<locals>.run_calls.<locals>.proc"
        )
        alone = run_calls(30, 1)
        alone.subtract(run_calls(10, 1))
        assert +alone == {frame: 20}
        pair = run_calls(30, 2)
        pair.subtract(run_calls(10, 2))
        assert +pair == {"Process._resume": 40, frame: 40}


def test_no_code_in_src_builds_a_timer_only_to_sleep_on_it():
    # ``yield env.timeout(d)`` is ``yield d`` with two more calls; a
    # timer object is for composing, a value or callbacks.
    root = Path(repro.__file__).parent
    pattern = re.compile(r"yield\s+\(?\s*[\w.]+\.timeout\(")
    found = [
        f"{path.relative_to(root)}:{text.count(chr(10), 0, m.start()) + 1}"
        for path in sorted(root.rglob("*.py"))
        for text in [path.read_text(encoding="utf-8")]
        for m in pattern.finditer(text)
    ]
    assert found == []


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc(env):
            yield env.all_of([env.timeout(2, "a"), env.timeout(5, "b")])
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 5.0

    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc(env):
            result = yield env.any_of(
                [env.timeout(2, "fast"), env.timeout(5, "slow")]
            )
            return (env.now, sorted(result.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (2.0, ["fast"])

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def proc(env):
            result = yield env.all_of([])
            return result

        p = env.process(proc(env))
        env.run()
        assert p.value == {}

    def test_all_of_failure_propagates(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1)
            raise RuntimeError("component died")

        def proc(env):
            try:
                yield env.all_of(
                    [env.timeout(5), env.process(failing(env))]
                )
            except RuntimeError as exc:
                return str(exc)

        p = env.process(proc(env))
        env.run()
        assert p.value == "component died"

    def test_decided_condition_lets_go_of_pending_children(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1)
            raise RuntimeError("early")

        def proc(env, pending):
            try:
                yield env.all_of([env.process(failing(env)), *pending])
            except RuntimeError:
                return env.now

        pending = [env.timeout(50 + i) for i in range(40)]
        p = env.process(proc(env, pending))
        env.run(until=2)
        assert p.value == 1.0
        for ev in pending:  # one early failure decided for all forty
            assert ev.callbacks == [_defuse]

    def test_condition_decided_while_being_built(self):
        env = Environment()
        fired = env.timeout(0, "now")
        env.run(until=1)
        later = env.timeout(5)
        first = AnyOf(env, [fired, later])
        assert first.triggered and later.callbacks == [_defuse]
        env.run()

    def test_condition_rejects_foreign_events(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [env2.timeout(1)])


class TestRun:
    def test_run_until_time_stops_clock(self):
        env = Environment()

        def proc(env):
            yield env.timeout(10)

        env.process(proc(env))
        env.run(until=4)
        assert env.now == 4.0

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10)
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            return 99

        assert env.run(until=env.process(proc(env))) == 99

    def test_run_until_failed_event_raises(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise KeyError("nope")

        with pytest.raises(KeyError):
            env.run(until=env.process(proc(env)))

    def test_run_until_unreachable_event_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.run(until=env.event())

    def test_a_run_cut_short_leaves_its_event_observed_and_no_stop(self):
        # The run ends by an error before its event fires: the event's
        # failure stays handled, and it stops no later run at its instant.
        def boom(_ev):
            raise RuntimeError("boom")

        env = Environment()
        stop = env.timeout(2.0)
        env.timeout(1.0).callbacks.append(boom)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=stop)
        assert env._horizon == -math.inf and stop.callbacks == [_defuse]
        stop._ok, stop._value = False, RuntimeError("stop")
        env.timeout(2.0)  # at 3.0, past the stop event's instant
        env.run()
        assert env.now == 3.0 and env.peek() == math.inf

    def test_peek_reports_next_event_time(self):
        env = Environment()
        env.timeout(7)
        assert env.peek() == 7.0
        env2 = Environment()
        assert env2.peek() == float("inf")

    def test_determinism_same_seedless_structure(self):
        def build():
            env = Environment()
            log = []

            def worker(env, name, delay):
                yield env.timeout(delay)
                log.append((env.now, name))

            for i in range(10):
                env.process(worker(env, f"w{i}", (i * 3) % 7))
            env.run()
            return log

        assert build() == build()

    def test_ties_processed_in_schedule_order(self):
        env = Environment()
        log = []

        def worker(env, name):
            yield env.timeout(5)
            log.append(name)

        for name in ("a", "b", "c"):
            env.process(worker(env, name))
        env.run()
        assert log == ["a", "b", "c"]


class TestUntilBoundary:
    """Exact ``run(until=t)`` semantics (shared with shard mode)."""

    def test_until_processes_events_at_horizon(self):
        env = Environment()
        log = []

        def worker(env, name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))

        env.process(worker(env, "before", 4))
        env.process(worker(env, "at", 5))
        env.process(worker(env, "after", 6))
        env.run(until=5.0)
        assert log == [(4.0, "before"), (5.0, "at")]
        assert env.now == 5.0

    def test_until_ties_at_horizon_respect_priority_and_order(self):
        env = Environment()
        log = []

        def sleeper(env, name):
            yield env.timeout(5)
            log.append(name)

        def interrupter(env, victim):
            yield env.timeout(5)
            log.append("int")
            victim.interrupt()

        def victim_proc(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                log.append("victim-interrupted")

        victim = env.process(victim_proc(env))
        env.process(sleeper(env, "a"))
        env.process(interrupter(env, victim))
        env.process(sleeper(env, "b"))
        env.run(until=5.0)
        # Everything at t=5 ran: the urgent interrupt queued by "int"
        # preempts the remaining normal-priority timeout at the same
        # time, so the victim resumes before "b".
        assert log == ["a", "int", "victim-interrupted", "b"]
        assert env.now == 5.0

    def test_until_advances_clock_past_drained_queue(self):
        env = Environment()
        env.timeout(2)
        env.run(until=50.0)
        assert env.now == 50.0

    def test_run_below_is_strictly_exclusive(self):
        env = Environment()
        log = []

        def worker(env, delay):
            yield env.timeout(delay)
            log.append(env.now)

        for delay in (1, 5, 9):
            env.process(worker(env, delay))
        nxt = env.run_below(5.0)
        assert log == [1.0]
        assert nxt == 5.0  # the t=5 event is still pending
        assert env.run_below(9.5) == float("inf")
        assert log == [1.0, 5.0, 9.0]

    def test_advance_clock_rejects_rewind(self):
        env = Environment()
        env.advance_clock(10.0)
        assert env.now == 10.0
        env.advance_clock(10.0)  # no-op is fine
        with pytest.raises(SimulationError, match="rewind"):
            env.advance_clock(9.0)


class TestScheduleAt:
    """``Environment.schedule_at``: the absolute-time enqueue."""

    @staticmethod
    def decided(env, value=None):
        event = env.event()
        event._ok, event._value = True, value
        return event

    def test_fires_at_the_instant_given_bit_for_bit(self):
        # A delay cannot name this instant from here: the round trip
        # through a difference lands one ulp below it.
        start, at = 0.7974042475543028, 2.8286279986015486
        assert start + (at - start) != at
        env = Environment(initial_time=start)
        seen = []
        event = self.decided(env, "v")
        event.callbacks.append(lambda ev: seen.append((env.now, ev.value)))
        env.schedule_at(event, at)
        env.timeout(at - start).callbacks.append(
            lambda ev: seen.append((env.now, "timer"))
        )
        env.run()
        assert seen == [(start + (at - start), "timer"), (at, "v")]
        assert env.now == at

    def test_same_instant_fires_in_enqueue_order(self):
        env = Environment()
        seen = []
        env.timeout(2.0).callbacks.append(lambda ev: seen.append("timer"))
        event = self.decided(env)
        event.callbacks.append(lambda ev: seen.append("event"))
        env.schedule_at(event, 2.0)
        env.run()
        assert seen == ["timer", "event"]

    def test_an_instant_before_now_is_refused(self):
        env = Environment()
        env.advance_clock(5.0)
        with pytest.raises(SimulationError, match="before now"):
            env.schedule_at(self.decided(env), 4.999)
        assert env.peek() == float("inf")
        env.schedule_at(self.decided(env), 5.0)  # now itself is fine
        env.run()
        assert env.now == 5.0

    def test_schedule_takes_no_delay(self):
        # ``schedule(event, delay=-1)`` used to rewind the clock on
        # the next pop; nothing passed a delay, so the parameter went.
        env = Environment()
        with pytest.raises(TypeError):
            env.schedule(self.decided(env), delay=-1.0)
        assert env.peek() == float("inf")


class TestCallLater:
    """Pooled timer events behind ``Environment.call_later``."""

    def test_call_later_fires_at_delay(self):
        env = Environment()
        log = []
        env.call_later(3.0, lambda _ev: log.append(env.now))
        env.run()
        assert log == [3.0]

    def test_call_later_recycles_event_objects(self):
        env = Environment()
        seen = []

        def chain(_ev):
            seen.append(id(_ev))
            if len(seen) < 5:
                env.call_later(1.0, chain)

        env.call_later(1.0, chain)
        env.run()
        # The re-arm happens inside the callback, before the firing
        # event returns to the free list, so the chain alternates
        # between exactly two recycled instances — never a fresh
        # allocation per firing.
        assert len(seen) == 5
        assert len(set(seen)) == 2

    def test_call_later_trajectory_matches_timeout_callback(self):
        def run(use_pool):
            env = Environment()
            log = []

            def note(tag):
                return lambda _ev: log.append((env.now, env._eid, tag))

            if use_pool:
                env.call_later(2.0, note("x"))
                env.call_later(2.0, note("y"))
            else:
                for tag in ("x", "y"):
                    ev = env.timeout(2.0)
                    ev.callbacks.append(note(tag))
            env.timeout(1.0)
            env.run()
            return log

        # Same times, same eid counters, same ordering: the pooled
        # path is bit-identical to timeout()+callback.
        assert run(True) == run(False)

    def test_call_later_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative delay"):
            env.call_later(-1.0, lambda _ev: None)


# ---------------------------------------------------------------------------
# The one-call resume against the lambda + generation reference
# ---------------------------------------------------------------------------

_N_EVENTS = 3
_event_ids = st.integers(0, _N_EVENTS - 1)
_delays = st.integers(0, 3)
_ops = st.one_of(
    st.tuples(st.just("sleep"), _delays),
    # A bare number: what the reference spells ``env.timeout(d)``.
    st.tuples(st.just("delay"), st.sampled_from([0, 0.0, 1, 1.5, 3.0])),
    st.tuples(st.just("wait"), _event_ids),
    st.tuples(st.just("fire"), _event_ids),
    st.tuples(st.just("fail"), _event_ids),
    st.tuples(st.just("all"), st.lists(_event_ids, max_size=3), _delays),
    st.tuples(st.just("any"), st.lists(_event_ids, max_size=3), _delays),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.tuples(st.just("join"), st.integers(0, 4)),
)
_programs = st.lists(
    st.tuples(_delays, st.just(True), st.lists(_ops, max_size=6)),
    min_size=1,
    max_size=5,
)


#: Nested sub-calls: ``("call", guard, ops)`` runs ``ops`` one level
#: down, catching its own exceptions when ``guard`` holds.  The leaves
#: add what only a stack of generators can get wrong: a raise, a yield
#: of an already-processed event, an ill-typed yield, an interrupt of
#: the process by itself and an early return.
_leaf_ops = st.one_of(
    _ops,
    st.just(("raise",)),
    st.just(("again",)),
    st.just(("bad",)),
    st.just(("self",)),
    st.just(("return",)),
)


def _with_calls(ops):
    return st.one_of(
        ops,
        st.tuples(st.just("call"), st.booleans(), st.lists(ops, max_size=4)),
    )


_nested_programs = st.lists(
    st.tuples(
        _delays,
        st.booleans(),
        st.lists(_with_calls(_with_calls(_leaf_ops)), max_size=5),
    ),
    min_size=1,
    max_size=4,
)


def _run_program(
    program, spawn=Environment.process, form="from", drive=Environment.run
):
    """Run ``program`` with processes made by ``spawn(env, generator)``
    and every sub-call written as ``yield sub()`` (``form`` "yield") or
    ``yield from sub()`` ("from"), its events processed by
    ``drive(env)``; the log, the end state of each process, ``now`` and
    the events executed.

    A program is ``(start, guard, ops)`` per process.  Each process
    sleeps ``start`` first (so every process has taken its first step
    before any is interrupted — the one case the reference gets wrong,
    pinned on its own in ``TestInterrupt``), then performs its ops.  A
    level logs each op that finishes, each exception its guard catches,
    and its ``finally``.  Every shared event has an observer, so a
    failure nobody waits for does not end the run.
    """
    env = Environment()
    log = []
    oracle = spawn is OracleProcess  # it takes no bare delay
    shared = [env.event() for _ in range(_N_EVENTS)]
    for ev in shared:
        ev.callbacks.append(_defuse)
    processed = env.timeout(0)  # fired before any process's first sleep
    procs = []

    def run(me, path, guard, ops):
        try:
            for k, op in enumerate(ops):
                kind = op[0]
                label = f"{path}.{k}.{kind}"
                try:
                    got = None
                    if kind == "sleep":
                        yield env.timeout(op[1])
                    elif kind == "delay":
                        yield env.timeout(op[1]) if oracle else op[1]
                    elif kind == "wait":
                        yield shared[op[1]]
                    elif kind == "fire":
                        if not shared[op[1]].triggered:
                            shared[op[1]].succeed(label)
                    elif kind == "fail":
                        if not shared[op[1]].triggered:
                            shared[op[1]].fail(RuntimeError(label))
                    elif kind in ("all", "any"):
                        parts = [shared[i] for i in op[1]]
                        parts.append(env.timeout(op[2]))
                        cond = env.all_of if kind == "all" else env.any_of
                        yield cond(parts)
                    elif kind == "interrupt":
                        victim = procs[op[1] % len(procs)]
                        if victim is not procs[me] and victim.is_alive:
                            victim.interrupt(label)
                    elif kind == "join":
                        yield procs[op[1] % len(procs)]
                    elif kind == "call":
                        sub = run(me, f"{path}.{k}", op[1], op[2])
                        if form == "yield":
                            got = yield sub
                        else:
                            got = yield from sub
                    elif kind == "raise":
                        raise RuntimeError(label)
                    elif kind == "again":
                        got = yield processed
                    elif kind == "bad":
                        yield label
                    elif kind == "self":
                        procs[me].interrupt(label)
                    elif kind == "return":
                        return label
                    log.append((env.now, label, "ok", got))
                except Exception as exc:
                    if not guard:
                        raise
                    log.append((env.now, label, "caught", repr(exc)))
        finally:
            log.append((env.now, path, "finally"))
        return path

    for me, (start, guard, ops) in enumerate(program):
        proc = spawn(env, run(me, f"p{me}", guard, [("sleep", start)] + ops))
        proc.defused = True  # a process may die of what it does
        procs.append(proc)
    drive(env)
    # Copied: a process parked forever logs its ``finally`` whenever
    # its generators are collected.
    ends = [
        "alive" if proc.is_alive else (proc.ok, repr(proc.value))
        for proc in procs
    ]
    return list(log), ends, env.now, env.executed_events


class TestResumeMatchesOracle:
    @given(_programs)
    @settings(max_examples=300, deadline=None)
    def test_random_programs_log_identically(self, program):
        # The oracle queues every sleep; the kernel runs a sleep that is
        # next on in place, so it executes at most as many events.
        *live, live_events = _run_program(program)
        *oracle, oracle_events = _run_program(program, OracleProcess)
        assert live == oracle
        assert live_events <= oracle_events

    def test_wait_resume_cycle_is_one_kernel_call(self):
        # Beside the generator's own frame, a wake-up costs the kernel
        # one Python call (``_resume``): no lambda, no property.
        def run_calls(cycles):
            env = Environment()
            timers = [env.timeout(i + 1) for i in range(cycles)]

            def proc():
                for timer in timers:
                    yield timer

            env.process(proc())
            return python_calls(env.run)

        assert run_calls(30) - run_calls(10) == 20 * 2


    @given(_nested_programs)
    @settings(max_examples=300, deadline=None)
    def test_sub_call_by_yield_matches_yield_from(self, program):
        # ``yield sub()`` runs ``sub`` on the process's stack; it must
        # mean exactly what ``yield from sub()`` means.
        assert _run_program(program, form="yield") == _run_program(program)

    #: One program per case the equivalence is for, the log entries
    #: that show the case was reached, and whether ``p0`` survives it.
    SUB_CALL_CASES = {
        "interrupt caught inner": (
            [(0, True, [("call", True, [("sleep", 3)])]),
             (1, True, [("interrupt", 0)])],
            [(1.0, "p0.1.0.sleep", "caught", "Interrupt('p1.1.interrupt')"),
             (1.0, "p0.1.call", "ok", "p0.1")],
            True,
        ),
        "interrupt caught outer": (
            [(0, True, [("call", False, [("sleep", 3)])]),
             (1, True, [("interrupt", 0)])],
            [(1.0, "p0.1", "finally"),
             (1.0, "p0.1.call", "caught", "Interrupt('p1.1.interrupt')")],
            True,
        ),
        "interrupt caught nowhere": (
            [(0, False, [("call", False, [("sleep", 3)])]),
             (1, True, [("interrupt", 0)])],
            [(1.0, "p0.1", "finally"), (1.0, "p0", "finally")],
            False,
        ),
        "raise caught by the caller": (
            [(0, True, [("call", False, [("raise",)])])],
            [(0.0, "p0.1", "finally"),
             (0.0, "p0.1.call", "caught", "RuntimeError('p0.1.0.raise')")],
            True,
        ),
        "return without a yield": (
            [(0, True, [("call", True, [("fire", 0)]), ("wait", 0)])],
            [(0.0, "p0.1.call", "ok", "p0.1"), (0.0, "p0.2.wait", "ok", None)],
            True,
        ),
        "already-processed event": (
            [(0, True, [("call", True, [("again",)])])],
            [(0.0, "p0.1.0.again", "ok", None)],
            True,
        ),
        # Closed innermost first, each level's ``finally`` in turn.
        "ill-typed yield": (
            [(0, True, [("call", True, [("call", True, [("bad",)])])])],
            [(0.0, "p0.1.0", "finally"), (0.0, "p0.1", "finally"),
             (0.0, "p0", "finally")],
            False,
        ),
        "self-interrupt": (
            [(0, True, [("call", False, [("self",)])])],
            [(0.0, "p0.1.call", "caught",
              "SimulationError('a process cannot interrupt itself')")],
            True,
        ),
    }

    @pytest.mark.parametrize("case", sorted(SUB_CALL_CASES))
    def test_sub_call_case(self, case):
        program, expected, survives = self.SUB_CALL_CASES[case]
        log, ends, _, _ = run = _run_program(program, form="yield")
        assert run == _run_program(program)
        assert [entry for entry in log if entry in expected] == expected
        assert ends[0][0] is survives


# ---------------------------------------------------------------------------
# A sleep that is next runs on in place
# ---------------------------------------------------------------------------


def _stepped(env):
    """Drive ``env`` by ``step`` alone, which never runs a sleep on in
    place: every sleep is a queued event."""
    while env._queue:
        env.step()


def _windowed(ends):
    """Drive ``env`` by lookahead windows ending at ``ends``, as the
    shard layer does, then to the end."""

    def drive(env):
        for end in ends:
            before = env.executed_events
            env.run_below(end)
            assert env.executed_events == before or env.now < end
        env.run_below(math.inf)

    return drive


#: Window ends on the programs' quarter grid, so some fall exactly on
#: a wake.
_window_ends = st.lists(
    st.integers(0, 24).map(lambda k: k / 4), max_size=6
).map(sorted)


def _both_ways(scenario):
    """``scenario(env, log)`` driven by ``run()`` and by ``step()``:
    the log, the clock and the events executed, each way."""
    out = []
    for drive in (Environment.run, _stepped):
        env = Environment()
        log = []
        scenario(env, log)
        drive(env)
        out.append((log, env.now, env.executed_events))
    return out


class TestSleepRunsOnInPlace:
    """A yielded delay that wakes strictly before the heap's head,
    inside the running loop's horizon, while no other callback of the
    event that woke the process is still to run, continues in place: no
    timer, no heap entry, no wake.  Only event ids and counts may
    differ from queueing it."""

    @given(_programs, _window_ends)
    # A sleep that ties with a wake already queued.
    @example([(0, True, [("delay", 1)]), (1, True, [])], [])
    # A sleep across a window's end.
    @example([(0, True, [("delay", 1)])], [0.25])
    # The first of two waiters sleeps.
    @example(
        [
            (0, True, [("wait", 0), ("delay", 1)]),
            (0, True, [("wait", 0)]),
            (1, True, [("fire", 0), ("delay", 3)]),
        ],
        [],
    )
    @settings(max_examples=150, deadline=None)
    def test_run_step_and_windows_agree(self, program, ends):
        *whole, whole_events = _run_program(program)
        *stepped, stepped_events = _run_program(program, drive=_stepped)
        *windowed, windowed_events = _run_program(
            program, drive=_windowed(ends)
        )
        assert whole == stepped == windowed
        assert whole_events <= stepped_events
        assert windowed_events <= stepped_events

    def test_a_queued_event_at_the_wake_time_runs_first(self):
        def scenario(env, log):
            env.timeout(2.0).callbacks.append(
                lambda _ev: log.append(("timer", env.now))
            )

            def sleeper():
                yield 1.0  # next: runs on in place
                log.append(("awake", env.now))
                yield 1.0  # ties with the timer, queued first
                log.append(("awake", env.now))

            env.process(sleeper())

        expected = [("awake", 1.0), ("timer", 2.0), ("awake", 2.0)]
        # Timer, Initialize, second sleep; + the first sleep and the
        # process's end when they are queued (``step`` runs nothing on).
        assert _both_ways(scenario) == [(expected, 2.0, 3), (expected, 2.0, 5)]

    def test_two_waiters_of_one_event_and_the_first_sleeps(self):
        # The first waiter's sleep is queued: the second must still
        # wake at the instant the event fired.
        def scenario(env, log):
            gate = env.event()
            env.call_later(0.5, lambda _ev: gate.succeed())

            def first():
                yield gate
                yield 1.0
                log.append(("first", env.now))

            def second():
                yield gate
                log.append(("second", env.now))

            env.process(first())
            env.process(second())

        expected = [("second", 0.5), ("first", 1.5)]
        # The second's end is queued (another waiter of ``gate`` may
        # still run at 0.5); the first's, woken by its own sleep timer
        # with nothing queued, fires in place under ``run``.
        assert _both_ways(scenario) == [(expected, 1.5, 6), (expected, 1.5, 7)]

    def test_an_interrupt_by_a_sibling_waiter(self):
        # Both wait on ``gate``; the first interrupts the second, then
        # sleeps, queued: the second's wake by the gate is still to
        # run.  The interrupt lands at the instant the gate fired; the
        # second is its only waiter, and its sleep, next, runs on.
        def scenario(env, log):
            gate = env.event()
            env.call_later(0.5, lambda _ev: gate.succeed())
            procs = []

            def first():
                yield gate
                procs[1].interrupt("sibling")
                yield 1.0
                log.append(("first", env.now))

            def second():
                try:
                    yield gate
                except Interrupt as interrupt:
                    log.append((interrupt.cause, env.now))
                yield 0.5
                log.append(("second", env.now))

            procs.append(env.process(first()))
            procs.append(env.process(second()))

        expected = [("sibling", 0.5), ("second", 1.0), ("first", 1.5)]
        # Both ends fire in place under ``run``: nothing is queued at
        # or before either's instant.
        assert _both_ways(scenario) == [(expected, 1.5, 6), (expected, 1.5, 9)]

    def test_a_sleep_past_the_horizon_parks(self):
        env = Environment()
        log = []

        def sleeper():
            for delay in (1.0, 1.0, 1.0):
                yield delay
                log.append(env.now)

        env.process(sleeper())
        # Under a window, strictly below its end: the sleep to 2.0
        # parks on the heap, and an event at the end waits for the
        # next window.
        assert env.run_below(2.0) == 2.0
        assert log == [1.0] and env.now == 1.0
        # Under ``run(until=t)``, at ``t`` itself and not past it.
        env.run(until=2.0)
        assert log == [1.0, 2.0] and env.peek() == 3.0
        env.run()
        assert log == [1.0, 2.0, 3.0]
        # Initialize and the two parked sleeps; the process's end, with
        # nothing queued, fires in place.
        assert env.executed_events == 3

    def test_a_waiter_of_the_stop_event_stops_with_it(self):
        # ``run(until=gate)`` waits on the gate beside the process, so
        # the process's sleep is queued and the run ends at the gate.
        env = Environment()
        gate = env.event()
        env.call_later(1.0, lambda _ev: gate.succeed("open"))
        log = []

        def waiter():
            yield gate
            yield 2.0
            log.append(env.now)

        env.process(waiter())
        assert env.run(until=gate) == "open"
        assert env.now == 1.0 and log == [] and env.peek() == 3.0

    def test_step_never_runs_a_sleep_on(self):
        env = Environment()

        def sleeper():
            yield 1.0

        env.process(sleeper())
        env.step()
        assert env.now == 0.0 and env.peek() == 1.0


class TestDecidedEndsMatchQueued:
    """A process that ends successfully fires its end in place when
    nothing can overtake it (``tests/test_decided_in_place.py`` pins
    each condition); with every such end queued, as ``succeed`` queued
    it, the programs of ``TestResumeMatchesOracle`` log the same, under
    ``run()`` and under windows, and execute at least as many events."""

    @given(_programs, _window_ends)
    @settings(max_examples=200, deadline=None)
    def test_random_programs_log_identically(self, program, ends):
        for drive in (Environment.run, _windowed(ends)):
            *live, live_events = _run_program(program, drive=drive)
            with every_decided_event_queued():
                *queued, queued_events = _run_program(program, drive=drive)
            assert live == queued
            assert live_events <= queued_events


# ---------------------------------------------------------------------------
# A train of callbacks: one timer, the later members run on in place
# ---------------------------------------------------------------------------


def _timer_each(env, delays, fn):
    """The reference ``call_each``: one ``Timeout`` per member, made in
    index order."""
    for index, delay in enumerate(delays):
        Timeout(env, delay).callbacks.append(partial(fn, index))


#: Delays on a half grid, zero and equal ones included, so members tie
#: with each other and with everything else.
_grid = st.sampled_from([0, 0.0, 0.5, 1, 1.0, 1.5])
_train_delays = st.lists(_grid, max_size=4)
#: What a member's callback does at its instant.
_acts = st.one_of(
    st.just(("log",)),
    st.tuples(st.just("timer"), _grid),  # ids after the train's
    st.just(("spawn",)),  # an urgent Initialize, at now
    st.tuples(st.just("sleep"), _grid),  # a sleep, maybe run on in place
    st.tuples(st.just("train"), _train_delays),
    st.tuples(st.just("stopwait"), _grid),  # waits on the stop event
)
#: Set up at 0, in order: a train started then (``None``) or from a
#: timer, a bystander timer, a sleeping process, a callback on the stop
#: event that starts a sleeping process.
_train_items = st.lists(
    st.one_of(
        st.tuples(
            st.just("train"),
            st.one_of(st.none(), _grid),
            _train_delays,
            st.lists(_acts, max_size=4),
        ),
        st.tuples(st.just("timer"), _grid),
        st.tuples(st.just("sleep"), _grid),
        st.tuples(st.just("stopwait"), _grid),
    ),
    min_size=1,
    max_size=5,
)
_train_drives = st.one_of(
    st.just(("run",)),
    st.just(("step",)),
    st.tuples(st.just("until"), st.integers(0, 8).map(lambda k: k / 4)),
    # The stop event's instant, whether it fails, then windows.
    st.tuples(st.just("event"), _grid, st.booleans(), _window_ends),
    st.tuples(st.just("windows"), _window_ends),
)


def _run_trains(items, drive, each):
    """Play ``items`` with trains made by ``each(env, delays, fn)``,
    driven as ``drive`` says; the log, the clock and the events
    executed.  A drive that stops part-way notes where, then runs on
    to the end; ``run(until=event)`` may be followed by windows, and
    outside every loop the horizon must be ``-inf`` again."""
    env = Environment()
    log = []
    # The ``("event", t, fails, ends)`` drive's stop event, made first
    # either way.
    stop = env.timeout(drive[1] if drive[0] == "event" else 0)
    if drive[0] == "event" and drive[2]:
        stop._ok, stop._value = False, RuntimeError("stop")

    def note(*entry):
        return lambda _ev: log.append((env.now,) + entry)

    def sleeper(name, delay):
        yield delay
        log.append((env.now, name, "awake"))
        yield delay
        log.append((env.now, name, "awake"))

    def spawned(name):
        log.append((env.now, name, "started"))
        yield from ()

    def stopped(name, delay, ev):
        # A waiter registered before ``run()`` began.
        log.append((env.now, name, "stop", ev._ok))
        env.process(sleeper(name, delay))

    def stop_waiter(name, delay):
        # Registered while the run goes on, after its stop callback.
        try:
            yield stop
            log.append((env.now, name, "stop", True))
        except RuntimeError:
            log.append((env.now, name, "stop", False))
        yield delay
        log.append((env.now, name, "awake"))

    def member(name, acts, index, timer):
        log.append((env.now, name, index, timer._ok, timer._value))
        act = acts[index] if index < len(acts) else ("log",)
        label = f"{name}.{index}"
        if act[0] == "timer":
            env.timeout(act[1]).callbacks.append(note(label, "timer"))
        elif act[0] == "spawn":
            env.process(spawned(label))
        elif act[0] == "sleep":
            env.process(sleeper(label, act[1]))
        elif act[0] == "train":
            each(env, act[1], partial(member, label, ()))
        elif act[0] == "stopwait":
            env.process(stop_waiter(label, act[1]))

    def start(name, delays, acts, _timer=None):
        each(env, delays, partial(member, name, acts))

    for n, item in enumerate(items):
        name = f"i{n}"
        if item[0] == "train":
            _, at, delays, acts = item
            if at is None:
                start(name, delays, acts)
            else:
                env.call_later(at, partial(start, name, delays, acts))
        elif item[0] == "timer":
            env.timeout(item[1]).callbacks.append(note(name, "timer"))
        elif item[0] == "stopwait":
            stop.callbacks.append(partial(stopped, name, item[1]))
        else:
            env.process(sleeper(name, item[1]))

    kind = drive[0]
    if kind == "step":
        while env._queue:
            env.step()
            log.append((env.now, "step"))
    elif kind == "windows":
        for end in drive[1]:
            env.run_below(end)
            log.append((env.now, "window", end))
        env.run_below(math.inf)
    elif kind == "until":
        env.run(until=drive[1])
        log.append((env.now, "until"))
        env.run()
    elif kind == "event":
        try:
            if each is _timer_each:
                # The reference stops by stepping: one event at a time
                # until the stop event has run, observed as run() does.
                stop.callbacks.append(_defuse)
                while stop.callbacks is not None:
                    env.step()
                if not stop.ok:
                    raise stop.value
            else:
                env.run(until=stop)
            log.append((env.now, "stopped"))
        except RuntimeError:
            log.append((env.now, "stop failed"))
        assert env._horizon == -math.inf
        for end in drive[3]:
            env.run_below(end)
            log.append((env.now, "window", end))
            assert env._horizon == -math.inf
        env.run()
    else:
        env.run()
    return log, env.now, env.executed_events


class TestCallEach:
    """``Environment.call_each`` against one ``Timeout`` per member:
    the same calls with the same arguments, in the same order, at the
    same clock values, under every way of driving the queue."""

    @given(_train_items, _train_drives)
    # A member that ties with a timer queued before the train.
    @example([("timer", 1), ("train", None, [0, 1], [])], ("run",))
    # A member that ties with a timer its predecessor queued: the
    # member keeps the id reserved for it and goes first.
    @example([("train", None, [0, 1], [("timer", 1)])], ("run",))
    # Zero delays, and the first member starts a process: its urgent
    # Initialize, at the same instant, runs before the second member.
    @example([("train", 0, [0, 0], [("spawn",)])], ("run",))
    # A member past a window's end, and past ``run(until=t)``'s ``t``.
    @example([("train", None, [0, 1], [])], ("windows", [0.5]))
    @example([("train", None, [0, 1], [])], ("until", 0.5))
    # Waiters on the stop event from before the run and from during
    # it, sleeping as it stops; then the same when the stop fails.
    @example(
        [("stopwait", 0), ("train", None, [0, 1], [("stopwait", 0.5)])],
        ("event", 0.5, False, []),
    )
    @example(
        [("stopwait", 0.5), ("train", None, [0, 1], [("stopwait", 0)])],
        ("event", 0.5, True, []),
    )
    # Windows after a run to an event: the horizon is reset between.
    @example(
        [("train", None, [0, 1, 1.5], []), ("sleep", 0.5)],
        ("event", 0.5, False, [1.0, 1.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_train_is_one_timer_per_member(self, items, drive):
        log, now, events = _run_trains(items, drive, Environment.call_each)
        ref_log, ref_now, ref_events = _run_trains(items, drive, _timer_each)
        assert (log, now) == (ref_log, ref_now)
        # ``step`` never runs a member on in place.
        if drive[0] == "step":
            assert events == ref_events
        else:
            assert events <= ref_events

    def test_members_that_nothing_overtakes_cost_no_event(self):
        env = Environment()
        log = []
        env.call_each([2.0, 1.0, 3.0, 1.0], lambda i, _t: log.append((env.now, i)))
        env.run()
        assert log == [(1.0, 1), (1.0, 3), (2.0, 0), (3.0, 2)]
        assert env.executed_events == 1 and env._eid == 4

    def test_one_member_costs_what_call_later_costs(self):
        def calls(arm):
            env = Environment()
            return python_calls(lambda: (arm(env), env.run()))

        fn = lambda _i, _t: None  # noqa: E731
        assert calls(lambda env: env.call_each([1.0], fn)) == calls(
            lambda env: env.call_later(1.0, partial(fn, 0))
        )

    def test_a_member_that_raises_leaves_the_rest_queued(self):
        def play(each):
            env = Environment()
            log = []

            def fn(index, _timer):
                log.append((env.now, index))
                if index == 0:
                    raise RuntimeError("member 0")

            each(env, [1.0, 1.0, 2.0], fn)
            with pytest.raises(RuntimeError, match="member 0"):
                env.run()
            log.append(env.peek())
            env.run()
            return log, env.now

        assert play(Environment.call_each) == play(_timer_each) == (
            [(1.0, 0), 1.0, (1.0, 1), (2.0, 2)],
            2.0,
        )

    def test_no_members_and_a_negative_delay(self):
        env = Environment()
        env.call_each([], lambda _i, _t: None)
        assert env.peek() == math.inf and env._eid == 0
        with pytest.raises(ValueError, match="negative delay -1"):
            env.call_each([1.0, -1], lambda _i, _t: None)
        assert env.peek() == math.inf
