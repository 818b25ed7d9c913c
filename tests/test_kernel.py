"""Unit tests for the discrete-event simulation kernel."""

import re
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
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

    def test_trigger_copies_state(self):
        env = Environment()
        src = env.event().succeed("payload")
        dst = env.event()
        dst.trigger(src)
        assert dst.ok and dst.value == "payload"


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
        # Same heap key, so the same order, event ids and event count.
        bare = self.trajectory(lambda env, delay: delay)
        assert bare == self.trajectory(Environment.timeout)
        assert bare[1] == 3.75

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
        # Beside the generator's own frame, ``yield d`` costs one call,
        # the ``_resume`` that wakes it: no ``Environment.timeout``, no
        # ``Timeout.__init__``.
        def run_calls(sleeps):
            env = Environment()

            def proc():
                for _ in range(sleeps):
                    yield 1.0

            env.process(proc())
            return python_call_counts(env.run)

        more = run_calls(30)
        more.subtract(run_calls(10))
        assert +more == {
            "Process._resume": 20,
            "TestYieldedDelay.test_a_sleep_costs_its_wake_alone."
            "<locals>.run_calls.<locals>.proc": 20,
        }


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

    def test_operator_composition(self):
        env = Environment()

        def proc(env):
            t1, t2 = env.timeout(1), env.timeout(2)
            yield t1 & t2
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 2.0

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


def _run_program(program, spawn=Environment.process, form="from"):
    """Run ``program`` with processes made by ``spawn(env, generator)``
    and every sub-call written as ``yield sub()`` (``form`` "yield") or
    ``yield from sub()`` ("from"); the log, the end state of each
    process, ``now`` and the events executed.

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
    env.run()
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
        assert _run_program(program) == _run_program(program, OracleProcess)

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
