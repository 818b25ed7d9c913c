"""The kernel's third in-place path: a decided event fires in place.

A process that ends successfully, the flow a link's completion timer
finishes and a bid round's last landing are *decided*: outcome and
instant are fixed when they are made.  ``Environment._fire`` runs one's
callbacks at once, instead of queueing it, when

(a) its instant is strictly before the heap's head;
(b) its instant is strictly below the running loop's horizon;
(c) the event being dispatched has no callback left to run;
(d) no decided event is firing in place already (one level deep);

and reserves its event id either way.  Each condition, the id and the
exception context are pinned by an explicit example here.  The
differential tests run whole workloads twice, live and with every
decided event queued (``tests/oracles/queued_decided.py``), and require
everything but ``executed_events`` to agree; queued, the grid goldens
read the event totals recorded before the path existed.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.run import repetition
from benchmarks.e2e.workloads import WORKLOADS
from repro.shop.protocol import Transport
from repro.sim.kernel import Environment
from repro.sim.shard import ShardedTestbed
from tests.oracles.queued_decided import every_decided_event_queued
from tests.test_grid_goldens import GOLDEN, RUNS, _run, _signature


def _both(scenario):
    """``scenario(env, log)`` run live and with every decided event
    queued: per run, the log, the clock, the last event id and the
    events executed."""
    out = []
    for queued in (False, True):
        env = Environment()
        log = []
        if queued:
            with every_decided_event_queued():
                scenario(env, log)
                env.run()
        else:
            scenario(env, log)
            env.run()
        out.append((log, env.now, env._eid, env.executed_events))
    return out


class TestConditions:
    def test_a_tie_with_a_queued_event_goes_to_the_queued_one(self):
        # (a): ``x`` and ``y`` fire at 1.0, in that order.  ``child``
        # ends on ``x`` with ``y`` still queued at its instant, so its
        # end is queued behind ``y``: ``y``'s callback runs before the
        # parent's wake.
        def scenario(env, log):
            x, y = env.timeout(1.0), env.timeout(1.0)
            y.callbacks.append(lambda _ev: log.append(("y", env.now)))

            def child():
                yield x
                return "child"

            def parent():
                log.append(((yield env.process(child())), env.now))

            env.process(parent())

        (live, queued) = _both(scenario)
        assert live[0] == [("y", 1.0), ("child", 1.0)]
        # The same ids; the parent's end, with nothing queued, fired in
        # place.
        assert live[:3] == queued[:3] and (live[3], queued[3]) == (5, 6)

    def test_a_landing_past_the_run_bound_waits_for_the_next_run(self):
        # (b): the round's one answer lands at 1.0, past ``until``.
        env = Environment()
        transport = Transport(env, latency_s=0.5, jitter_sigma=0.0)
        log = []
        done = transport.gather([lambda: "bid"])
        done.callbacks.append(lambda ev: log.append((env.now, ev.value)))
        env.run(until=0.75)
        assert env.now == 0.75 and log == [] and not done.processed
        env.run()
        assert log == [(1.0, {0: "bid"})]

    def test_step_fires_no_decided_event_in_place(self):
        # (b) outside a run loop: the horizon is ``-inf``.
        env = Environment()

        def child():
            yield 1.0

        def parent():
            yield env.process(child())

        proc = env.process(parent())
        steps = 0
        while env._queue:
            env.step()
            steps += 1
        # Two Initializes, the sleep, the child's end, the parent's end.
        assert steps == 5 and proc.processed

    def test_a_second_waiter_of_the_waking_event_is_not_overtaken(self):
        # (c): ``gate`` wakes ``child`` and then ``other`` at 1.0.  Were
        # the child's end fired in place, the parent's 5-second sleep
        # would run on in place before ``other`` woke.
        def scenario(env, log):
            gate = env.timeout(1.0)

            def child():
                yield gate

            def parent(waited):
                yield waited
                yield 5.0
                log.append(("parent", env.now))

            def other():
                yield gate
                log.append(("other", env.now))

            env.process(parent(env.process(child())))  # child waits first
            env.process(other())

        (live, queued) = _both(scenario)
        assert live[0] == [("other", 1.0), ("parent", 6.0)]
        assert live[:3] == queued[:3] and live[3] < queued[3]

    def test_a_chain_of_5000_processes_unwinds_through_the_heap(self):
        # (d): each process waits for the one before it.  Unbounded,
        # every end would fire the next one's inside its own frames and
        # overflow the stack; one level deep, every other end is queued.
        env = Environment()

        def first():
            yield 1.0
            return 0

        def step(prev):
            return (yield prev) + 1

        chain = [env.process(first())]
        for _ in range(4999):
            chain.append(env.process(step(chain[-1])))
        env.run()
        assert chain[-1].value == 4999 and env.now == 1.0
        # 5,000 Initializes, the sleep and 2,500 ends (10,001 queued).
        assert env.executed_events == 7501 and env._eid == 10001


class TestReservedIdsAndContext:
    def test_an_end_that_cannot_fire_in_place_keeps_its_reserved_id(self):
        # The end is queued under the id it reserved, so every later
        # event keys the heap as it did when every end was queued.
        def scenario(env, log):
            x, y = env.timeout(1.0), env.timeout(1.0)

            def child():
                yield x

            def late():
                yield y
                yield 0.0  # ties with the child's end: queued after it
                log.append(("late", env._eid))

            def parent():
                yield env.process(child())
                log.append(("parent", env._eid))

            env.process(parent())
            env.process(late())

        (live, queued) = _both(scenario)
        assert live[:3] == queued[:3]
        # x 1, y 2, three Initializes 3-5, the child's end 6, the late
        # sleep 7, the parent's end 8; the late one's end, 9, fired in
        # place.
        assert live[0] == [("parent", 7), ("late", 8)] and live[2] == 9

    def test_a_failed_process_with_no_waiter_still_raises(self):
        env = Environment()

        def dies():
            yield 1.0
            raise RuntimeError("boom")

        env.process(dies())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        # Initialize and the failure; the sleep, next, ran on in place.
        assert env.executed_events == 2

    def test_a_waiter_raising_in_place_carries_no_stop_iteration(self):
        # The end fires after ``_resume`` left its ``except
        # StopIteration`` block: what a waiter raises is not chained to
        # the child's return.
        env = Environment()

        def child():
            yield 1.0

        def parent():
            yield env.process(child())
            raise RuntimeError("waiter")

        env.process(parent())
        with pytest.raises(RuntimeError, match="waiter") as caught:
            env.run()
        assert caught.value.__context__ is None


# ---------------------------------------------------------------------------
# Whole workloads, live and with every decided event queued
# ---------------------------------------------------------------------------

#: Grid-golden event totals with every decided event queued: the totals
#: recorded before decided events fired in place.
QUEUED_TOTALS = {
    "federation": 2399,
    "megaload": 4339,
    "faults": 4657,
    "failover": 7238,
    "admission": 3281,
    "miniring": 288,
}


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_grid_golden_matches_with_every_decided_event_queued(name, shards):
    scenario, sites, params = RUNS[name]
    with every_decided_event_queued():
        queued = ShardedTestbed(
            seed=13, sites=sites, shards=shards, scenario=scenario
        ).run(params=params, collect="fingerprint", deadline_s=300.0)
    live = _run(name, shards)
    fingerprint, events, signature = GOLDEN[name]
    assert queued.fingerprint() == live.fingerprint() == fingerprint
    if signature is not None:
        assert _signature(queued) == _signature(live) == signature
    assert queued.total_events == QUEUED_TOTALS[name]
    assert live.total_events == events < queued.total_events


@pytest.mark.parametrize(
    "name, scale", [("paper_seq", 0.25), ("site_burst", 0.05),
                    ("site_catalog", 0.05), ("grid_steady", 0.05),
                    ("grid_overload", 0.05)],
)
def test_workload_matches_with_every_decided_event_queued(name, scale):
    workload = WORKLOADS[name]
    params = {**workload.scaled(scale), **workload.inprocess_overrides}
    live = repetition(workload, 7919, params)
    with every_decided_event_queued():
        queued = repetition(workload, 7919, params)
    live_sim, queued_sim = dict(live["sim"]), dict(queued["sim"])
    fewer = live_sim.pop("events_per_request")
    more = queued_sim.pop("events_per_request")
    assert live_sim == queued_sim
    assert live["fingerprint"][:4] == queued["fingerprint"][:4]
    assert fewer < more
