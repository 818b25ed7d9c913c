"""The event census (``benchmarks/perf/events.py``): every executed
event is filed once, under what it wakes."""

from __future__ import annotations

from benchmarks.perf.events import census, wake_class
from repro.sim.kernel import Environment
from repro.sim.network import FairShareLink


def test_classes_sum_to_the_events_executed_on_a_small_paper_seq():
    record = census("paper_seq", seed=7919, scale=0.05)
    classes = record["classes"]
    assert sum(classes.values()) == record["executed_events"] > 0
    # A paper create: its bid round's train and its warehouse transfer.
    assert classes["train _Round.arrive"] == record["requests"]
    assert classes["FairShareLink timer"] == record["requests"]


def test_a_superseded_link_timer_has_a_class_of_its_own():
    env = Environment()
    link = FairShareLink(env, "l", bandwidth_mbps=1.0)

    def two_flows():
        yield link.transfer(4.0)  # its timer, for 4.0, is superseded
        yield 1.0

    def short():
        yield 1.0
        yield link.transfer(1.0)

    env.process(two_flows())
    env.process(short())
    seen = []
    while env._queue:
        seen.append(wake_class(env._queue[0][3]))
        env.step()
    assert seen.count("FairShareLink timer, superseded") == 1
    assert seen.count("FairShareLink timer") == 2
    assert "start test_a_superseded_link_timer_has_a_class_of_its_own." \
        "<locals>.two_flows" in seen
    assert any(label.startswith("resume ") for label in seen)
