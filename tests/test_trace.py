"""Tests for the tracing facility and its instrumentation points."""

import pytest

from repro.sim.cluster import build_testbed
from repro.sim.kernel import Environment
from repro.sim.trace import TraceEvent, Tracer, trace
from repro.workloads.requests import experiment_request
from tests.helpers import python_call_counts


class TestTracer:
    def test_record_and_select(self):
        tracer = Tracer()
        tracer.record(1.0, "a", "one")
        tracer.record(2.0, "b", "two", key="v")
        tracer.record(3.0, "a", "three")
        assert len(tracer) == 3
        assert [e.message for e in tracer.select(category="a")] == [
            "one", "three",
        ]
        assert [e.message for e in tracer.select(since=1.5)] == [
            "two", "three",
        ]
        assert tracer.categories() == ["a", "b"]

    def test_capacity_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record(float(i), "c", f"m{i}")
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert [e.message for e in tracer.events] == ["m3", "m4"]

    def test_trace_ring_buffer_allocation_bound(self):
        """A capacity-bounded tracer does not grow past its ring."""
        tracer = Tracer(capacity=64)
        for i in range(1000):
            tracer.record(float(i), "cat", "msg")
        assert len(tracer) == 64
        assert tracer.dropped == 1000 - 64
        assert tracer.events[0].time == 1000 - 64

    def test_trace_event_has_no_instance_dict(self):
        assert hasattr(TraceEvent, "__slots__")
        assert not hasattr(object.__new__(TraceEvent), "__dict__")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_trace_noop_without_tracer(self):
        env = Environment()
        trace(env, "x", "nothing happens")  # must not raise

    def test_trace_records_env_time(self):
        env = Environment()
        env.tracer = Tracer()

        def proc(env):
            yield env.timeout(4.5)
            trace(env, "cat", "late")

        env.run(until=env.process(proc(env)))
        assert env.tracer.events[0].time == 4.5


class TestInstrumentation:
    def test_creation_emits_ordered_events(self):
        bed = build_testbed(seed=13, n_plants=2)
        tracer = Tracer()
        bed.env.tracer = tracer
        bed.run(bed.shop.create(experiment_request(32)))
        categories = [e.category for e in tracer.events]
        assert "shop" in categories
        assert "ppp" in categories
        assert "line" in categories
        messages = [e.message for e in tracer.events]
        # Causal order: bids → clone start → cloned → running → created.
        assert messages.index("bids-collected") < messages.index(
            "clone-start"
        )
        assert messages.index("clone-start") < messages.index("cloned")
        assert messages.index("vm-running") < messages.index("created")

    def test_uml_creation_emits_cloned(self):
        # Was: the UML line's clone never traced ``cloned``.
        bed = build_testbed(seed=13, n_plants=2, vm_types=("uml",))
        bed.env.tracer = Tracer()
        bed.run(bed.shop.create(experiment_request(32, vm_type="uml")))
        messages = [e.message for e in bed.env.tracer.events]
        assert messages.index("clone-start") < messages.index("cloned")
        assert messages.index("cloned") < messages.index("vm-running")

    def test_no_tracer_no_overhead_events(self):
        bed = build_testbed(seed=13, n_plants=2)
        bed.run(bed.shop.create(experiment_request(32)))
        assert getattr(bed.env, "tracer", None) is None

    def test_untraced_create_makes_no_trace_call(self):
        # Each trace point on the create path tests ``env.tracer``
        # itself, so without a tracer there is nothing to call.
        bed = build_testbed(seed=13, n_plants=2)
        bed.run(bed.shop.create(experiment_request(32)))
        counts = python_call_counts(
            lambda: bed.run(bed.shop.create(experiment_request(32)))
        )
        assert counts["VMShop._created"] == 1
        assert counts["trace"] == 0

    def test_traced_create_records_each_point_once(self):
        bed = build_testbed(seed=13, n_plants=2)
        bed.env.tracer = Tracer()
        bed.run(bed.shop.create(experiment_request(32)))
        messages = [e.message for e in bed.env.tracer.events]
        for message in (
            "bids-collected", "clone-start", "cloned",
            "clone-done", "vm-running", "created",
        ):
            assert messages.count(message) == 1, message

    def test_migration_traced(self):
        from repro.plant.migration import MigrationManager

        bed = build_testbed(seed=13, n_plants=2)
        tracer = Tracer()
        bed.env.tracer = tracer
        manager = MigrationManager(bed.env, link=bed.internode)
        bed.run(bed.plants[0].create(experiment_request(32), "vm1"))
        bed.run(manager.migrate(bed.plants[0], bed.plants[1], "vm1"))
        migration = tracer.select(category="migration")
        assert [e.message for e in migration] == ["start", "done"]
