"""An in-flight create is a shallow stack.

Every generator frame on the create path owns something: a ``try``, a
step after the inner call returns, or a trace target.  A layer that
only delegates returns the inner generator instead of wrapping it
(DESIGN, "Ownership and lifetime" → "Frame depth"), and a finished
process lets go of its generators, so what a site holds per request is
its live frames only.  The frames sit on the process's stack, not in a
``yield from`` chain, so a wake-up resumes only the top one.
"""

from __future__ import annotations

import gc

import pytest

from benchmarks.e2e.workloads import WORKLOADS
from repro.core.errors import ReproError
from repro.plant.speculative import AdaptiveSpeculativePool
from repro.shop.protocol import Transport
from repro.sim.cluster import build_testbed
from repro.sim.kernel import Environment, Interrupt, Process, SimulationError
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer
from repro.workloads.requests import experiment_request

from tests.helpers import drive, python_call_counts

#: A create parked at its warehouse transfer, outermost first.  Each
#: frame's reason to exist is in DESIGN's table; a new entry here is
#: a new layer every in-flight create pays for.
CREATE_CHAIN = (
    "VMShop.create",
    "Transport.call",
    "VMPlant.create",
    "ProductionProcessPlanner.produce",
    "_SimLine.clone",
    "NFSServer.copy_to_host",
)


def _frames(proc: Process):
    # Each sub-call is its own stack entry: none delegates by
    # ``yield from``, which would hide frames from this walk.
    assert all(gen.gi_yieldfrom is None for gen in proc._stack)
    return [gen.gi_code.co_qualname for gen in proc._stack]


class TestFinishedProcessReleasesItsFrame:
    def _check_dead(self, proc: Process) -> None:
        assert not proc.is_alive
        assert proc._stack is None
        assert "dead" in repr(proc)
        with pytest.raises(SimulationError):
            proc.interrupt("late")

    def test_returned(self):
        env = Environment()

        def body():
            yield env.timeout(1.0)
            return "done"

        proc = env.process(body())
        env.run()
        assert proc.value == "done"
        self._check_dead(proc)

    def test_raised(self):
        env = Environment()

        def body():
            yield env.timeout(1.0)
            raise ReproError("boom")

        def waiter(proc):
            with pytest.raises(ReproError):
                yield proc

        proc = env.process(body())
        drive(env, waiter(proc))
        self._check_dead(proc)

    def test_interrupted(self):
        env = Environment()

        def body():
            yield env.timeout(10.0)

        proc = env.process(body())
        env.call_later(1.0, lambda _ev: proc.interrupt("stop"))
        proc.defused = True
        env.run()
        assert isinstance(proc.value, Interrupt)
        self._check_dead(proc)

    def test_yielded_a_non_event(self):
        env = Environment()

        def body():
            yield "not an event"

        proc = env.process(body())
        proc.defused = True
        env.run()
        assert isinstance(proc.value, SimulationError)
        self._check_dead(proc)


@pytest.mark.parametrize("rack_size", [None, 4], ids=["direct", "broker"])
def test_create_parked_at_its_transfer_is_the_expected_chain(rack_size):
    # A broker routes and returns the plant's generator: the chain is
    # the same with or without one.
    bed = build_testbed(seed=1, n_plants=8, rack_size=rack_size)
    env = bed.env
    proc = env.process(bed.shop.create(experiment_request(32)))
    chain = []
    while proc.is_alive and (not chain or chain[-1] != CREATE_CHAIN[-1]):
        env.step()
        chain = _frames(proc)
    assert tuple(chain) == CREATE_CHAIN, (
        f"an in-flight create is {len(chain)} frames deep, "
        f"{len(CREATE_CHAIN)} expected:\n  " + "\n  ".join(chain)
    )
    env.run()
    assert proc.ok and proc._stack is None


def test_a_wake_of_the_parked_create_resumes_only_its_top(monkeypatch):
    # The warehouse transfer parks on two bare events, so the step that
    # fires one runs no model code: what it costs is the kernel's.
    bed = build_testbed(seed=1, n_plants=8)
    env = bed.env
    gates = [env.event(), env.event()]

    def copy_to_host(self, size_mb, host, files=1, pressured=True):
        for gate in gates:
            yield gate

    monkeypatch.setattr(NFSServer, "copy_to_host", copy_to_host)
    proc = env.process(bed.shop.create(experiment_request(32)))
    while proc._target is not gates[0]:
        env.step()
    chain = _frames(proc)
    assert chain[:-1] == list(CREATE_CHAIN[:-1])
    assert chain[-1].endswith(".copy_to_host")
    gates[0].succeed()
    while env._queue[0][3] is not gates[0]:
        env.step()
    # ``_resume`` plus the top generator, as for a one-frame process:
    # the five frames above it are not resumed.
    counts = python_call_counts(env.step)
    assert counts.pop("Environment.step") == 1
    assert dict(counts) == {"Process._resume": 1, chain[-1]: 1}
    assert proc._target is gates[1] and len(proc._stack) == len(chain)
    gates[1].succeed()
    env.run()
    assert proc.ok and proc._stack is None


class TestWhatASleepCosts:
    """A jittered stage is ``yield base * rng.lognormal(...)``: the draw
    is one call, the wake one more (``_SimLine._jitter``, the stdlib's
    ``normalvariate``, ``Environment.timeout`` and ``Timeout.__init__``
    made it six)."""

    def test_a_hypervisor_sleep_is_a_draw_and_a_wake(self):
        # One plant, so the third create's streams are all resident.
        bed = build_testbed(seed=1, n_plants=1)
        env = bed.env
        for i in range(2):
            drive(env, bed.shop.create(experiment_request(32)))
        proc = env.process(bed.shop.create(experiment_request(32)))

        def parked_at():
            top = proc._stack[-1]
            stage = top.gi_frame.f_locals.get("stage")
            return top.gi_code.co_qualname, stage

        while parked_at() != ("_SimLine.execute_action", "iso-build"):
            env.step()
        while env._queue[0][3] is not proc._target:
            env.step()
        # The ISO-build timer fires: the action wakes and draws the
        # connect stage's jitter.
        counts = python_call_counts(env.step)
        assert counts.pop("Environment.step") == 1
        assert counts.pop("_SimLine.execute_action") == 1
        assert dict(counts) == {"RngHub.lognormal": 1, "Process._resume": 1}
        assert parked_at()[1] == "iso-connect"
        env.run()
        assert proc.ok

    def test_a_transport_hop_is_one_way_a_draw_and_a_wake(self):
        env = Environment()
        transport = Transport(env, rng=RngHub(1))

        def echo(x):
            return x

        def client():
            return (yield transport.call(echo, 7))

        drive(env, client())  # fills the timer free list
        proc = env.process(client())
        counts = python_call_counts(env.run)
        assert proc.value == 7
        # Two hops, each ``lognormal`` + ``_resume`` (a ``_one_way``
        # helper per hop made it three); the rest is the call's own
        # frame (three resumes) and handler, and the client process's
        # start, end and third ``_resume``.
        local = client.__qualname__[: -len("client")]
        assert dict(counts) == {
            "RngHub.lognormal": 2,
            "Process._resume": 3,
            "Transport.call": 3,
            local + "echo": 1,
            local + "client": 2,
            "Environment.run": 1,
            "Event.succeed": 1,
            "Environment.schedule": 1,
        }


def test_pooled_site_keeps_no_process_per_finished_arrival(monkeypatch):
    # With speculative pools the arrivals loop waits for its requests
    # to drain before shutting the pools down; it must count them, not
    # keep them.  Census taken when the pools shut down, i.e. with
    # every arrival of that site finished.
    # Only this run's processes count: whatever earlier tests left for
    # the collector is held here, so none of its ids can be reused.
    workload = WORKLOADS["grid_overload"]
    params = {**workload.scaled(0.05), **workload.inprocess_overrides}
    census = []
    shutdown = AdaptiveSpeculativePool.shutdown
    earlier = [obj for obj in gc.get_objects() if type(obj) is Process]
    theirs = {id(proc) for proc in earlier}

    def counted(self):
        census.append(
            sum(
                1
                for obj in gc.get_objects()
                if type(obj) is Process
                and not obj.is_alive
                and id(obj) not in theirs
            )
        )
        return shutdown(self)

    monkeypatch.setattr(AdaptiveSpeculativePool, "shutdown", counted)
    outcome = workload.run(workload.setup(2004, params))
    assert census and outcome.summary.total("ok") > 0
    # Kept per request, this read 50 to 162 (50 arrivals a site).
    assert max(census) < params["sites"], census
