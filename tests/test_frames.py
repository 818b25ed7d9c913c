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

import ast
import dis
import gc
import inspect
import sys
from pathlib import Path
from types import GeneratorType

import pytest

from benchmarks.e2e.workloads import WORKLOADS
from benchmarks.perf.parked import REQUEST_FRAME, park_grid_creates
from repro.core.errors import ReproError
from repro.plant.speculative import AdaptiveSpeculativePool
from repro.shop.protocol import Transport
from repro.sim.cluster import build_testbed
from repro.sim.kernel import Environment, Interrupt, Process, SimulationError
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer
from repro.workloads.requests import experiment_request

from tests.helpers import drive, python_call_counts, traced_footprints

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

#: The same create on a grid site, under the scenario's request frame.
#: ``FederationGateway.place`` returns the shop's create (a tail call),
#: so it keeps no frame while the create runs.
GRID_CREATE_CHAIN = (REQUEST_FRAME,) + CREATE_CHAIN

#: Every generator in ``src/`` that returns a generator, each a tail
#: call the kernel runs in its place; a generator that returns one as
#: data would have it run instead.
TAIL_CALLS = {("FederationGateway.place", "create")}

#: ``return ad.copy()`` in a generator: a classad's copy, which is data,
#: read from the source as a call of a name the coalescer's ``copy``
#: generator also has.
RETURNS_A_COPY = {
    ("MigrationManager.migrate", "copy"),
    ("VMPlant.create", "copy"),
    ("VMPlant.destroy", "copy"),
    ("VMPlant.extend", "copy"),
}

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _frames(proc: Process):
    # Each sub-call is its own stack entry: none delegates by
    # ``yield from``, which would hide frames from this walk.
    assert all(gen.gi_yieldfrom is None for gen in proc._stack)
    return [gen.gi_code.co_qualname for gen in proc._stack]


class TestFinishedProcessReleasesItsFrame:
    def _check_dead(self, proc: Process) -> None:
        assert not proc.is_alive
        assert proc._stack is None
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
    made it six).  A guest action's four stages draw up front and
    share one wake."""

    @staticmethod
    def _third_create():
        # One plant, so the third create's streams are all resident.
        bed = build_testbed(seed=1, n_plants=1)
        env = bed.env
        for i in range(2):
            drive(env, bed.shop.create(experiment_request(32)))
        return bed, env.process(bed.shop.create(experiment_request(32)))

    def test_a_clone_stage_is_a_draw_and_a_wake(self):
        bed, proc = self._third_create()
        env = bed.env

        def parked_at():
            top = proc._stack[-1]
            stage = top.gi_frame.f_locals.get("stage")
            return top.gi_code.co_qualname, stage

        while parked_at() != ("_SimLine.clone", "clone-fixed"):
            env.step()
        while env._queue[0][3] is not proc._target:
            env.step()
        # The clone's setup timer fires: the clone wakes, reads the
        # host's memory pressure and draws the resume stage's jitter.
        counts = python_call_counts(env.step)
        assert counts.pop("Environment.step") == 1
        assert counts.pop("_SimLine.clone") == 1
        assert counts.pop("PhysicalHost.pressure_factor") == 1
        assert counts.pop("PhysicalHost.utilization") == 1
        assert dict(counts) == {"RngHub.lognormal": 1, "Process._resume": 1}
        assert parked_at()[1] == "resume"
        env.run()
        assert proc.ok

    def test_an_actions_guest_stages_are_four_draws_and_one_wake(
        self, monkeypatch
    ):
        bed, proc = self._third_create()
        env = bed.env
        prefix = bed.plants[0].lines["vmware"]._prefix
        drawn = []
        lognormal = RngHub.lognormal

        def recorded(hub, name, mu, sigma):
            drawn.append(name)
            return lognormal(hub, name, mu, sigma)

        monkeypatch.setattr(RngHub, "lognormal", recorded)

        def parked_wake():
            top = proc._stack[-1]
            if top.gi_code.co_qualname != "_SimLine.execute_action":
                return None
            return top.gi_frame.f_locals.get("wake")

        while parked_wake() is None:
            drawn.clear()
            env.step()
        # The ISO is built, connected and mounted and the script run
        # in one step: four draws, in the order the stages run ...
        assert drawn[-4:] == [
            prefix + "iso-build",
            prefix + "iso-connect",
            prefix + "guest-mount",
            prefix + "script/configure-network",
        ]
        # ... and one timer, keyed at the chained wake itself.
        wake = parked_wake()
        action = proc._stack[-1]
        assert [
            key for key, _, _, ev in env._queue if ev is proc._target
        ] == [wake]
        while env._queue[0][3] is not proc._target:
            env.step()
        env.step()
        # That one wake ends the action.
        assert env.now == wake
        assert action.gi_frame is None
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
        before = env.executed_events
        counts = python_call_counts(env.run)
        assert proc.value == 7
        # Two hops, each one ``lognormal``: with nothing else queued
        # each hop's sleep is next and runs on in place, no wake (a
        # queued one was a ``_resume`` per hop, and a ``_one_way``
        # helper made it three calls).  The rest is the call's own
        # frame (three resumes) and handler, and the client process's
        # start, end and one ``_resume``; ``run()`` is ``run_below(inf)``.
        # The end is one call: decided, it fires in place (it was
        # ``succeed`` and ``schedule``, and a queued event).
        local = client.__qualname__[: -len("client")]
        assert dict(counts) == {
            "RngHub.lognormal": 2,
            "Process._resume": 1,
            "Transport.call": 3,
            local + "echo": 1,
            local + "client": 2,
            "Environment.run": 1,
            "Environment.run_below": 1,
            "Environment._fire": 1,
        }
        assert env.executed_events - before == 1  # the start, Initialize


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


class TestParkedGridCreate:
    def test_is_the_request_frame_then_the_create_chain(self):
        _, parked = park_grid_creates(20)
        chains = {tuple(_frames(proc)) for proc in parked}
        assert chains == {GRID_CREATE_CHAIN}, chains

    def test_holds_a_bounded_number_of_bytes(self):
        # What the parked creates hold is what goes when they go
        # (``tests.footprints.parked_grid_create``).  4,308 B a create
        # at the time of writing (2,480 B of it the seven frames; it
        # moves by about a byte between runs), pinned with 1 % headroom;
        # 4,451 B with a decoded ``SoftwareSpec`` and ``os`` / ``vm-type``
        # strings of its own, 5,846 B with a gateway frame, the bid
        # round, the client's request, a cell and the configuration
        # context held across the transfer.  Under a profiler (the e2e
        # benchmark's call counter), which gives each generator a frame
        # object too, it reads 6,564 B (``E2E_parked_create.json``).
        per_create = traced_footprints()["parked_grid_create"]
        assert 3_000 <= per_create <= 4_360, per_create


def _tail_call_sites():
    """``(qualname, callee)`` of every ``return f(...)`` in a generator
    function of ``src/`` whose callee may be a generator function of
    ``src/``: ``self.f`` is the enclosing class's own ``f`` where it
    has one, any other ``f`` is every function of that name."""
    trees = [ast.parse(path.read_text()) for path in SRC.rglob("*.py")]

    def own_nodes(fn):
        # The function's body without nested functions and classes.
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            yield node
            if not isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef),
            ):
                todo.extend(ast.iter_child_nodes(node))

    functions = []  # (qualname, def node), with every enclosing class

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                functions.append((prefix + child.name, child))
                walk(child, prefix + child.name + ".<locals>.")
            else:
                walk(child, prefix)

    for tree in trees:
        walk(tree, "")
    generators = {
        name: fn
        for name, fn in functions
        if any(
            isinstance(node, (ast.Yield, ast.YieldFrom))
            for node in own_nodes(fn)
        )
    }
    generator_names = {name.rsplit(".", 1)[-1] for name in generators}
    defined = {name for name, _ in functions}
    sites = set()
    for name, fn in generators.items():
        owner = name.rsplit(".", 1)[0] + "."
        for node in own_nodes(fn):
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Call
            ):
                func = node.value.func
                callee = getattr(func, "attr", getattr(func, "id", None))
                if (
                    isinstance(func, ast.Attribute)
                    and getattr(func.value, "id", None) == "self"
                    and owner + callee in defined
                ):
                    if owner + callee in generators:
                        sites.add((name, callee))
                elif callee in generator_names:
                    sites.add((name, callee))
    return sites


def test_every_generator_returning_a_generator_is_a_tail_call():
    # Read from the source: a new ``return f(...)`` in a generator,
    # ``f`` possibly a generator function, is either a tail call or
    # data that needs a reason here.
    assert _tail_call_sites() == TAIL_CALLS | RETURNS_A_COPY


def test_the_workloads_return_no_generator_as_data():
    # Watched as they run: every generator of ``src/`` whose frame
    # returns (not yields) a generator, over the five end-to-end
    # workloads at a small scale, in process.  A plain function that
    # returns one (a broker routing a create) is not a tail call and
    # is not watched.
    returning = set()
    src = str(SRC)
    return_op = dis.opmap["RETURN_VALUE"]

    def watch(frame, event, arg):
        code = frame.f_code
        if (
            event == "return"
            and type(arg) is GeneratorType
            and code.co_flags & inspect.CO_GENERATOR
            and code.co_code[frame.f_lasti] == return_op
            and code.co_filename.startswith(src)
        ):
            returning.add(code.co_qualname)

    for workload in WORKLOADS.values():
        params = {
            **workload.scaled(0.02), **workload.inprocess_overrides
        }
        inputs = workload.setup(2004, params)
        sys.setprofile(watch)
        try:
            workload.run(inputs)
        finally:
            sys.setprofile(None)
    assert returning == {name for name, _ in TAIL_CALLS}
