"""A finished simulation frees itself: reference counting alone.

Every object graph the simulator builds points from owner to owned
only (DESIGN, "Ownership and lifetime"), so nothing here may leave
work to the cycle collector: one case per reference cycle the code
used to make, then the five end-to-end workload shapes and a bare
testbed.  ``cyclic_garbage`` runs each with the collector off and
reports what only a collection could free.
"""

from __future__ import annotations

import traceback

import pytest

from benchmarks.e2e.workloads import WORKLOADS
from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.dagxml import dag_from_xml, dag_to_xml
from repro.core.errors import PlantError, ReproError, StorageError
from repro.core.matchindex import MatchIndex
from repro.core.spec import HardwareSpec
from repro.plant.vmplant import VMPlant
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.provisioning import ProvisioningConfig
from repro.shop.registry import ServiceRegistry
from repro.shop.vmshop import VMShop
from repro.sim.cluster import build_testbed
from repro.sim.host import PhysicalHost
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer
from repro.sim.trace import Tracer
from repro.workloads.requests import experiment_request

from tests.helpers import InstantLine, cyclic_garbage, drive

NOTHING = (0, {})


class TestFormerCycles:
    def test_bid_round(self):
        # Was: the fail / reply / advance closures of Transport.gather
        # referring to each other, one knot per round.
        def rounds():
            bed = build_testbed(seed=3, n_plants=3)
            request = experiment_request(32)
            for _ in range(3):
                drive(
                    bed.env,
                    bed.shop.collector.collect(bed.shop.bidders, request),
                )

        assert cyclic_garbage(rounds) == NOTHING

    def test_decoded_param(self):
        # Was: ast.literal_eval's self-referencing converter, once per
        # decoded <param> and once per rendered string parameter.
        action = Action(
            "a",
            command="run {user} {n} {share} {on}",
            params={"user": "alice", "n": -3, "share": 2.5, "on": True},
        )
        text = dag_to_xml(ConfigDAG.from_sequence([action]))

        def decode():
            decoded = dag_from_xml(text).action("a")
            assert decoded == action
            rendered = decoded.rendered_command()
            assert rendered == "run alice -3 2.5 True"

        assert cyclic_garbage(decode) == NOTHING

    def test_match_trie(self):
        # Was: _Node.parent <-> children.
        def index():
            hw = HardwareSpec(memory_mb=32)
            steps = tuple(Action(f"s{i}", command="x") for i in range(4))
            trie = MatchIndex()
            for n in range(5):
                trie.add(
                    GoldenImage(
                        f"img{n}", "vmware", "os", hw, performed=steps[:n]
                    )
                )
            trie.remove("img2")

        assert cyclic_garbage(index) == NOTHING

    def test_timer_pool(self):
        # Was: Environment._timeout_pool <-> _PooledTimeout.env.
        def timers():
            env = Environment()
            for delay in (1.0, 2.0, 2.0):
                env.call_later(delay, lambda _ev: None)
            env.run()

        assert cyclic_garbage(timers) == NOTHING

    def test_shop_in_its_registry(self):
        # Was: VMShop.registry -> its own ServiceEntry.binding.
        def site():
            registry = ServiceRegistry()
            shop = VMShop(Environment(), registry=registry)
            assert registry.bind("vmshop") is shop
            assert shop.discover_plants() == 0

        assert cyclic_garbage(site) == NOTHING

    def test_speculative_pools(self):
        # Was: VMPlant.speculative <-> manager.plant <-> pool.plant.
        def pooled():
            bed = build_testbed(
                seed=5,
                n_plants=2,
                provisioning=ProvisioningConfig(speculative_pools=True),
            )

            def client():
                for i in range(4):
                    yield from bed.shop.create(
                        experiment_request(32, client_id=f"c{i}")
                    )
                for pool in bed.pools:
                    yield from pool.shutdown()

            bed.run(client())
            assert sum(pool.pool_count for pool in bed.pools) > 0

        assert cyclic_garbage(pooled) == NOTHING

    def test_decided_condition_lets_go_of_pending_children(self):
        # Was: a decided AnyOf stayed registered on (and reachable
        # from) its deadline timer until that popped.
        env = Environment()
        ack, deadline = env.event(), env.timeout(400.0)
        race = env.any_of([ack, deadline])
        ack.succeed("ack")
        assert env.run(until=race) == {ack: "ack"}
        assert env.peek() == 400.0
        assert not any(
            getattr(waiter, "__self__", None) is race
            for waiter in deadline.callbacks
        )
        # A failure arriving after the decision is still defused.
        late = env.event()
        env.any_of([env.timeout(1.0), late])
        env.run(until=402.0)
        late.fail(RuntimeError("late"))
        env.run()

    def test_failed_create(self):
        # Was: VMShop.create kept ``last_error`` in the frame that the
        # error's traceback holds (and with it the whole site).
        def site():
            env = Environment()
            env.tracer = Tracer()
            request = experiment_request(32)
            first = request.dag.action(request.dag.topological_sort()[0])
            image = GoldenImage(
                "img", "vmware", request.software.os, request.hardware,
                performed=(first,),
            )
            shop = VMShop(env, rng=RngHub(5), retry_other_plants=True)
            for i in range(2):
                lines = {"vmware": InstantLine(env, fail_clones=1)}
                shop.register_plant(
                    VMPlant(env, f"p{i}", VMWarehouse([image]), lines)
                )

            def client():
                with pytest.raises(PlantError):
                    yield from shop.create(request)
                yield from shop.create(request)

            drive(env, client())
            outcomes = [
                e.message for e in env.tracer.select("shop")
                if e.message in ("created", "create-failed")
            ]
            assert outcomes == ["create-failed", "create-failed", "created"]
            assert (shop.creates_ok, shop.creates_failed) == (1, 2)

        assert cyclic_garbage(site) == NOTHING

    def test_failed_process(self):
        # Was: Process._resume's frame, in the traceback of the
        # exception the process it holds was failed with.
        def crash():
            env = Environment()

            def child():
                yield env.timeout(1.0)
                raise ReproError("boom")

            def parent():
                try:
                    yield env.process(child())
                except ReproError as exc:
                    # The traceback still leads to where it was raised.
                    frames = traceback.extract_tb(exc.__traceback__)
                    assert frames[-1].name == "child"
                else:
                    raise AssertionError("the child's failure got lost")

            drive(env, parent())

        assert cyclic_garbage(crash) == NOTHING

    def test_failed_coalesced_transfer(self):
        # Was: the leader's frame -> entry -> error -> traceback.
        def outage():
            env = Environment()
            nfs = NFSServer(env, rng=RngHub(3))
            host = PhysicalHost(env, "node0")
            failed = []

            def copy():
                try:
                    yield from nfs.coalescer.copy(
                        nfs, ("node0", "img"), 48.1, host, files=3
                    )
                except StorageError:
                    failed.append(env.now)

            env.process(copy())
            env.process(copy())
            env.call_later(2.0, lambda _ev: nfs.begin_outage("abort"))
            env.run()
            assert len(failed) == 2

        assert cyclic_garbage(outage) == NOTHING


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_shape_leaves_nothing_to_collect(name):
    workload = WORKLOADS[name]
    params = {**workload.scaled(0.05), **workload.inprocess_overrides}

    def repetition():
        outcome = workload.run(workload.setup(2004, params))
        assert outcome.summary.total("ok") > 0

    assert cyclic_garbage(repetition) == NOTHING


@pytest.mark.parametrize("creates", [0, 1, 20])
def test_bare_testbed_leaves_nothing_to_collect(creates):
    def site():
        bed = build_testbed(seed=1, n_plants=8)

        def client():
            for i in range(creates):
                yield from bed.shop.create(
                    experiment_request(32, client_id=f"c{i}")
                )

        bed.run(client())

    assert cyclic_garbage(site) == NOTHING
