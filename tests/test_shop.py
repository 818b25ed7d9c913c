"""Unit tests for VMShop, bidding, brokers, registry and transport."""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.classad import ClassAd
from repro.core.dag import ConfigDAG
from repro.core.errors import ProtocolError, ShopError
from repro.core.errors import PlantError
from repro.core.spec import (
    CreateRequest,
    DestroyRequest,
    HardwareSpec,
    NetworkSpec,
    QueryRequest,
    SoftwareSpec,
)
from repro.faults.recovery import RecoveryPolicy
from repro.plant.vmplant import VMPlant
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.shop.bidding import Bid, BidCollector
from repro.shop.broker import VMBroker
from repro.shop.protocol import (
    Transport,
    service_request_from_xml,
    service_request_to_xml,
)
from repro.shop.registry import ServiceRegistry
from repro.shop.vmshop import VMShop
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub
from repro.sim.trace import Tracer

from repro.sim.cluster import build_testbed
from repro.workloads.requests import experiment_request

from tests.oracles.queued_decided import every_decided_event_queued
from tests.helpers import (
    InstantLine,
    cyclic_garbage,
    drive,
    oracle_collect,
    oracle_gather,
    python_calls,
)

OS = "testos"


def base_action():
    return Action("install-os", scope="host", command="install")


def make_image(mem=32):
    return GoldenImage(
        image_id=f"img{mem}", vm_type="vmware", os=OS,
        hardware=HardwareSpec(memory_mb=mem),
        performed=(base_action(),), memory_state_mb=float(mem),
    )


def make_request(mem=32, domain="d"):
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=mem),
        software=SoftwareSpec(
            os=OS, dag=ConfigDAG.from_sequence([base_action()])
        ),
        network=NetworkSpec(domain=domain),
        client_id="tester",
        vm_type="vmware",
    )


def select(collector, bids):
    """The winning bid: minimum cost, random among exact ties.

    The reference for ``BidCollector.rank``: ranking by repeated
    select + remove draws the ``bid-tie`` stream exactly as ``rank``.
    """
    if not bids:
        raise ShopError("no plant bid for the request")
    best_cost = min(bid.cost for bid in bids)
    winners = [bid for bid in bids if bid.cost == best_cost]
    if len(winners) == 1:
        return winners[0]
    return collector.rng.choice("bid-tie", winners)


def make_site(env, n_plants=2, fail_clones_on=None, registry=None):
    warehouse = VMWarehouse([make_image()])
    shop = VMShop(env, rng=RngHub(5), registry=registry)
    plants = []
    for i in range(n_plants):
        line = InstantLine(
            env,
            clone_time=5 + i,  # plant0 is fastest
            fail_clones=(1 if fail_clones_on == i else 0),
        )
        plant = VMPlant(env, f"p{i}", warehouse, {"vmware": line})
        plants.append(plant)
        shop.register_plant(plant)
    return shop, plants


class TestTransport:
    def test_call_charges_latency(self):
        env = Environment()
        transport = Transport(env, latency_s=0.5, jitter_sigma=0.0)

        def proc(env):
            result = yield from transport.call(lambda: 42)
            return (result, env.now)

        value, elapsed = drive(env, proc(env))
        assert value == 42
        assert elapsed == pytest.approx(1.0)

    def test_call_drives_generator_handlers(self):
        env = Environment()
        transport = Transport(env, latency_s=0.0)

        def handler():
            yield env.timeout(3)
            return "done"

        def proc(env):
            result = yield from transport.call(handler)
            return (result, env.now)

        assert drive(env, proc(env)) == ("done", 3.0)

    def test_call_passes_its_arguments_to_the_handler(self):
        env = Environment()
        transport = Transport(env, latency_s=0.0)

        def handler(delay, answer):
            yield env.timeout(delay)
            return answer

        def proc(env):
            plain = yield from transport.call(divmod, 17, 5)
            driven = yield from transport.call(handler, 2.0, "late")
            return plain, driven, env.now

        assert drive(env, proc(env)) == ((3, 2), "late", 2.0)
        assert transport.calls == 2

    def test_zero_latency_allowed(self):
        env = Environment()
        transport = Transport(env, latency_s=0.0)

        def proc(env):
            result = yield from transport.call(lambda: "x")
            return env.now

        assert drive(env, proc(env)) == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Transport(Environment(), latency_s=-1)


class TestServiceXML:
    def test_query_roundtrip(self):
        request = QueryRequest(vmid="vm-7", attributes=("status", "ip"))
        service, back = service_request_from_xml(
            service_request_to_xml(request)
        )
        assert service == "query" and back == request

    def test_destroy_roundtrip(self):
        request = DestroyRequest(
            vmid="vm-7", commit=True, publish_as="newimg"
        )
        service, back = service_request_from_xml(
            service_request_to_xml(request)
        )
        assert service == "destroy" and back == request

    def test_create_roundtrip(self):
        request = make_request()
        service, back = service_request_from_xml(
            service_request_to_xml(request)
        )
        assert service == "create"
        assert back.hardware == request.hardware

    def test_estimate_wraps_create_body(self):
        text = service_request_to_xml(make_request(), service="estimate")
        service, back = service_request_from_xml(text)
        assert service == "estimate"
        assert back.hardware.memory_mb == 32

    def test_unknown_service_rejected(self):
        with pytest.raises(ProtocolError):
            service_request_from_xml(
                '<vmplant-request service="meow" vmid="x"/>'
            )

    def test_query_missing_vmid_rejected(self):
        with pytest.raises(ProtocolError):
            service_request_from_xml('<vmplant-request service="query"/>')


class TestBidding:
    def test_collect_gathers_all_bids(self):
        env = Environment()
        shop, plants = make_site(env, n_plants=3)
        collector = shop.collector

        def proc(env):
            bids = yield from collector.collect(
                shop.bidders, make_request()
            )
            return bids

        bids = drive(env, proc(env))
        assert len(bids) == 3
        assert {b.bidder_name for b in bids} == {"p0", "p1", "p2"}

    def test_select_minimum(self):
        env = Environment()
        collector = BidCollector(env, Transport(env), RngHub(1))
        bids = [
            Bid("a", 10.0, None),
            Bid("b", 3.0, None),
            Bid("c", 7.0, None),
        ]
        assert select(collector, bids).bidder_name == "b"

    def test_select_tie_is_deterministic_per_seed(self):
        env = Environment()
        bids = [Bid("a", 5.0, None), Bid("b", 5.0, None)]
        pick1 = select(BidCollector(env, Transport(env), RngHub(3)), bids)
        pick2 = select(BidCollector(env, Transport(env), RngHub(3)), bids)
        assert pick1.bidder_name == pick2.bidder_name

    def test_select_empty_raises(self):
        env = Environment()
        collector = BidCollector(env, Transport(env))
        with pytest.raises(ShopError):
            select(collector, [])

    def test_rank_orders_by_cost(self):
        env = Environment()
        collector = BidCollector(env, Transport(env), RngHub(1))
        bids = [
            Bid("a", 10.0, None),
            Bid("b", 3.0, None),
            Bid("c", 7.0, None),
        ]
        assert [b.bidder_name for b in collector.rank(bids)] == [
            "b", "c", "a",
        ]

    def test_rank_matches_reference_orderings_seed_2004(self):
        """The single-pass rank is pinned to the naive reference.

        The grouped implementation must consume the ``bid-tie`` stream
        exactly like the former repeated select+remove loop, so both
        collectors (same seed) must produce identical orderings on a
        seed-2004 suite of random tie-heavy bid sets.
        """
        import random as _random

        env = Environment()
        grouped = BidCollector(env, Transport(env), RngHub(2004))
        reference = BidCollector(env, Transport(env), RngHub(2004))

        def reference_rank(collector, bids):
            remaining = list(bids)
            ordered = []
            while remaining:
                chosen = select(collector, remaining)
                ordered.append(chosen)
                remaining.remove(chosen)
            return ordered

        gen = _random.Random(2004)
        for _ in range(100):
            bids = [
                Bid(f"p{i}", float(gen.choice((1, 2, 3))), object())
                for i in range(gen.randrange(1, 12))
            ]
            assert [
                b.bidder_name for b in grouped.rank(bids)
            ] == [
                b.bidder_name for b in reference_rank(reference, bids)
            ]


class TestVMShop:
    def test_create_query_destroy_cycle(self):
        env = Environment()
        shop, plants = make_site(env)
        ad = drive(env, shop.create(make_request()))
        vmid = str(ad["vmid"])
        assert vmid.startswith("vmshop-vm-")
        queried = drive(env, shop.query(vmid))
        assert queried["status"] == "running"
        final = drive(env, shop.destroy(vmid))
        assert final["status"] == "collected"
        assert shop.active_vmids() == []

    def test_balanced_distribution_with_memory_cost(self):
        env = Environment()
        shop, plants = make_site(env, n_plants=2)
        for _ in range(4):
            drive(env, shop.create(make_request()))
        counts = [p.active_vm_count() for p in plants]
        assert counts == [2, 2]

    def test_no_bids_raises(self):
        env = Environment()
        shop = VMShop(env)
        with pytest.raises(ShopError, match="no plant bid"):
            drive(env, shop.create(make_request()))

    def test_unknown_vmid_raises(self):
        env = Environment()
        shop, _ = make_site(env)
        with pytest.raises(ShopError):
            drive(env, shop.query("ghost"))

    def test_plant_failure_surfaces_by_default(self):
        env = Environment()
        shop, plants = make_site(env, n_plants=1, fail_clones_on=0)
        from repro.core.errors import PlantError

        with pytest.raises(PlantError):
            drive(env, shop.create(make_request()))
        assert (shop.creates_ok, shop.creates_failed) == (0, 1)

    def test_retry_other_plants_falls_through(self):
        env = Environment()
        warehouse = VMWarehouse([make_image()])
        shop = VMShop(env, rng=RngHub(5), retry_other_plants=True)
        # p0 bids lowest (fewest VMs... equal) but always fails clones.
        failing = VMPlant(
            env, "p0", warehouse,
            {"vmware": InstantLine(env, clone_time=1, fail_clones=99)},
        )
        working = VMPlant(
            env, "p1", warehouse, {"vmware": InstantLine(env)}
        )
        shop.register_plant(failing)
        shop.register_plant(working)
        ad = drive(env, shop.create(make_request()))
        assert ad["plant"] == "p1"

    def test_every_query_asks_the_plant(self):
        """The shop keeps routes, not classads (Section 3.1): each
        query is one transport call, answered by the plant's infosys."""
        env = Environment()
        shop, plants = make_site(env)
        ad = drive(env, shop.create(make_request()))
        vmid = str(ad["vmid"])
        plant = next(p for p in plants if p.name == ad["plant"])
        plant.infosys.update(vmid, {"load": 7})
        for _ in range(2):
            calls_before = shop.transport.calls
            queried = drive(env, shop.query(vmid))
            assert shop.transport.calls == calls_before + 1
            assert queried["vmid"] == vmid
            assert queried["load"] == 7

    def test_query_accepts_generator_attributes(self):
        """A generator projection is read once and reaches the plant
        whole; the full ad stays the plant's."""
        env = Environment()
        shop, plants = make_site(env)
        ad = drive(env, shop.create(make_request()))
        vmid = str(ad["vmid"])
        projected = drive(
            env,
            shop.query(vmid, (n for n in ("vmid", "status"))),
        )
        assert dict(projected.items()).keys() == {"vmid", "status"}
        assert "plant" in drive(env, shop.query(vmid))

    def test_recover_rebuilds_routing(self):
        env = Environment()
        shop, plants = make_site(env)
        ad = drive(env, shop.create(make_request()))
        vmid = str(ad["vmid"])
        # Simulate a shop restart: drop all soft state.
        shop._route.clear()
        assert shop.recover() == 1
        queried = drive(env, shop.query(vmid))
        assert queried["vmid"] == vmid

    def test_estimate_exposes_bids(self):
        env = Environment()
        shop, _ = make_site(env, n_plants=3)
        bids = drive(env, shop.estimate(make_request()))
        assert len(bids) == 3

    def test_suspended_create_does_not_hold_its_wire_text(self):
        # The generator's frame lives until the VM is ready; a local
        # bound to the request's wire text kept ~0.9 KB alive per
        # in-flight create, hundreds at a time under an overload.
        env = Environment()
        shop, _ = make_site(env)
        request = experiment_request(32)
        assert len(service_request_to_xml(request)) > 256
        create = shop.create(request)
        create.send(None)  # suspended in the bid round
        assert [
            name
            for name, value in create.gi_frame.f_locals.items()
            if isinstance(value, str) and len(value) > 256
        ] == []
        create.close()


class TestCreateFromBids:
    """``create(bids=)``: the caller's estimate round stands in for the
    shop's own, at the instant it was collected and only then."""

    def make_shop(self, env, n_plants=3, seed=5, **shop_kw):
        warehouse = VMWarehouse([make_image()])
        shop = VMShop(env, rng=RngHub(seed), **shop_kw)
        plants = []
        for i in range(n_plants):
            line = InstantLine(env, clone_time=5)
            plants.append(VMPlant(env, f"p{i}", warehouse, {"vmware": line}))
            shop.register_plant(plants[-1])
        return shop, plants

    @staticmethod
    def counters(shop):
        return (
            shop.collector.collections,
            shop.collector.bids_collected,
            shop.transport.calls,
        )

    def test_one_collection_per_placement(self):
        env = Environment()
        shop, _ = self.make_shop(env)

        def client():
            bids = yield from shop.estimate(make_request())
            ad = yield from shop.create(make_request(), bids=bids)
            return ad

        ad = drive(env, client())
        assert ad["status"] == "running"
        # One round of three bids, plus the create's own transport call
        # (a collecting create would make it 2 rounds, 6 bids, 7 calls).
        assert self.counters(shop) == (1, 3, 4)

    def test_bids_are_stamped_with_their_instant(self):
        env = Environment()
        shop, _ = self.make_shop(env)

        def client():
            yield env.timeout(7.0)
            bids = yield from shop.estimate(make_request())
            return bids, env.now

        bids, collected_at = drive(env, client())
        assert collected_at > 7.0
        assert [bid.at for bid in bids] == [collected_at] * 3

    def test_stale_bids_are_refused_not_recollected(self):
        env = Environment()
        shop, _ = self.make_shop(env)

        def client():
            bids = yield from shop.estimate(make_request())
            yield env.timeout(0.001)
            yield from shop.create(make_request(), bids=bids)

        with pytest.raises(ShopError, match="stale bid"):
            drive(env, client())
        # No second round, no create call, no VMID spent.
        assert self.counters(shop) == (1, 3, 3)
        assert (shop.creates_ok, shop.creates_failed) == (0, 0)
        assert shop.next_vmid().endswith("1")

    def test_hand_made_bids_are_refused(self):
        env = Environment()
        shop, plants = self.make_shop(env)
        with pytest.raises(ShopError, match="stale bid"):
            drive(
                env,
                shop.create(
                    make_request(), bids=[Bid("p0", 1.0, plants[0])]
                ),
            )

    def test_empty_round_is_a_no_bid_failure(self):
        env = Environment()
        shop, _ = self.make_shop(env)
        with pytest.raises(ShopError, match="no plant bid"):
            drive(env, shop.create(make_request(), bids=[]))
        assert self.counters(shop) == (0, 0, 0)

    def quarantine_shop(self, env):
        shop, plants = self.make_shop(
            env,
            recovery=RecoveryPolicy(
                quarantine_threshold=1, quarantine_s=1000.0
            ),
        )
        # p0 would win every tie-free ranking: make it the cheapest.
        for plant in plants[1:]:
            drive(env, plant.create(make_request(), f"load-{plant.name}"))
        return shop, plants

    def test_quarantined_bidders_reused_bid_is_dropped(self):
        env = Environment()
        shop, plants = self.quarantine_shop(env)
        shop._health_for("p0").record_failure(env.now)

        def client():
            bids = yield from shop.estimate(make_request())
            assert min(bids, key=lambda b: b.cost).bidder is plants[0]
            ad = yield from shop.create(make_request(), bids=bids)
            return ad

        assert drive(env, client())["plant"] in ("p1", "p2")

    def test_all_quarantined_round_keeps_everyone(self):
        env = Environment()
        shop, plants = self.quarantine_shop(env)
        for plant in plants:
            shop._health_for(plant.name).record_failure(env.now)

        def client():
            bids = yield from shop.estimate(make_request())
            ad = yield from shop.create(make_request(), bids=bids)
            return ad

        # The desperation round: cheapest of all, quarantined or not.
        assert drive(env, client())["plant"] == "p0"

    def test_second_attempt_collects_fresh(self):
        env = Environment()
        shop, plants = self.make_shop(
            env,
            n_plants=1,
            recovery=RecoveryPolicy(max_attempts=2, backoff_base_s=3.0),
        )
        plants[0].lines["vmware"].fail_clones = 1

        def client():
            bids = yield from shop.estimate(make_request())
            collected_at = env.now
            ad = yield from shop.create(make_request(), bids=bids)
            return ad, collected_at

        ad, collected_at = drive(env, client())
        assert ad["plant"] == "p0"
        # Round 1 is the caller's; round 2 is the retry's own, after
        # the backoff moved the clock (reusing would have been stale).
        assert shop.collector.collections == 2
        assert (shop.creates_ok, shop.creates_failed) == (1, 1)
        assert float(ad["created_at"]) >= collected_at + 3.0

    def test_retry_other_plants_walks_the_reused_ranking(self):
        env = Environment()
        env.tracer = Tracer()
        shop, plants = self.make_shop(env, retry_other_plants=True)
        # Distinct loads -> a tie-free ranking p0 < p1 < p2.
        drive(env, plants[1].create(make_request(), "load-a"))
        for vmid in ("load-b", "load-c"):
            drive(env, plants[2].create(make_request(), vmid))
        for plant in plants[:2]:
            plant.lines["vmware"].fail_clones = 99

        def client():
            bids = yield from shop.estimate(make_request())
            ad = yield from shop.create(make_request(), bids=bids)
            return ad

        assert drive(env, client())["plant"] == "p2"
        assert [
            (e.data["plant"], e.message) for e in env.tracer.select("shop")
            if e.message in ("created", "create-failed")
        ] == [
            ("p0", "create-failed"),
            ("p1", "create-failed"),
            ("p2", "created"),
        ]
        assert shop.collector.collections == 1

    def test_reused_round_picks_and_draws_like_a_fresh_one(self):
        """Same bids, same ``bid-tie`` stream position -> same winner
        and the same number of draws, reused or collected."""

        def run(reuse: bool):
            env = Environment()
            # Zero latency: both variants dispatch at the instant of
            # collection, so the plants quote identical state.
            shop, _ = self.make_shop(env, n_plants=4, seed=11)
            shop.transport.latency_s = 0.0
            picks = []
            draws = []
            choice = shop.rng.choice

            def counting_choice(name, seq):
                draws.append((name, len(seq)))
                return choice(name, seq)

            shop.collector.rng.choice = counting_choice

            def client():
                for _ in range(6):
                    if reuse:
                        bids = yield from shop.estimate(make_request())
                        ad = yield from shop.create(
                            make_request(), bids=bids
                        )
                    else:
                        ad = yield from shop.create(make_request())
                    picks.append(str(ad["plant"]))

            drive(env, client())
            return picks, draws, shop.collector.collections

        fresh_picks, fresh_draws, fresh_rounds = run(reuse=False)
        reused_picks, reused_draws, reused_rounds = run(reuse=True)
        assert reused_picks == fresh_picks
        assert reused_draws == fresh_draws
        assert {name for name, _ in fresh_draws} == {"bid-tie"}
        assert len(fresh_draws) >= 6  # ties were really drawn
        assert reused_rounds == fresh_rounds == 6


class TestRegistry:
    def test_publish_discover_bind(self):
        registry = ServiceRegistry()
        registry.publish("svc", "vmplant", binding="BINDING")
        assert registry.bind("svc") == "BINDING"
        assert len(registry.discover("vmplant")) == 1
        assert registry.discover("vmshop") == []

    def test_discover_with_requirements(self):
        registry = ServiceRegistry()
        registry.publish(
            "big", "vmplant", binding=1,
            description=ClassAd({"memory": 2048, "kind": "vmplant",
                                 "name": "big"}),
        )
        registry.publish(
            "small", "vmplant", binding=2,
            description=ClassAd({"memory": 512, "kind": "vmplant",
                                 "name": "small"}),
        )
        found = registry.discover(
            "vmplant", requirements="other.memory >= 1024"
        )
        assert [e.name for e in found] == ["big"]

    def test_unpublish(self):
        registry = ServiceRegistry()
        registry.publish("svc", "x", binding=None)
        registry.unpublish("svc")
        with pytest.raises(ShopError):
            registry.bind("svc")
        with pytest.raises(ShopError):
            registry.unpublish("svc")

    def test_shop_discovers_plants_from_registry(self):
        env = Environment()
        registry = ServiceRegistry()
        warehouse = VMWarehouse([make_image()])
        plant = VMPlant(
            env, "p0", warehouse, {"vmware": InstantLine(env)}
        )
        registry.publish("p0", "vmplant", plant)
        shop = VMShop(env, registry=registry)
        assert shop.discover_plants() == 1
        ad = drive(env, shop.create(make_request()))
        assert ad["plant"] == "p0"

    def test_a_published_shop_lives_as_long_as_its_registry(self):
        # The binding is strong; the shop's way back is the weak side.
        registry = ServiceRegistry()
        VMShop(Environment(), "kept", registry=registry)
        shop = registry.bind("kept")
        assert shop.name == "kept" and shop.discover_plants() == 0
        del registry
        with pytest.raises(ReferenceError):
            shop.discover_plants()


class TestBroker:
    def make_broker_site(self, env):
        warehouse = VMWarehouse([make_image()])
        plants = [
            VMPlant(env, f"p{i}", warehouse, {"vmware": InstantLine(env)})
            for i in range(3)
        ]
        broker = VMBroker("rack0", plants[:2])
        broker.add_plant(plants[2])
        return broker, plants

    def test_estimate_is_best_of_fronted(self):
        env = Environment()
        broker, plants = self.make_broker_site(env)
        drive(env, plants[0].create(make_request(), "preload-1"))
        drive(env, plants[0].create(make_request(), "preload-2"))
        cost = broker.estimate(make_request())
        # Best plant is an empty one, not the preloaded p0.
        assert cost == plants[1].estimate(make_request())

    def test_create_routes_to_best_plant(self):
        env = Environment()
        broker, plants = self.make_broker_site(env)
        drive(env, plants[0].create(make_request(), "preload"))
        ad = drive(env, broker.create(make_request(), "vm-x"))
        assert ad["plant"] in ("p1", "p2")

    def test_broker_behind_shop(self):
        env = Environment()
        broker, plants = self.make_broker_site(env)
        shop = VMShop(env, rng=RngHub(5))
        shop.register_plant(broker)
        ad = drive(env, shop.create(make_request()))
        vmid = str(ad["vmid"])
        queried = drive(env, shop.query(vmid))
        assert queried["vmid"] == vmid
        drive(env, shop.destroy(vmid))

    def test_all_decline_raises(self):
        env = Environment()
        broker = VMBroker("empty", [])
        with pytest.raises(ShopError):
            drive(env, broker.create(make_request(), "vm-x"))

    def test_query_unknown_vm_raises(self):
        env = Environment()
        broker, _ = self.make_broker_site(env)
        with pytest.raises(ShopError):
            broker.query("ghost")

    def test_query_does_not_hide_a_plants_programming_error(self):
        env = Environment()
        broker, plants = self.make_broker_site(env)
        drive(env, plants[2].create(make_request(), "vm-x"))

        def broken_query(vmid, attributes=()):
            raise TypeError("query() got an unexpected keyword")

        plants[0].query = broken_query
        # Not "no plant knows 'vm-x'", and not p2's answer either.
        with pytest.raises(TypeError, match="unexpected keyword"):
            broker.query("vm-x")


class TestGather:
    """The callback-driven bid fan-out (``Transport.gather`` under
    ``BidCollector.collect``) against one process per bid."""

    @staticmethod
    def run_rounds(collect, rounds=200, seed=2004):
        """``rounds`` bid rounds on an 8-plant bed, the winner of every
        fourth one given the VM so that quotes move."""
        bed = build_testbed(seed=seed, n_plants=8)
        collector = bed.shop.collector
        seen = []

        def client():
            for n in range(rounds):
                request = experiment_request((32, 64, 256)[n % 3])
                bids = yield from collect(collector, bed.shop.bidders, request)
                seen.append([(b.bidder_name, b.cost, b.at) for b in bids])
                winner = select(collector, bids)
                if n % 4 == 0:
                    yield from winner.bidder.create(request, f"vm-{n}")

        drive(bed.env, client())
        return (
            seen,
            bed.env.now,
            bed.shop.transport.calls,
            collector.collections,
            collector.bids_collected,
            bed.rng.stream("transport").getstate(),
            bed.rng.stream("bid-tie").getstate(),
        )

    def test_rounds_match_process_per_bid_oracle(self):
        live = self.run_rounds(BidCollector.collect)
        assert live == self.run_rounds(oracle_collect)
        seen, _, calls, collections, bids_collected = live[:5]
        assert calls == 8 * 200 and collections == 200
        assert bids_collected == sum(len(bids) for bids in seen) > 0
        assert len({cost for bids in seen for _, cost, _ in bids}) > 3

    @staticmethod
    def site(env, n_plants=3):
        shop, plants = make_site(env, n_plants=n_plants)
        return shop.collector, shop.bidders, plants

    def test_hung_bidder_left_out_and_late_answer_dropped(self):
        env = Environment()
        collector, bidders, plants = self.site(env)
        plants[0].fail()
        env.call_later(9.0, lambda _ev: plants[0].recover())
        bids = drive(
            env, collector.collect(bidders, make_request(), deadline_s=5.0)
        )
        assert env.now == 5.0
        assert [b.bidder_name for b in bids] == ["p1", "p2"]
        assert {b.at for b in bids} == {5.0}
        drawn = collector.transport.rng.stream("transport").getstate()
        env.run()
        # The late estimate still ran and still drew its way back, but
        # an answer to a decided round is not an event: nothing
        # happens after the recovery itself.
        assert env.now == 9.0 and env.peek() == float("inf")
        assert collector.transport.rng.stream("transport").getstate() != drawn
        assert [b.bidder_name for b in bids] == ["p1", "p2"]
        assert collector.bids_collected == 2

    def test_late_failure_is_dropped(self):
        env = Environment()
        collector, bidders, plants = self.site(env)

        def broken(request):
            raise PlantError("estimate blew up")

        plants[0].fail()
        plants[0].estimate = broken
        env.call_later(9.0, lambda _ev: plants[0].recover())
        bids = drive(
            env, collector.collect(bidders, make_request(), deadline_s=5.0)
        )
        env.run()
        assert env.now == 9.0
        assert [b.bidder_name for b in bids] == ["p1", "p2"]

    @pytest.mark.parametrize("deadline_s", [None, 5.0])
    def test_failing_estimate_raises_from_collect(self, deadline_s):
        env = Environment()
        collector, bidders, plants = self.site(env)

        def broken(request):
            raise PlantError("estimate blew up")

        plants[1].estimate = broken
        with pytest.raises(PlantError, match="blew up"):
            drive(
                env,
                collector.collect(
                    bidders, make_request(), deadline_s=deadline_s
                ),
            )
        assert env.now < 1.0  # at the failing bidder's arrival
        env.run()  # the other answers land on a decided round
        assert collector.collections == 0

    @pytest.mark.parametrize("deadline_s", [None, 5.0, 3.0])
    def test_a_plant_back_and_down_again_at_one_instant_still_hangs(
        self, deadline_s
    ):
        # p0 recovers and crashes again at 2 s, mid-round: the round,
        # asked again at the first up-event, waits on the second, as a
        # process per bid does, and p0 answers after it is back at 4 s.
        def play(collect):
            env = Environment()
            collector, bidders, plants = self.site(env)
            plants[0].fail()

            def bounce(_ev):
                plants[0].recover()
                plants[0].fail()

            env.call_later(2.0, bounce)
            env.call_later(4.0, lambda _ev: plants[0].recover())
            bids = drive(
                env, collect(collector, bidders, make_request(), deadline_s)
            )
            ended = env.now
            # A late answer still draws its way back (the oracle's on a
            # timer of its own, which the live round does not set).
            env.run()
            return (
                [(b.bidder_name, b.cost, b.at) for b in bids],
                ended,
                collector.collections,
                collector.bids_collected,
                collector.transport.rng.stream("transport").getstate(),
            )

        live = play(BidCollector.collect)
        assert live == play(oracle_collect)
        names = [name for name, _, _ in live[0]]
        if deadline_s == 3.0:
            assert names == ["p1", "p2"] and live[1] == 3.0
        else:
            assert names == ["p0", "p1", "p2"] and 4.0 < live[1] < 5.0

    def test_plant_back_before_deadline_is_included(self):
        env = Environment()
        collector, bidders, plants = self.site(env)
        plants[0].fail()
        env.call_later(2.0, lambda _ev: plants[0].recover())
        bids = drive(
            env, collector.collect(bidders, make_request(), deadline_s=5.0)
        )
        assert [b.bidder_name for b in bids] == ["p0", "p1", "p2"]
        assert 2.0 < env.now < 5.0
        assert {b.at for b in bids} == {env.now}

    def test_empty_bidder_list(self):
        env = Environment()
        collector, _, _ = self.site(env)
        assert drive(env, collector.collect([], make_request())) == []
        assert env.now == 0.0
        assert collector.collections == 1
        assert collector.transport.calls == 0
        done = collector.transport.gather([])
        assert env.run(until=done) == {}

    def test_round_event_and_call_budget(self):
        # One memo-hit round: one train timer for all the bidders (each
        # later arrival, next on the queue, runs on in place), and the
        # round's event, decided at the last landing with nothing that
        # can overtake it, fires in place from that timer (it was
        # queued at the last landing time; an out-timer per bidder
        # before that; a back-timer per bidder as well before that;
        # before that Initialize + two timers + process end per bidder,
        # + AllOf).
        for n_plants, calls_at_most in ((8, 85), (1, 30)):
            bed = build_testbed(seed=3, n_plants=n_plants)
            request = experiment_request(32)
            collector = bed.shop.collector
            drive(bed.env, collector.collect(bed.shop.bidders, request))

            def one_round():
                bed.env.run(
                    until=bed.env.process(
                        collector.collect(bed.shop.bidders, request)
                    )
                )

            before = bed.env.executed_events
            calls = python_calls(one_round)
            # Initialize and end of the driving process itself: it ends
            # inside the round event's in-place firing, one level deep,
            # so its end is queued.
            assert bed.env.executed_events - before == 1 + 1 + 1
            # 84 and 28 at the time of writing: every plant answers
            # from its bid memo.  89 and 28 with an out-timer per
            # bidder; 124 and 33 with each bid planned
            # afresh, 7 a bidder of it VMPlant.estimate, a healthy
            # bidder a plain call and each hop's draw inline; 148 and
            # 36 with an 8-call bid and a
            # ``_one_way`` frame per hop; 212 and 44 with a 15-call bid
            # and a generator per bidder; with a back-timer per answer,
            # 227 and 45.
            assert calls <= calls_at_most


# ---------------------------------------------------------------------------
# The folded round against a back-timer per answer
# ---------------------------------------------------------------------------

#: Everything a round does sits on this grid when the jitter is off, so
#: landings, deadlines and handler wake-ups tie to the last bit.
_TICK = 0.5
_ticks = st.integers(0, 4)
#: A "steps" handler returns each step's event while it is pending
#: and is asked again when it fires; it answers after its last step.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), _ticks),
        st.just(("recovery",)),  # like estimate_proc's _up_event
        st.just(("alarm",)),  # a timer older than any round's deadline
        st.just(("raise",)),
    ),
    max_size=3,
)
_handlers = st.one_of(
    st.tuples(st.just("plain"), st.sampled_from(["cost", None])),
    st.just(("plain-raise",)),
    st.tuples(st.just("steps"), _steps),
)
_rounds = st.lists(
    st.tuples(
        _ticks,  # start
        st.one_of(st.none(), st.integers(0, 8)),  # deadline, in ticks
        st.lists(_handlers, max_size=4),
    ),
    min_size=1,
    max_size=2,
)
_scenarios = st.tuples(
    st.integers(0, 999),  # seed
    st.sampled_from([(0.5, 0.0), (0.0, 0.0), (0.05, 0.2), (0.5, 0.3)]),
    st.one_of(st.none(), _ticks),  # when (if ever) the recovery comes
    _ticks,  # when the alarm rings
    _rounds,
)


def _run_rounds(scenario, gather):
    """Play ``scenario`` with rounds made by ``gather(transport, handlers,
    deadline_s)``; what the rounds' waiters, the handlers and a
    bystander saw, the events executed, and how many arrivals ran on
    in place.

    The bystander wakes off the grid and notes how far everything has
    come, the ``transport`` stream included: a draw made at another
    instant than the reference's shows up there.  An arrival ran on in
    place when no event was executed since the one before it in its
    round: one popped off the queue is an event of its own.
    """
    seed, (latency_s, sigma), recovery_at, alarm_at, rounds = scenario
    env = Environment()
    transport = Transport(
        env, rng=RngHub(seed), latency_s=latency_s, jitter_sigma=sigma
    )
    stream = transport.rng.stream("transport")
    recovery = env.event()
    if recovery_at is not None:
        env.call_later(recovery_at * _TICK, lambda _ev: recovery.succeed())
    alarm = env.timeout(alarm_at * _TICK)
    ran, outcomes, watched = [], {}, []
    #: Per round, ``executed_events`` at each arrival.
    arrivals = {}

    def handler(number, index, spec):
        label = f"r{number}h{index}"

        def arrived():
            ran.append((env.now, label))
            arrivals.setdefault(number, []).append(env.executed_events)

        def plain():
            arrived()
            if spec[0] == "plain-raise":
                raise PlantError(label)
            ran.append((env.now, label, "answered"))
            return spec[1] and f"{label}-{spec[1]}"

        if spec[0] != "steps":
            return plain
        steps = iter(spec[1])
        waiting = []  # the step whose event the last call returned

        def stepped():
            if waiting:
                ran.append((env.now, label, waiting.pop()))
            else:
                arrived()
            for step in steps:
                if step[0] == "raise":
                    raise PlantError(label)
                if step[0] == "timeout":
                    event = env.timeout(step[1] * _TICK)
                else:
                    event = recovery if step[0] == "recovery" else alarm
                if not event.processed:
                    waiting.append(step[0])
                    return event
                ran.append((env.now, label, step[0]))
            ran.append((env.now, label, "answered"))
            return label

        return stepped

    def start(number, deadline, specs, _timer):
        def decided(done):
            done.defused = True
            value = done.value if done.ok else repr(done.value)
            outcomes[number] = (env.now, done.ok, value)

        gather(
            transport,
            [handler(number, i, s) for i, s in enumerate(specs)],
            None if deadline is None else deadline * _TICK,
        ).callbacks.append(decided)

    for number, (at, deadline, specs) in enumerate(rounds):
        env.timeout(at * _TICK).callbacks.append(
            partial(start, number, deadline, specs)
        )

    def bystander():
        yield env.timeout(0.017)
        for _ in range(40):
            watched.append(
                (
                    env.now,
                    len(ran),
                    sorted(outcomes.items()),
                    transport.calls,
                    hash(stream.getstate()),
                )
            )
            yield env.timeout(0.3)

    env.process(bystander())
    env.run()
    in_place = sum(
        before == after
        for counts in arrivals.values()
        for before, after in zip(counts, counts[1:])
    )
    return (
        (outcomes, ran, watched, transport.calls, stream.getstate()),
        env.executed_events,
        in_place,
        env._eid,
    )


class TestFoldedRoundMatchesTimerPerAnswer:
    @given(_scenarios)
    # A deadline equal to the only landing time: the answer is late.
    @example((0, (0.5, 0.0), None, 0, [(0, 2, [("plain", "cost")])]))
    # An answer sent at the deadline itself by an event older than the
    # deadline timer, over a transport that takes no time.
    @example((0, (0.0, 0.0), None, 2, [(0, 2, [("steps", [("alarm",)])])]))
    # A bidder that hangs past one round's deadline and answers the
    # other, which overlaps it and has none.
    @example(
        (
            5,
            (0.05, 0.2),
            4,
            0,
            [
                (0, 3, [("steps", [("recovery",)]), ("plain", None)]),
                (1, None, [("steps", [("recovery",)]), ("plain", "cost")]),
            ],
        )
    )
    # Here the last answer is sent at ``now`` = 0.0551... and lands at
    # 0.1192..., and ``now + (landing - now)`` is one ulp off.
    @example((2, (0.05, 0.2), None, 0, [(0, None, [("plain", "cost")] * 2)]))
    @settings(max_examples=400, deadline=None)
    def test_random_rounds_decide_identically(self, scenario):
        live, live_events, _, live_ids = _run_rounds(
            scenario, Transport.gather
        )
        with every_decided_event_queued():
            queued, queued_events, in_place, queued_ids = _run_rounds(
                scenario, Transport.gather
            )
            timers, timer_events, _, _ = _run_rounds(scenario, oracle_gather)
        assert live == queued == timers
        # With every decided event queued, the differences: no event
        # for an answer on its way back, and none for an arrival that
        # nothing could overtake.
        answers = sum(1 for entry in live[1] if entry[2:] == ("answered",))
        assert timer_events - queued_events == answers + in_place
        # Live, a round event (or a process's end) that nothing can
        # overtake fires in place under the id it reserved.
        assert live_ids == queued_ids and live_events <= queued_events

    #: One round shape each: (recovery at, alarm at, rounds).
    SHAPES = {
        "plain": (None, 0, [(0, None, [("plain", "cost"), ("plain", None)])]),
        "generator": (
            2,
            3,
            [
                (
                    1,
                    None,
                    [
                        ("steps", [("timeout", 2), ("alarm",), ("timeout", 1)]),
                        ("steps", [("recovery",)]),
                        ("plain", "cost"),
                    ],
                )
            ],
        ),
        "raising": (
            None,
            0,
            [
                (0, None, [("plain", "cost"), ("plain-raise",)]),
                (1, None, [("steps", [("timeout", 1), ("raise",)])]),
            ],
        ),
        # Decided by the first failure; the other two answer after it.
        "late-answer": (
            3,
            0,
            [
                (
                    0,
                    None,
                    [
                        ("plain-raise",),
                        ("steps", [("timeout", 3)]),
                        ("steps", [("recovery",)]),
                    ],
                )
            ],
        ),
        # A bidder down until long after the deadline has decided.
        "deadline-expired": (
            4,
            0,
            [
                (
                    0,
                    2,
                    [
                        ("plain", "cost"),
                        ("steps", [("timeout", 4)]),
                        ("steps", [("recovery",)]),
                    ],
                )
            ],
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_a_finished_round_leaves_no_cycle(self, shape):
        # The timer-per-answer reference ties its closures into a knot
        # per round; the live round must be gone with its last answer.
        recovery_at, alarm_at, rounds = self.SHAPES[shape]
        scenario = (7, (0.05, 0.2), recovery_at, alarm_at, rounds)
        runs = []
        garbage = cyclic_garbage(
            lambda: runs.append(_run_rounds(scenario, Transport.gather)[0])
        )
        assert runs == [_run_rounds(scenario, oracle_gather)[0]]
        assert garbage == (0, {})
        assert cyclic_garbage(
            lambda: _run_rounds(scenario, oracle_gather)
        )[0] > 0
