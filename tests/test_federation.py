"""Federated multi-site control plane: addressing, registry, spill-over.

Pins the three federation contracts from the PR 8 acceptance list:

* **hierarchical vnet allocation** — site blocks are disjoint pure
  functions of ``(sites, base_octet, subnets_per_site)``, exhaust with
  :class:`VNetError`, reuse released subnets FIFO, and reject foreign
  or double releases;
* **sharded registry equivalence** — a randomized
  :class:`FederatedRegistry` discover (with and without the
  ``may_match`` shard prefilter) returns exactly what one merged
  :class:`ServiceRegistry` holding every site's entries would, in the
  same order;
* **determinism across shard counts** — the ``federation`` scenario's
  merged-trace fingerprint is identical at 1, 2 and 4 shards, and the
  classic single-site testbed is untouched by the federation plumbing.

Plus the grid-mode wiring: rack brokers in front of the shop,
site-prefixed names, and the gateway's local-first / spill-over
placement ladder.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.streaming import WorkloadSummary
from repro.core.classad import ClassAd
from repro.core.errors import ShopError, VNetError
from repro.faults.plan import grid_fault_plan
from repro.faults.recovery import RecoveryPolicy
from repro.federation.addressing import (
    ADDRESSES_PER_SUBNET,
    HierarchicalAddressPlan,
    SubnetBlock,
)
from repro.federation.gateway import FederationGateway
from repro.federation.registry import FederatedRegistry
from repro.federation.site import build_federated_grid
from repro.shop.bidding import Bid
from repro.shop.registry import ServiceRegistry
from repro.sim.cluster import build_testbed
from repro.sim.shard import ShardedTestbed
from repro.workloads.requests import experiment_request


# ---------------------------------------------------------------------------
# Hierarchical vnet allocation
# ---------------------------------------------------------------------------


class TestSubnetBlock:
    def test_sequential_allocation_format(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=4)
        assert block.allocate_many(4) == [
            "10.0.0", "10.0.1", "10.0.2", "10.0.3"
        ]

    def test_index_arithmetic_crosses_octet_boundary(self):
        block = SubnetBlock(site=1, base_octet=10, start=255, count=2)
        assert block.allocate_many(2) == ["10.0.255", "10.1.0"]

    def test_exhaustion_raises(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=3)
        block.allocate_many(3)
        assert block.remaining == 0
        with pytest.raises(VNetError, match="exhausted"):
            block.allocate()

    def test_release_reuse_is_fifo(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=3)
        a, b, c = block.allocate_many(3)
        block.release(b)
        block.release(a)
        # Released subnets come back in release order, before any
        # (here impossible) cursor advance.
        assert block.allocate() == b
        assert block.allocate() == a
        assert block.allocated == 3

    def test_double_release_rejected(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=2)
        sub = block.allocate()
        block.release(sub)
        with pytest.raises(VNetError, match="twice"):
            block.release(sub)

    def test_never_allocated_release_rejected(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=8)
        block.allocate()
        with pytest.raises(VNetError, match="never allocated"):
            block.release("10.0.5")

    def test_foreign_subnet_release_rejected(self):
        plan = HierarchicalAddressPlan(4, subnets_per_site=16)
        site0, site1 = plan.block(0), plan.block(1)
        stolen = site1.allocate()
        assert stolen not in site0
        with pytest.raises(VNetError, match="another site"):
            site0.release(stolen)

    def test_malformed_subnet_rejected(self):
        block = SubnetBlock(site=0, base_octet=10, start=0, count=2)
        for bad in ("192.168.0", "10.0", "10.x.0", "10.999.0"):
            with pytest.raises(VNetError):
                block.release(bad)
            assert bad not in block


class TestHierarchicalAddressPlan:
    def test_site_blocks_are_disjoint(self):
        plan = HierarchicalAddressPlan(4, subnets_per_site=32)
        seen = set()
        for site in range(4):
            subnets = set(plan.block(site).allocate_many(32))
            assert len(subnets) == 32
            assert not (subnets & seen)
            seen |= subnets

    def test_plan_is_pure_function_of_inputs(self):
        """Two independent plan instances (two forked workers) derive
        the same block for the same site."""
        first = HierarchicalAddressPlan(8).block(5)
        second = HierarchicalAddressPlan(8).block(5)
        assert first.allocate_many(10) == second.allocate_many(10)

    def test_sixteen_sites_pass_the_million_address_rung(self):
        plan = HierarchicalAddressPlan(16)
        assert plan.subnets_per_site == 4096
        assert plan.site_capacity == 4096 * ADDRESSES_PER_SUBNET
        assert plan.site_capacity > 1_000_000
        assert plan.total_capacity == 16 * plan.site_capacity

    def test_site_of_reverse_lookup(self):
        plan = HierarchicalAddressPlan(4, subnets_per_site=256)
        for site in (0, 1, 3):
            sub = plan.block(site).allocate()
            assert plan.site_of(sub) == site
            assert plan.site_of(sub + ".17") == site  # full guest IP
        with pytest.raises(VNetError, match="outside"):
            plan.site_of("10.255.255")  # past site 3's block

    def test_exhaustion_is_per_site(self):
        plan = HierarchicalAddressPlan(2, subnets_per_site=2)
        plan.block(0).allocate_many(2)
        with pytest.raises(VNetError):
            plan.block(0).allocate()
        # Site 1's block is untouched by site 0 running dry.
        assert plan.block(1).allocate() == "10.0.2"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalAddressPlan(0)
        with pytest.raises(ValueError):
            HierarchicalAddressPlan(4, base_octet=0)
        with pytest.raises(ValueError):
            HierarchicalAddressPlan(4, subnets_per_site=65536)
        with pytest.raises(ValueError):
            HierarchicalAddressPlan(2).block(2)


# ---------------------------------------------------------------------------
# Federated registry vs one merged registry
# ---------------------------------------------------------------------------

_OSES = ("linux", "bsd", "Solaris")
_VM_TYPES = ("vmware", "uml")
_KINDS = ("vmplant", "vmbroker", "warehouse")

_QUERIES = (
    (None, None),
    ("vmplant", None),
    ("vmplant", 'other.os == "linux"'),
    ("vmplant", 'other.os == "bsd" && other.vm_type == "uml"'),
    (None, 'other.vm_type == "vmware" && other.slot > 2'),
    ("vmbroker", "other.slot >= 0"),
    ("vmplant", 'other.os == "plan9"'),  # matches nothing anywhere
    ("warehouse", 'other.name == "svc-1-0"'),
)


def _random_description(rng: random.Random, name: str, kind: str) -> ClassAd:
    ad = ClassAd({"name": name, "kind": kind})
    if rng.random() < 0.85:
        ad["os"] = rng.choice(_OSES)
    if rng.random() < 0.8:
        ad["vm_type"] = rng.choice(_VM_TYPES)
    ad["slot"] = rng.randrange(0, 8)
    if rng.random() < 0.1:
        ad.set_expression("os", '"li" + "nux"')
    return ad


def _random_federation(rng: random.Random, sites: int):
    """The same random entries published into a router and one merged
    registry, in identical (site, local insertion) order."""
    fed = FederatedRegistry()
    merged = ServiceRegistry()
    for site in range(sites):
        fed.add_site(site)
    for site in range(sites):
        for i in range(rng.randrange(1, 9)):
            name = f"svc-{site}-{i}"
            kind = rng.choice(_KINDS)
            description = _random_description(rng, name, kind)
            fed.publish(site, name, kind, object(), description)
            merged.publish(name, kind, object(), description)
    return fed, merged


class TestFederatedRegistryEquivalence:
    def test_randomized_discover_matches_merged_registry(self):
        rng = random.Random(2004)
        for trial in range(25):
            fed, merged = _random_federation(rng, rng.randrange(1, 6))
            for kind, query in _QUERIES:
                reference = [
                    e.name
                    for e in merged.discover(kind, query, prefilter=False)
                ]
                for prefilter in (True, False):
                    got = [
                        e.name
                        for e in fed.discover(kind, query, prefilter=prefilter)
                    ]
                    assert got == reference, (
                        f"trial={trial} kind={kind} query={query!r} "
                        f"prefilter={prefilter}"
                    )

    def test_result_order_groups_by_ascending_site(self):
        fed = FederatedRegistry()
        for site in (2, 0, 1):  # attach out of order on purpose
            fed.add_site(site)
        for site in (1, 2, 0):  # publish out of order too
            fed.publish(site, f"p{site}", "vmplant", object())
        assert [e.name for e in fed.discover("vmplant")] == [
            "p0", "p1", "p2"
        ]

    def test_prefilter_actually_prunes_shards(self):
        fed = FederatedRegistry()
        for site in range(4):
            fed.add_site(site)
            os = "bsd" if site == 3 else "linux"
            fed.publish(
                site, f"p{site}", "vmplant", object(),
                ClassAd({"name": f"p{site}", "kind": "vmplant", "os": os}),
            )
        found = fed.discover("vmplant", 'other.os == "bsd"')
        assert [e.name for e in found] == ["p3"]
        # Three shards hold only linux plants: may_match proves no
        # entry can satisfy the equality conjunct, so they are skipped.
        assert fed.shards_pruned == 3
        assert fed.shards_queried == 1

    def test_cross_site_name_collision_rejected(self):
        fed = FederatedRegistry()
        fed.add_site(0)
        fed.add_site(1)
        fed.publish(0, "dup", "vmplant", object())
        with pytest.raises(ShopError, match="already published by site 0"):
            fed.publish(1, "dup", "vmplant", object())
        # Same-site republish is a plain replace, as in one registry.
        fed.publish(0, "dup", "vmshop", object())
        assert fed.site_of("dup") == 0
        assert len(fed) == 1

    def test_router_resyncs_with_direct_shard_publishes(self):
        """Grid-mode shops publish straight into their site shard; the
        router must still route bind/unpublish for those names."""
        fed = FederatedRegistry()
        shard = fed.add_site(2)
        binding = object()
        shard.publish("stealth", "vmplant", binding)
        assert "stealth" in fed
        assert fed.site_of("stealth") == 2
        assert fed.bind("stealth") is binding
        fed.unpublish("stealth")
        assert "stealth" not in shard
        with pytest.raises(ShopError, match="not published"):
            fed.bind("stealth")

    def test_duplicate_site_rejected(self):
        fed = FederatedRegistry()
        fed.add_site(0)
        with pytest.raises(ShopError, match="already federated"):
            fed.add_site(0)
        with pytest.raises(ShopError, match="not federated"):
            fed.shard(9)


# ---------------------------------------------------------------------------
# Grid-mode wiring and the spill-over gateway
# ---------------------------------------------------------------------------


def _bid(cost: float) -> Bid:
    return Bid(bidder_name=f"b{cost}", cost=cost, bidder=object())


class TestFederatedGrid:
    def test_sites_share_one_kernel_with_disjoint_state(self):
        grid = build_federated_grid(2, seed=3, n_plants=2, rack_size=2)
        assert grid.sites[0].bed.env is grid.sites[1].bed.env
        # Site-prefixed service names route through the federated view.
        assert grid.registry.site_of("site0-plant0") == 0
        assert grid.registry.site_of("site1-vmshop") == 1
        plants = grid.registry.discover("vmplant")
        assert [e.name for e in plants] == [
            "site0-plant0", "site0-plant1",
            "site1-plant0", "site1-plant1",
        ]
        # Each site's pools draw from its own subnet block.
        pools0 = {
            net.subnet
            for p in grid.sites[0].bed.plants
            for net in p.network_pool.networks
        }
        pools1 = {
            net.subnet
            for p in grid.sites[1].bed.plants
            for net in p.network_pool.networks
        }
        assert pools0 and pools1 and not (pools0 & pools1)

    def test_rack_brokers_front_the_shop(self):
        grid = build_federated_grid(1, seed=3, n_plants=4, rack_size=2)
        site = grid.sites[0]
        assert [r.name for r in site.racks] == ["site0-rack0", "site0-rack1"]
        # The shop bids against the broker tier, not plants directly.
        assert site.shop.bidders == site.racks
        ad = grid.run(site.shop.create(experiment_request(32)))
        assert str(ad["vmid"]).startswith("site0-vmshop-vm-")

    def test_gateway_spills_when_local_site_declines(self):
        grid = build_federated_grid(
            2, seed=3, n_plants=1, rack_size=1, max_vms_per_plant=1
        )
        gw0 = grid.sites[0].gateway
        # Fill site 0's single slot: the next request gets no local bid.
        ad, site = grid.run(gw0.place(experiment_request(32)))
        assert site == 0 and gw0.local_creates == 1
        ad, site = grid.run(gw0.place(experiment_request(32)))
        assert site == 1
        assert gw0.spill_creates == 1 and gw0.spills_declined == 1
        assert str(ad["vmid"]).startswith("site1-")
        # Both sites full: the placement ladder runs out.
        with pytest.raises(ShopError, match="no local or remote"):
            grid.run(gw0.place(experiment_request(32)))

    def test_should_spill_threshold(self):
        grid = build_federated_grid(
            2, seed=3, n_plants=1, rack_size=1,
            recovery=RecoveryPolicy(spill_threshold=50.0),
        )
        gw = grid.sites[0].gateway
        assert gw.should_spill([])  # decline: no bids at all
        assert not gw.should_spill([_bid(10.0), _bid(60.0)])
        assert gw.should_spill([_bid(51.0)])  # saturated
        # No threshold configured: never spill while the site bids.
        gw_free = FederationGateway(0, grid.sites[0].shop, RecoveryPolicy())
        assert not gw_free.should_spill([_bid(1e9)])
        assert gw_free.should_spill([])

    def test_gateway_rejects_self_as_remote(self):
        grid = build_federated_grid(1, seed=3, n_plants=1, rack_size=1)
        gw = grid.sites[0].gateway
        assert gw.remotes == []
        with pytest.raises(ShopError, match="own spill-over"):
            gw.add_remote(gw)


class TestOneBidRoundPerPlacement:
    """The round that decides spill-or-stay is the round the local
    create is dispatched from; only creates that follow simulated time
    (a remote's spill target, the post-ladder fallback) bid afresh."""

    @staticmethod
    def counters(site):
        shop = site.shop
        return (
            shop.collector.collections,
            shop.collector.bids_collected,
            shop.transport.calls,
        )

    def test_local_placement_runs_exactly_one_collection(self):
        grid = build_federated_grid(2, seed=3, n_plants=4, rack_size=2)
        home, other = grid.sites
        ad, site = grid.run(home.gateway.place(experiment_request(32)))
        assert site == 0 and home.gateway.local_creates == 1
        # Two rack brokers bid once each; the create is the third call.
        assert self.counters(home) == (1, 2, 3)
        assert self.counters(other) == (0, 0, 0)

    def test_grid_spill_collects_once_per_step_of_the_protocol(self):
        grid = build_federated_grid(
            2, seed=3, n_plants=1, rack_size=1, max_vms_per_plant=1
        )
        home, remote = grid.sites
        grid.run(home.gateway.place(experiment_request(32)))
        assert self.counters(home) == (1, 1, 2)
        ad, site = grid.run(home.gateway.place(experiment_request(32)))
        assert site == 1
        # Home: the declined local round + the round over its remotes
        # (one bid), and the remote create call.  Remote: its bid for
        # the spill, then — a WAN hop later — the create's own round.
        assert self.counters(home) == (3, 2, 5)
        assert self.counters(remote) == (2, 2, 3)

    def test_saturated_fallback_after_the_ladder_bids_afresh(self):
        grid = build_federated_grid(
            2, seed=3, n_plants=1, rack_size=1,
            recovery=RecoveryPolicy(spill_threshold=0.0),
        )
        home, remote = grid.sites
        remote.gateway.down_until = 1e9  # declines the spill
        ad, site = grid.run(home.gateway.place(experiment_request(32)))
        assert site == 0 and home.gateway.spills_saturated == 1
        # Local round, the remote round (no bids), and — time having
        # passed — a fresh round for the saturated local create.
        assert home.shop.collector.collections == 3
        assert home.gateway.local_creates == 1

    def test_no_spill_route_places_a_saturated_request_locally(self):
        grid = build_federated_grid(
            1, seed=3, n_plants=1, rack_size=1, max_vms_per_plant=1,
            recovery=RecoveryPolicy(spill_threshold=0.0),
        )
        site = grid.sites[0]
        gateway = site.gateway
        ad, bids = grid.run(
            gateway.place_local(experiment_request(32), can_spill=False)
        )
        assert ad is not None and len(bids) == 1
        assert gateway.spills_saturated == 0
        assert self.counters(site) == (1, 1, 2)
        # Site now full: nowhere to spill to is a plain failure...
        with pytest.raises(ShopError, match="no local plant bid"):
            grid.run(
                gateway.place_local(
                    experiment_request(32), can_spill=False
                )
            )
        # ...and with a route, a decline handed back to the caller.
        ad, bids = grid.run(gateway.place_local(experiment_request(32)))
        assert ad is None and bids == []
        assert gateway.spills_declined == 1

    @pytest.mark.parametrize("scenario", ["federation", "megaload"])
    def test_scenarios_spend_one_round_per_served_request(self, scenario):
        base = {"plants": 4, "rack_size": 2, "requests": 12}

        def site_stats(cross_fraction):
            plan = ShardedTestbed(
                seed=13, sites=2, shards=1, scenario=scenario
            )
            run = plan.run(
                params={**base, "cross_fraction": cross_fraction},
                collect=None,
                deadline_s=120.0,
            )
            return [r["stats"] for r in run.site_results]

        racks = 2
        for stats in site_stats(0.0):  # every request stays home
            assert stats["created"] == stats["destroyed"] == 12
            assert stats["failed"] == stats["spills_sent"] == 0
            assert stats["bid_rounds"] == 12
            assert stats["bids_collected"] == 12 * racks
            # Per request: the bids, one create, one destroy.
            assert stats["transport_calls"] == 12 * (racks + 2)
        for stats in site_stats(1.0):  # every request is served remotely
            assert stats["spills_sent"] == stats["spills_recv"] == 12
            assert stats["created"] == 12 and stats["failed"] == 0
            # The source never bids; the serving site bids once.
            assert stats["bid_rounds"] == 12
            assert stats["bids_collected"] == 12 * racks
            assert stats["transport_calls"] == 12 * (racks + 2)


class TestGatewayFailoverLadder:
    """Regression: a failed remote create must fail over to the next
    ranked remote bid, not abandon the whole spill round."""

    @staticmethod
    def _break_first_create(grid, sites):
        """Whichever remote is tried first raises once, then heals."""
        state = {"broken": 0}

        def wrap(gateway):
            orig = gateway.create

            def create(request, vmid=None, clone_mode=None, _orig=orig):
                if state["broken"] == 0:
                    state["broken"] += 1

                    def boom():
                        raise ShopError("injected remote crash")
                        yield  # pragma: no cover

                    return boom()
                return _orig(request, vmid, clone_mode)

            gateway.create = create

        for s in sites:
            wrap(grid.sites[s].gateway)
        return state

    def test_failed_remote_create_walks_to_next_rung(self):
        grid = build_federated_grid(
            3, seed=3, n_plants=1, rack_size=1, max_vms_per_plant=1
        )
        gw0 = grid.sites[0].gateway
        # Fill site 0 so the next placement must spill.
        grid.run(gw0.place(experiment_request(32)))
        state = self._break_first_create(grid, (1, 2))
        ad, site = grid.run(gw0.place(experiment_request(32)))
        assert state["broken"] == 1
        assert site in (1, 2)  # landed on the *other* remote
        assert gw0.spill_creates == 1
        assert gw0.spill_failures == 1
        assert gw0.spill_retries == 1  # exactly one extra rung
        assert str(ad["vmid"]).startswith(f"site{site}-")

    def test_repeat_failures_trip_the_remote_breaker(self):
        grid = build_federated_grid(
            2, seed=3, n_plants=1, rack_size=1,
            recovery=RecoveryPolicy(
                remote_quarantine_threshold=2,
                remote_quarantine_s=500.0,
            ),
        )
        gw0 = grid.sites[0].gateway
        remote = grid.sites[1].gateway
        assert gw0._open_remotes() == [remote]
        gw0._record_remote(remote, ok=False)
        assert gw0._open_remotes() == [remote]  # below threshold
        gw0._record_remote(remote, ok=False)
        assert gw0._open_remotes() == []  # quarantined
        # A success after the quarantine window closes the breaker.
        health = gw0.remote_health[remote.name]
        assert health.allows(600.0)  # HALF_OPEN probe after expiry
        gw0._record_remote(remote, ok=True)
        assert gw0._open_remotes() == [remote]

    def test_breakers_disabled_by_default(self):
        grid = build_federated_grid(2, seed=3, n_plants=1, rack_size=1)
        gw0 = grid.sites[0].gateway
        for _ in range(10):
            gw0._record_remote(grid.sites[1].gateway, ok=False)
        assert gw0.remote_health == {}
        assert gw0._open_remotes() == [grid.sites[1].gateway]


# ---------------------------------------------------------------------------
# Determinism across shard counts; classic testbed untouched
# ---------------------------------------------------------------------------


class TestFederationDeterminism:
    def test_fingerprint_identical_at_1_2_4_shards(self):
        params = {"plants": 2, "requests": 10, "cross_fraction": 0.3}
        runs = {}
        for shards in (1, 2, 4):
            plan = ShardedTestbed(
                seed=13, sites=4, shards=shards, scenario="federation"
            )
            runs[shards] = plan.run(
                params=params, collect="fingerprint", deadline_s=120.0
            )
        fps = {s: r.fingerprint() for s, r in runs.items()}
        assert len(set(fps.values())) == 1, fps
        events = {s: r.total_events for s, r in runs.items()}
        assert len(set(events.values())) == 1, events
        stats = runs[4].combined_stats()
        assert stats["created"] == 4 * 10
        assert stats["failed"] == 0 and stats["spill_timeout"] == 0

    def test_classic_testbed_is_untouched_by_federation_plumbing(self):
        """Default ``build_testbed`` must keep the golden-trace shape:
        unprefixed names, plants bidding directly, no rack tier."""
        bed = build_testbed(seed=1, n_plants=2)
        assert bed.racks == []
        assert "plant0" in bed.registry and "vmshop" in bed.registry
        assert bed.shop.bidders == bed.plants
        with pytest.raises(ValueError):
            build_testbed(seed=1, n_plants=2, rack_size=0)


# ---------------------------------------------------------------------------
# One request path: every arrival ends in exactly one outcome
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", ["federation", "megaload"])
class TestEveryArrivalIsAccounted:
    """``arrivals == ok + failed + shed`` per site, whatever the source.

    Before the scenarios shared a request path, ``federation`` counted
    only local declines as failed: a spill that timed out, failed
    remotely or hit a dark neighbour moved its spill counter and no
    outcome at all.
    """

    BASE = {"plants": 4, "requests": 40, "cross_fraction": 0.3}

    @staticmethod
    def _site_stats(scenario, params):
        run = ShardedTestbed(
            seed=13, sites=4, shards=2, scenario=scenario
        ).run(params=params, collect=None, deadline_s=300.0)
        return [r["stats"] for r in run.site_results]

    @staticmethod
    def _assert_accounted(stats):
        summary = WorkloadSummary.from_state(stats["summary_state"])
        ok, failed, shed = (
            summary.total(k) for k in ("ok", "failed", "shed")
        )
        assert stats["arrivals"] == 40
        assert stats["arrivals"] == ok + failed + shed
        assert (stats["ok"], stats["failed"], stats["shed"]) == (
            ok, failed, shed,
        )

    def test_under_a_site_blackout(self, scenario):
        plan = grid_fault_plan(
            13, 4, 300.0,
            plants_per_site=4,
            blackout_sites=(1,), blackout_at=5.0, blackout_s=60.0,
        )
        sites = self._site_stats(
            scenario, {**self.BASE, "fault_plan": plan.to_records()}
        )
        for stats in sites:
            self._assert_accounted(stats)
        # Site 1's own arrivals fail fast while it is dark ...
        assert sites[1]["failed"] > 0
        # ... and site 0's spills into it vanish, time out at the
        # source and fail the request there; nobody else loses any.
        assert sites[1]["spills_dropped"] > 0
        assert (
            sites[0]["failed"]
            == sites[0]["spill_timeout"]
            == sites[1]["spills_dropped"]
        )
        assert sites[2]["failed"] == sites[3]["failed"] == 0

    def test_when_spills_time_out(self, scenario):
        sites = self._site_stats(
            scenario, {**self.BASE, "spill_deadline_s": 30.0}
        )
        for stats in sites:
            self._assert_accounted(stats)
            # No fault, no local decline: every failure is a spill
            # whose ack missed the deadline.
            assert stats["spill_timeout"] > 0
            assert stats["failed"] == stats["spill_timeout"]


class TestFederationSweepLatencies:
    """``run_federation`` reads p50/p95 from the merged sketches.

    Coverage for a hole the shared request path uncovered: with the
    per-request latency list gone and both columns silently 0.0,
    every other test still passed.
    """

    #: p50 / p95 of the (2 sites, cross 0.3) point from the exact
    #: per-request list, as ``run_federation`` reported them with
    #: these arguments at commit 05bfc3d.
    EXACT_P50_S = 126.88542307420475
    EXACT_P95_S = 159.32184480323014

    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.experiments.federation import run_federation

        return run_federation(
            seed=13,
            site_counts=(1, 2),
            cross_fractions=(0.0, 0.3),
            plants_per_site=4,
            requests_per_site=24,
            determinism_requests=8,
            deadline_s=120.0,
        )

    def test_every_point_reports_its_quantiles(self, sweep):
        assert len(sweep.points) == 4
        for p in sweep.points:
            assert 0 < p.p50_latency_s <= p.p95_latency_s, p

    def test_crossing_the_wan_shows_in_the_tail(self, sweep):
        assert sweep.point(2, 0.3).spilled_ok > 0
        assert (
            sweep.point(2, 0.3).p95_latency_s
            >= sweep.point(2, 0.0).p95_latency_s
        )

    def test_sketch_quantiles_match_the_exact_list(self, sweep):
        point = sweep.point(2, 0.3)
        rel_err = sweep.params["sketch_rel_err"]
        assert point.p50_latency_s == pytest.approx(
            self.EXACT_P50_S, rel=rel_err
        )
        assert point.p95_latency_s == pytest.approx(
            self.EXACT_P95_S, rel=rel_err
        )
        assert sweep.recheck.ok
