"""Federated multi-site control plane: addressing, sites, spill-over.

Pins the federation contracts:

* **hierarchical vnet allocation** — site blocks are disjoint pure
  functions of ``(sites, base_octet, subnets_per_site)``, exhaust with
  :class:`VNetError`, reuse released subnets FIFO, and reject foreign
  or double releases;
* **determinism across shard counts** — the ``federation`` scenario's
  merged-trace fingerprint is identical at 1, 2 and 4 shards, and the
  classic single-site testbed is untouched by the federation plumbing;
* **spill knobs are checked before the fork** — a bad value is the
  caller's :class:`ValueError`, never a crashed worker.

Plus one site's wiring: rack brokers in front of the shop,
site-prefixed names, and the gateway's one-round local placement and
spill decision.
"""

from __future__ import annotations

import pytest

from repro.analysis.streaming import WorkloadSummary
from repro.core.errors import ShopError, VNetError
from repro.faults.plan import grid_fault_plan
from repro.federation.addressing import (
    ADDRESSES_PER_SUBNET,
    HierarchicalAddressPlan,
    SubnetBlock,
)
from repro.federation.gateway import FederationGateway
from repro.federation.site import build_federated_site
from repro.shop.bidding import Bid
from repro.sim.cluster import build_testbed
from repro.sim.kernel import Environment
from repro.sim.shard import ShardedTestbed
from repro.sim.shard.runner import ShardWorkerError
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
# One site's wiring and its gateway
# ---------------------------------------------------------------------------


def _bid(cost: float) -> Bid:
    return Bid(bidder_name=f"b{cost}", cost=cost, bidder=object())


def _site(**kw):
    """Site 0 of a one-site federation."""
    return build_federated_site(0, 1, seed=3, **kw)


class TestFederatedGrid:
    def test_sites_share_one_kernel_with_disjoint_state(self):
        env = Environment()
        sites = [
            build_federated_site(
                s, 2, seed=3, n_plants=2, rack_size=2, env=env
            )
            for s in range(2)
        ]
        assert sites[0].bed.env is sites[1].bed.env
        # Site-prefixed service names, each in its own site's registry.
        assert "site0-plant0" in sites[0].bed.registry
        assert "site0-plant0" not in sites[1].bed.registry
        assert "site1-vmshop" in sites[1].bed.registry
        # Each site's pools draw from its own subnet block.
        pools0, pools1 = (
            {
                net.subnet
                for p in site.bed.plants
                for net in p.network_pool.networks
            }
            for site in sites
        )
        assert pools0 and pools1 and not (pools0 & pools1)

    def test_rack_brokers_front_the_shop(self):
        site = _site(n_plants=4, rack_size=2)
        assert [r.name for r in site.bed.racks] == ["site0-rack0", "site0-rack1"]
        # The shop bids against the broker tier, not plants directly.
        assert site.bed.shop.bidders == site.bed.racks
        ad = site.bed.run(site.bed.shop.create(experiment_request(32)))
        assert str(ad["vmid"]).startswith("site0-vmshop-vm-")

    def test_gateway_spills_when_local_site_declines(self):
        site = _site(n_plants=1, rack_size=1, max_vms_per_plant=1)
        gw = site.gateway
        ad = site.bed.run(gw.place(experiment_request(32)))
        assert str(ad["vmid"]).startswith("site0-")
        # Site 0's single slot is taken: no local bid, so the request
        # is handed back to leave the site.
        assert site.bed.run(gw.place(experiment_request(32))) is None
        assert (gw.spills_declined, gw.spills_saturated) == (1, 0)

    def test_should_spill_threshold(self):
        site = _site(n_plants=1, rack_size=1, spill_threshold=50.0)
        gw = site.gateway
        assert gw.should_spill([])  # decline: no bids at all
        assert not gw.should_spill([_bid(10.0), _bid(60.0)])
        assert gw.should_spill([_bid(51.0)])  # saturated
        # No threshold configured: never spill while the site bids.
        gw_free = FederationGateway(0, site.bed.shop)
        assert not gw_free.should_spill([_bid(1e9)])
        assert gw_free.should_spill([])


class TestOneBidRoundPerPlacement:
    """The round that decides spill-or-stay is the round the local
    create is dispatched from; only a create that follows simulated
    time (a spill's target site) bids afresh."""

    @staticmethod
    def counters(site):
        shop = site.bed.shop
        return (
            shop.collector.collections,
            shop.collector.bids_collected,
            shop.transport.calls,
        )

    def test_local_placement_runs_exactly_one_collection(self):
        site = _site(n_plants=4, rack_size=2)
        ad = site.bed.run(site.gateway.place(experiment_request(32)))
        assert str(ad["vmid"]).startswith("site0-")
        # Two rack brokers bid once each; the create is the third call.
        assert self.counters(site) == (1, 2, 3)

    def test_no_spill_route_places_a_saturated_request_locally(self):
        site = _site(
            n_plants=1, rack_size=1, max_vms_per_plant=1,
            spill_threshold=0.0,
        )
        gateway = site.gateway
        # With a route, the saturated round hands the request back.
        assert site.bed.run(gateway.place(experiment_request(32))) is None
        assert gateway.spills_saturated == 1
        assert self.counters(site) == (1, 1, 1)
        # Without one, the same saturated bids place it here.
        ad = site.bed.run(
            gateway.place(experiment_request(32), can_spill=False)
        )
        assert ad is not None and gateway.spills_saturated == 1
        assert self.counters(site) == (2, 2, 3)
        # Site now full: nowhere to spill to is a plain failure.
        with pytest.raises(ShopError, match="no local plant bid"):
            site.bed.run(
                gateway.place(experiment_request(32), can_spill=False)
            )
        assert gateway.spills_declined == 0

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


class TestBadLoadIsTheCallersError:
    @pytest.mark.parametrize(
        "scenario,params,match",
        [
            ("megaload", {"rate_per_s": 0}, "rate_per_s"),
            ("federation", {"rate_per_s": -1.0}, "rate_per_s"),
            ("federation", {"cross_fraction": 1.5}, "cross_fraction"),
            ("megaload", {"cross_fraction": -0.1}, "cross_fraction"),
            ("federation", {"requests": -1}, "requests"),
        ],
    )
    def test_rejected_before_any_fork(
        self, monkeypatch, scenario, params, match
    ):
        import repro.sim.shard.runner as runner

        def started(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(runner, "_run_forked", started)
        monkeypatch.setattr(runner, "_run_inprocess", started)
        plan = ShardedTestbed(seed=13, sites=2, shards=2, scenario=scenario)
        with pytest.raises(ValueError, match=match):
            plan.run(params=params)
        with pytest.raises(ValueError, match=match):
            ShardedTestbed(
                seed=13, sites=2, shards=2, scenario=scenario, params=params
            )


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


# ---------------------------------------------------------------------------
# Spill knobs are outside input: checked before any worker forks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", ["federation", "megaload"])
@pytest.mark.parametrize(
    "param, value, message",
    [
        ("spill_deadline_s", 0.0, "spill_deadline_s must be positive"),
        ("spill_attempts", 0, "spill_attempts must be >= 1"),
        ("spill_backoff_s", -1.0, "spill_backoff_s must be non-negative"),
        ("spill_threshold", -1.0, "spill_threshold must be non-negative"),
    ],
)
def test_bad_spill_param_is_a_value_error_before_the_fork(
    scenario, param, value, message
):
    plan = ShardedTestbed(seed=13, sites=2, shards=2, scenario=scenario)
    with pytest.raises(ValueError, match=message) as raised:
        plan.run(params={param: value}, collect=None, deadline_s=60.0)
    assert not isinstance(raised.value, ShardWorkerError)
