"""Grid-scale chaos: fault domains, failover ladder, admission.

Covers the robustness PR end to end —

* :func:`~repro.faults.plan.grid_fault_plan`: a pure function of its
  inputs, site-tagged events, ``for_site`` partitioning, record
  round-trips, and parameter validation;
* attach-time :class:`~repro.faults.injector.FaultInjector` target
  validation (unknown targets raise immediately, naming the target);
* the ``site-blackout`` / ``gateway-hang`` semantics on a federated
  site;
* chaos inside the sharded scenarios: a remote site crashing
  mid-spill leaks nothing at grid scope, a healed WAN partition lets
  a timed-out spill re-bid successfully, and the 1-vs-N-shard
  fingerprint contract holds with faults *and* admission enabled;
* :class:`~repro.federation.admission.AdmissionController` unit
  behavior plus the fairness property (the crowd sheds first, the
  interactive tier never does);
* speculative-pool preemption under pressure;
* a small end-to-end :func:`~repro.experiments.megachaos.run_megachaos`:
  monotone availability ladder, exact arrival accounting, zero leaks,
  and bit-identical replay from the recorded plan.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ReproError, ShopError
from repro.faults.audit import LEAK_DIMENSIONS, leak_report
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    GATEWAY_HANG,
    HOST_CRASH,
    SITE_BLACKOUT,
    WAN_DEGRADE,
    WAN_PARTITION,
    FaultEvent,
    FaultPlan,
    grid_fault_plan,
)
from repro.faults.recovery import RecoveryPolicy
from repro.federation.admission import AdmissionController
from repro.federation.site import build_federated_site
from repro.sim.cluster import build_testbed
from repro.sim.shard import ShardedTestbed
from repro.workloads.megaload import merged_summary as _merged


# ---------------------------------------------------------------------------
# Grid fault plans
# ---------------------------------------------------------------------------


class TestGridFaultPlan:
    def test_pure_function_of_inputs(self):
        kw = dict(
            plants_per_site=4,
            crash_plants_per_site=2,
            blackout_sites=(1,),
            blackout_at=60.0,
            blackout_s=30.0,
            gateway_hang_sites=(2,),
            wan_links=(("spill0", 0),),
            wan_at=80.0,
        )
        a = grid_fault_plan(7, 3, 400.0, **kw)
        b = grid_fault_plan(7, 3, 400.0, **kw)
        assert a.signature() == b.signature()
        assert a.signature() != grid_fault_plan(8, 3, 400.0, **kw).signature()

    def test_events_are_site_tagged_and_partition_cleanly(self):
        plan = grid_fault_plan(
            11,
            3,
            300.0,
            crash_plants_per_site=1,
            mtbf_s=60.0,  # short enough that renewal kinds appear
            blackout_sites=(0,),
            blackout_at=50.0,
            gateway_hang_sites=(1,),
            wan_links=(("spill2", 2),),
            wan_at=70.0,
        )
        assert all(e.site is not None for e in plan.events)
        total = sum(
            len(plan.for_site(k).events) for k in range(3)
        )
        assert total == len(plan.events)
        kinds = {e.kind for e in plan.events}
        assert SITE_BLACKOUT in kinds and GATEWAY_HANG in kinds
        assert WAN_PARTITION in kinds and HOST_CRASH in kinds
        # Site-scoped targets carry their site's name.
        for e in plan.events:
            if e.kind == SITE_BLACKOUT:
                assert e.target == f"site{e.site}"
            if e.kind == HOST_CRASH:
                assert e.target.startswith(f"site{e.site}-plant")

    def test_for_site_keeps_untagged_events_everywhere(self):
        plan = FaultPlan(
            [FaultEvent(at=1.0, kind=HOST_CRASH, target="plant0", duration=5.0)]
        )
        assert len(plan.for_site(0).events) == 1
        assert len(plan.for_site(7).events) == 1

    def test_records_round_trip_site_tags(self):
        plan = grid_fault_plan(
            5, 2, 200.0, blackout_sites=(1,), blackout_at=20.0
        )
        back = FaultPlan.from_records(
            json.loads(json.dumps(plan.to_records()))
        )
        assert back.signature() == plan.signature()
        assert [e.site for e in back.events] == [
            e.site for e in plan.events
        ]

    def test_wan_degrade_needs_severity(self):
        with pytest.raises(ValueError, match="severity"):
            FaultEvent(
                at=1.0,
                kind=WAN_DEGRADE,
                target="spill0",
                duration=5.0,
                severity=0.0,
            )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            grid_fault_plan(1, 2, 100.0, blackout_sites=(5,))
        with pytest.raises(ValueError):
            grid_fault_plan(
                1, 2, 100.0, plants_per_site=2, crash_plants_per_site=3
            )
        with pytest.raises(ValueError):
            grid_fault_plan(1, 2, 100.0, wan_links=(("spill9", 9),))


# ---------------------------------------------------------------------------
# Attach-time target validation
# ---------------------------------------------------------------------------


class TestInjectorValidation:
    def test_unknown_crash_target_raises_naming_it(self):
        bed = build_testbed(seed=3, n_plants=2)
        plan = FaultPlan(
            [
                FaultEvent(
                    at=1.0, kind=HOST_CRASH,
                    target="plant99", duration=5.0,
                )
            ]
        )
        with pytest.raises(ReproError, match="plant99"):
            FaultInjector(bed, plan)

    def test_wan_fault_needs_a_matching_link(self):
        bed = build_testbed(seed=3, n_plants=1)
        plan = FaultPlan(
            [
                FaultEvent(
                    at=1.0, kind=WAN_PARTITION,
                    target="spill7", duration=5.0,
                )
            ]
        )
        with pytest.raises(ReproError, match="spill7"):
            FaultInjector(bed, plan)

    def test_site_faults_need_a_gateway(self):
        bed = build_testbed(seed=3, n_plants=1)
        plan = FaultPlan(
            [
                FaultEvent(
                    at=1.0, kind=SITE_BLACKOUT,
                    target="site0", duration=5.0,
                )
            ]
        )
        with pytest.raises(ReproError, match="site0"):
            FaultInjector(bed, plan)

    def test_valid_plan_attaches(self):
        bed = build_testbed(seed=3, n_plants=2)
        plan = FaultPlan(
            [
                FaultEvent(
                    at=1.0, kind=HOST_CRASH,
                    target="plant1", duration=5.0,
                )
            ]
        )
        assert FaultInjector(bed, plan).start() == 1


# ---------------------------------------------------------------------------
# Site blackout / gateway hang semantics on a federated site
# ---------------------------------------------------------------------------


def _drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


class TestSiteBlackout:
    def _site_with_blackout(self, at=10.0, duration=20.0):
        site = build_federated_site(1, 2, seed=4, n_plants=2, rack_size=2)
        plan = FaultPlan(
            [
                FaultEvent(
                    at=at, kind=SITE_BLACKOUT,
                    target="site1", duration=duration,
                )
            ]
        )
        injector = FaultInjector(
            site.bed, plan, gateway=site.gateway, site=1
        )
        injector.start()
        return site, injector

    def test_blackout_downs_everything_then_heals(self):
        site, injector = self._site_with_blackout()
        env = site.bed.env

        def probe():
            yield env.timeout(15.0)  # mid-blackout
            assert all(p.down for p in site.bed.plants)
            assert site.bed.nfs.outage_mode is not None
            assert site.gateway.down_until == pytest.approx(30.0)
            none_bid = yield from site.gateway.estimate(
                _req()
            )
            assert none_bid is None
            with pytest.raises(ShopError, match="dark"):
                yield from site.gateway.create(_req())
            yield env.timeout(20.0)  # past recovery
            assert not any(p.down for p in site.bed.plants)
            assert site.bed.nfs.outage_mode is None
            ad = yield from site.gateway.create(_req())
            assert str(ad["vmid"]).startswith("site1-")

        _drive(env, probe())
        assert injector.skipped == 0

    def test_gateway_hang_stalls_inbound_creates(self):
        site = build_federated_site(0, 2, seed=4, n_plants=2, rack_size=2)
        plan = FaultPlan(
            [
                FaultEvent(
                    at=5.0, kind=GATEWAY_HANG,
                    target="site0-gateway", duration=30.0,
                )
            ]
        )
        FaultInjector(
            site.bed, plan, gateway=site.gateway, site=0
        ).start()
        env = site.bed.env

        def probe():
            yield env.timeout(10.0)  # mid-hang
            t0 = env.now
            ad = yield from site.gateway.create(_req())
            # The create stalled until the hang window passed.
            assert env.now >= 35.0 > t0
            assert ad["vmid"]

        _drive(env, probe())


def _req():
    from repro.workloads.requests import experiment_request

    return experiment_request(32)


class TestRingSpillUnderGatewayHang:
    """The spill ring's receiving side under a hung gateway: site 0
    sends every request to site 1, whose gateway hangs from
    ``HANG_AT`` to ``HANG_END``."""

    HANG_AT, HANG_END = 20.0, 320.0
    PARAMS = {
        "plants": 2,
        "rack_size": 2,
        "requests": 20,
        "rate_per_s": 0.5,
        "cross_fraction": 1.0,
        # Long enough that no ack stalled by the hang times out.
        "spill_deadline_s": 1000.0,
    }

    def _run(self, *extra):
        hang = FaultEvent(
            at=self.HANG_AT, kind=GATEWAY_HANG, target="site1-gateway",
            duration=self.HANG_END - self.HANG_AT, site=1,
        )
        plan = FaultPlan([hang, *extra])
        run = ShardedTestbed(
            seed=2004, sites=2, shards=1, scenario="federation"
        ).run(
            params={**self.PARAMS, "fault_plan": plan.to_records()},
            collect="trace",
            deadline_s=300.0,
        )
        stats = [r["stats"] for r in run.site_results]
        for site in stats:
            assert site["arrivals"] == 20
            assert site["arrivals"] == (
                site["ok"] + site["failed"] + site["shed"]
            )
        stalled = {
            event.data["seq"]
            for site, event in run.merged_trace()
            if site == 1
            and event.message == "spill-recv"
            and self.HANG_AT <= event.time < self.HANG_END
        }
        assert stalled  # the hang window catches some of the spills
        return run, stats, stalled

    def test_spills_received_during_the_hang_are_created_after_it(self):
        run, stats, stalled = self._run()
        latency = run.params["link_latency_s"]
        acks = {
            event.data["seq"]: event
            for site, event in run.merged_trace()
            if site == 0 and event.message == "ack-recv"
        }
        for seq in stalled:
            ack = acks[seq]
            assert ack.data["ok"] == 1
            # Created no earlier than the hang's end, then one WAN hop.
            assert ack.time >= self.HANG_END + latency
        assert stats[0]["spilled_ok"] == 20
        assert stats[1]["spills_dropped"] == 0

    def test_a_blackout_during_the_hang_drops_the_stalled_spills(self):
        blackout = FaultEvent(
            at=100.0, kind=SITE_BLACKOUT, target="site1",
            duration=400.0, site=1,
        )
        run, stats, stalled = self._run(blackout)
        # Every spill arrived before the blackout, so each drop is one
        # that waited out the hang and then found its site dark.
        assert stats[1]["spills_dropped"] == len(stalled)
        assert stats[0]["spill_timeout"] == stats[1]["spills_dropped"]


# ---------------------------------------------------------------------------
# Chaos inside the sharded scenarios
# ---------------------------------------------------------------------------


class TestShardedChaos:
    def test_remote_crash_mid_spill_leaks_nothing_at_grid_scope(self):
        """Site 1 goes dark while site 0's spills are in flight: the
        dropped spills time out at the source and the six leak
        dimensions stay zero everywhere after drain."""
        plan = grid_fault_plan(
            2004, 2, 200.0,
            blackout_sites=(1,), blackout_at=20.0, blackout_s=40.0,
        )
        prm = {
            "requests": 40,
            "cross_fraction": 0.4,
            "spill_deadline_s": 60.0,
            "fault_plan": plan.to_records(),
        }
        run = ShardedTestbed(
            seed=2004, sites=2, shards=2, scenario="megaload"
        ).run(params=prm, deadline_s=300.0)
        stats = run.combined_stats()
        assert stats["faults_applied"] >= 1
        assert stats["spills_dropped"] + stats["spill_timeout"] >= 1
        for dim in LEAK_DIMENSIONS:
            assert stats[f"leak_{dim}"] == 0, dim

    def test_wan_partition_heals_and_retry_rebids_successfully(self):
        """A spill that dies against a partitioned WAN link re-bids
        after the partition heals and lands."""
        # The cut (t=5..155) outlasts the 60s ack deadline, so first
        # attempts die against it; the third round lands post-heal.
        plan = grid_fault_plan(
            2004, 2, 300.0,
            wan_links=(("spill0", 0),), wan_at=5.0, wan_s=150.0,
        )
        prm = {
            "requests": 40,
            "cross_fraction": 0.4,
            "spill_deadline_s": 60.0,
            "fault_plan": plan.to_records(),
            "spill_attempts": 3,
            "spill_backoff_s": 30.0,
        }
        run = ShardedTestbed(
            seed=2004, sites=2, shards=2, scenario="megaload"
        ).run(params=prm, deadline_s=300.0)
        stats = run.combined_stats()
        assert stats["faults_applied"] >= 1
        assert stats["spill_timeout"] >= 1  # died against the cut
        assert stats["spill_retries"] >= 1  # re-bid after the heal
        assert stats["spilled_ok"] >= 1  # and landed
        for dim in LEAK_DIMENSIONS:
            assert stats[f"leak_{dim}"] == 0, dim

    def test_fingerprints_shard_invariant_with_faults_and_admission(self):
        plan = grid_fault_plan(
            2004, 2, 200.0,
            blackout_sites=(1,), blackout_at=30.0, blackout_s=30.0,
        )
        prm = {
            "requests": 24,
            "fault_plan": plan.to_records(),
            "spill_attempts": 2,
            "spill_backoff_s": 10.0,
            "local_fallback": True,
            "reroute_on_blackout": True,
            "shed_depth": 16,
            "preempt_depth": 12,
            "priorities": {"batch": 1, "crowd": 2},
            "spill_deadline_s": 120.0,
        }
        fps, sigs = {}, {}
        for shards in (1, 2):
            run = ShardedTestbed(
                seed=2004, sites=2, shards=shards, scenario="megaload"
            ).run(
                params=prm, collect="fingerprint", deadline_s=300.0
            )
            fps[shards] = run.fingerprint()
            sigs[shards] = _merged(run).state_signature()
        assert fps[1] == fps[2]
        assert sigs[1] == sigs[2]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_disabled_admits_everything(self):
        adm = AdmissionController()
        assert not adm.enabled
        assert all(adm.admit("anyone", t) for t in range(100))
        assert adm.shed_by_tenant == {}

    def test_depth_ceiling_is_tiered(self):
        adm = AdmissionController(
            shed_depth=12, priorities={"bulk": 2}
        )
        assert adm.depth_limit("vip") == 12
        assert adm.depth_limit("bulk") == 4
        for _ in range(4):
            adm.begin()
        assert not adm.admit("bulk", 0.0)  # at its tier ceiling
        assert adm.admit("vip", 0.0)  # tier 0 still fine
        assert adm.shed_by_tenant == {"bulk": 1}

    def test_rate_shedding_protects_tier_zero(self):
        adm = AdmissionController(
            shed_rate_per_s=1.0,
            rate_window_s=10.0,
            priorities={"bulk": 1},
        )
        for i in range(11):
            adm.admit("bulk", i * 0.5)  # 2/s offered, window fills
        assert not adm.admit("bulk", 5.5)
        assert adm.admit("vip", 5.6)  # tier 0 never rate-shed

    def test_preempt_is_one_shot_per_episode(self):
        adm = AdmissionController(preempt_depth=2)
        adm.begin()
        assert not adm.maybe_preempt()
        adm.begin()
        assert adm.maybe_preempt()
        assert not adm.maybe_preempt()  # same episode
        adm.done()  # depth 1 < 2: re-arms
        adm.begin()
        assert adm.maybe_preempt()
        assert adm.preempt_signals == 2

    def test_unbalanced_done_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController().done()

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(shed_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(shed_rate_per_s=-1.0)
        with pytest.raises(ValueError):
            AdmissionController(preempt_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(priorities={"x": -1})


class TestAdmissionFairness:
    def test_crowd_sheds_first_interactive_never_starves(self):
        """Under pressure the crowd tier sheds and the interactive
        tier does not — and admission never costs interactive
        completions relative to the unthrottled run."""
        base = {
            "requests": 80,
            "memory_mb": 64,
            "interactive_fraction": 0.4,
            "batch_fraction": 0.3,
            "flash_at_s": 20.0,  # crowd bursts into the busy window
            "spill_deadline_s": 120.0,
            "spill_attempts": 2,
            "spill_backoff_s": 10.0,
            "local_fallback": True,
        }
        # Tier-0's ceiling (90) exceeds a site's whole arrival count
        # (80), so interactive can never shed; the crowd's ceiling is
        # 90 // 3 = 30, well within reach of the burst.
        throttled = dict(
            base,
            shed_depth=90,
            priorities={"interactive": 0, "batch": 1, "crowd": 2},
        )
        runs = {}
        for name, prm in (("open", base), ("throttled", throttled)):
            run = ShardedTestbed(
                seed=2004, sites=2, shards=2, scenario="megaload"
            ).run(params=prm, deadline_s=300.0)
            runs[name] = _merged(run)
        shed = runs["throttled"].counters
        assert shed["crowd"]["shed"] > 0
        assert shed["interactive"]["shed"] == 0
        assert (
            runs["throttled"].counters["interactive"]["ok"]
            >= runs["open"].counters["interactive"]["ok"]
        )
        # Shedding is accounting, not failure: every crowd arrival is
        # either served, failed, or shed.
        crowd = shed["crowd"]
        open_crowd = runs["open"].counters["crowd"]
        assert (
            crowd["ok"] + crowd["failed"] + crowd["shed"]
            == open_crowd["ok"] + open_crowd["failed"]
        )


class TestPreemption:
    def test_pool_drain_reclaims_idle_clones(self):
        from repro.provisioning import ProvisioningConfig
        from repro.workloads.requests import experiment_request

        bed = build_testbed(
            seed=5,
            n_plants=1,
            provisioning=ProvisioningConfig(speculative_pools=True),
        )
        assert bed.pools

        def warm_then_drain():
            for _ in range(4):
                ad = yield from bed.shop.create(experiment_request(32))
                yield from bed.shop.destroy(str(ad["vmid"]))
                yield bed.env.timeout(30.0)
            pooled = sum(p.pooled_vms for p in bed.pools)
            drained = 0
            for pool in bed.pools:
                count = yield from pool.drain()
                drained += count
            return pooled, drained

        proc = bed.env.process(warm_then_drain())
        bed.env.run()
        pooled, drained = proc.value
        assert pooled > 0 and drained == pooled
        assert sum(p.pooled_vms for p in bed.pools) == 0

    def test_scenario_preemption_under_pressure(self):
        prm = {
            "requests": 60,
            "memory_mb": 64,
            "speculative_pools": True,
            "shed_depth": 48,
            "preempt_depth": 6,
            "priorities": {"crowd": 2},
        }
        run = ShardedTestbed(
            seed=2004, sites=2, shards=1, scenario="megaload"
        ).run(params=prm, deadline_s=300.0)
        stats = run.combined_stats()
        assert stats["preempt_signals"] >= 1
        # Drained or not, pooled slots never leak at drain.
        assert stats["leak_pool_slots"] == 0


# ---------------------------------------------------------------------------
# End-to-end megachaos (small)
# ---------------------------------------------------------------------------


class TestRunMegachaos:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.megachaos import run_megachaos

        return run_megachaos(
            sites=2,
            shards=2,
            requests_per_site=40,
            blackout_at=30.0,
            blackout_s=30.0,
            shed_depth=48,
            preempt_depth=32,
            det_shard_counts=(1, 2),
            determinism_requests=20,
            deadline_s=300.0,
        )

    def test_every_rung_accounts_every_arrival(self, result):
        assert [p.rung for p in result.points] == [
            "none", "faults", "failover", "admission",
        ]
        for p in result.points:
            assert p.accounted, p.rung
            assert p.arrivals == 80

    def test_faults_fire_and_ladder_is_monotone(self, result):
        assert result.point("none").faults_applied == 0
        assert result.point("faults").faults_applied >= 1
        assert result.ladder_monotone

    def test_zero_leaks_everywhere(self, result):
        assert not result.leaked
        for p in result.points:
            assert set(p.leaks) == set(LEAK_DIMENSIONS)

    def test_determinism_across_shard_counts(self, result):
        assert result.recheck.ok
        assert set(result.recheck.fingerprints) == {1, 2}
        assert set(result.recheck.signatures) == {1, 2}

    def test_replay_is_bit_identical(self, result):
        from repro.experiments.megachaos import HOST_SIDE, replay

        rec = json.loads(json.dumps(result.to_record()))
        assert not set(rec["config"]) & set(HOST_SIDE)
        again = replay(rec, deadline_s=300.0)
        assert json.dumps(rec, sort_keys=True) == json.dumps(
            again.to_record(), sort_keys=True
        )

    def test_fault_horizon_follows_the_scenario_defaults(self, monkeypatch):
        import repro.experiments.megachaos as megachaos
        from repro.federation.scenario import SITE_DEFAULTS

        class Planned(Exception):
            pass

        seen = {}

        def capture(seed, sites, horizon_s, **kwargs):
            seen.update(horizon_s=horizon_s, plants=kwargs["plants_per_site"])
            raise Planned

        monkeypatch.setitem(SITE_DEFAULTS, "rate_per_s", 4.0)
        monkeypatch.setitem(SITE_DEFAULTS, "plants", 6)
        monkeypatch.setattr(megachaos, "grid_fault_plan", capture)
        with pytest.raises(Planned):
            megachaos.run_megachaos(
                sites=2, shards=2, requests_per_site=40, mttr_s=60.0
            )
        assert seen == {"horizon_s": 40 / 4.0 + 6 * 60.0, "plants": 6}

    def test_report_has_no_wall_clock_fields(self, result):
        payload = json.dumps(result.to_record())
        assert "wall" not in payload and "rss" not in payload

    def test_leak_report_shape(self):
        bed = build_testbed(seed=3, n_plants=1)
        report = leak_report(bed)
        assert set(report) == set(LEAK_DIMENSIONS)
        assert all(v == 0 for v in report.values())
