"""Tests for the fault-injection layer and the recovery ladder.

Covers: deterministic FaultPlan generation/replay, the PlantHealth
circuit breaker, plant crash/recover semantics, warehouse outage
modes, link pause/degrade, bid and create deadlines, abort_creation
leak regression, reaper/monitor sweep hardening — and the pin that
all-off defaults leave the golden event trajectory bit-identical.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    PlantError,
    ReproError,
    ShopError,
    StorageError,
)
from repro.faults.health import BreakerState, PlantHealth
from repro.faults.injector import FaultInjector
from repro.faults.plan import HOST_CRASH, WAREHOUSE_OUTAGE, FaultEvent, FaultPlan
from repro.faults.recovery import (
    CIRCUIT_BREAKER,
    DEADLINE_BACKOFF,
    RecoveryPolicy,
)
from repro.plant.monitor import VMMonitor
from repro.plant.reaper import LeaseReaper
from repro.sim.cluster import build_testbed
from repro.sim.kernel import Environment
from repro.sim.network import FairShareLink
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer
from repro.workloads.requests import experiment_request, request_stream

from tests.helpers import drive


def _plan_kwargs(**overrides):
    kwargs = dict(
        crash_targets=["plant0", "plant1"],
        mtbf_s=200.0,
        mttr_s=50.0,
        warehouse=True,
        hang_targets=["plant2"],
    )
    kwargs.update(overrides)
    return kwargs


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        p1 = FaultPlan.exponential(RngHub(42), 3000.0, **_plan_kwargs())
        p2 = FaultPlan.exponential(RngHub(42), 3000.0, **_plan_kwargs())
        assert p1.to_records() == p2.to_records()
        assert p1.signature() == p2.signature()

    def test_different_seed_different_schedule(self):
        p1 = FaultPlan.exponential(RngHub(1), 3000.0, **_plan_kwargs())
        p2 = FaultPlan.exponential(RngHub(2), 3000.0, **_plan_kwargs())
        assert p1.signature() != p2.signature()

    def test_per_target_streams_are_independent(self):
        """Adding targets never perturbs another target's schedule."""
        small = FaultPlan.exponential(
            RngHub(7), 3000.0, crash_targets=["plant0"]
        )
        big = FaultPlan.exponential(
            RngHub(7),
            3000.0,
            crash_targets=["plant0", "plant1"],
            warehouse=True,
        )
        plant0 = [e for e in big if e.target == "plant0"]
        assert [
            (e.at, e.duration) for e in small
        ] == [(e.at, e.duration) for e in plant0]

    def test_records_roundtrip(self):
        plan = FaultPlan.exponential(RngHub(3), 2000.0, **_plan_kwargs())
        clone = FaultPlan.from_records(plan.to_records())
        assert clone.signature() == plan.signature()
        assert len(clone) == len(plan)

    def test_events_sorted(self):
        e1 = FaultEvent(at=50.0, kind=HOST_CRASH, target="a", duration=5.0)
        e2 = FaultEvent(at=10.0, kind=HOST_CRASH, target="b", duration=5.0)
        plan = FaultPlan([e1, e2])
        assert [e.at for e in plan] == [10.0, 50.0]
        assert e2.recover_at == 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="meteor", target="x", duration=1.0)
        with pytest.raises(ValueError):
            FaultEvent(at=-1.0, kind=HOST_CRASH, target="x", duration=1.0)
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind=HOST_CRASH, target="x", duration=0.0)
        with pytest.raises(ValueError):
            FaultEvent(
                at=0.0, kind=WAREHOUSE_OUTAGE, target="w",
                duration=1.0, mode="maybe",
            )
        with pytest.raises(ValueError):
            FaultPlan.exponential(RngHub(0), 0.0)
        with pytest.raises(ValueError):
            FaultPlan.exponential(RngHub(0), 10.0, mtbf_s=0.0)


class TestPlantHealth:
    def test_open_half_open_close_cycle(self):
        h = PlantHealth("p0", threshold=2, quarantine_s=100.0)
        assert h.state is BreakerState.CLOSED
        assert not h.record_failure(0.0)
        assert h.record_failure(1.0)  # second consecutive: opens
        assert h.state is BreakerState.OPEN
        assert not h.allows(50.0)  # still quarantined
        assert h.allows(101.0)  # window elapsed: half-open probe
        assert h.state is BreakerState.HALF_OPEN
        assert h.allows(102.0)  # stays admitted until an outcome
        assert h.record_success(103.0)  # probe worked: closes
        assert h.state is BreakerState.CLOSED
        assert h.times_opened == 1
        assert h.probes == 1

    def test_half_open_failure_reopens(self):
        h = PlantHealth("p0", threshold=1, quarantine_s=10.0)
        assert h.record_failure(0.0)
        assert h.allows(10.0)
        assert h.state is BreakerState.HALF_OPEN
        assert h.record_failure(11.0)  # probe failed: instant reopen
        assert h.state is BreakerState.OPEN
        assert h.opened_at == 11.0
        assert h.times_opened == 2

    def test_disabled_breaker_never_opens(self):
        h = PlantHealth("p0", threshold=0, quarantine_s=10.0)
        for t in range(20):
            assert not h.record_failure(float(t))
            assert h.allows(float(t))
        assert h.state is BreakerState.CLOSED


class TestRecoveryPolicy:
    def test_defaults_disabled(self):
        policy = RecoveryPolicy()
        assert not policy.enabled
        assert policy.backoff_delay(1) == 0.0
        assert policy.backoff_delay(5) == 0.0

    def test_backoff_sequence(self):
        policy = RecoveryPolicy(
            max_attempts=4, backoff_base_s=10.0, backoff_factor=2.0
        )
        assert policy.enabled
        assert [policy.backoff_delay(a) for a in (1, 2, 3, 4)] == [
            0.0, 10.0, 20.0, 40.0,
        ]

    def test_presets_enabled(self):
        assert DEADLINE_BACKOFF.enabled
        assert CIRCUIT_BREAKER.quarantine_threshold > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(create_deadline_s=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(quarantine_s=0.0)


class TestGoldenAllOff:
    def test_all_off_trajectory_is_bit_identical(self):
        """Explicit all-off recovery + an empty fault plan change
        nothing: the golden trace fingerprint still matches."""
        from tests.test_determinism import TestGoldenTrajectories

        bed = build_testbed(
            seed=11, n_plants=2, recovery=RecoveryPolicy()
        )
        FaultInjector(bed, FaultPlan()).start()
        tracer = bed.attach_tracer()

        def client():
            for request in request_stream(32, 4):
                yield from bed.shop.create(request)

        bed.run(client())
        fp = hashlib.sha256(
            repr(
                [
                    (
                        e.time,
                        e.category,
                        e.message,
                        tuple(sorted(e.data.items())),
                    )
                    for e in tracer.events
                ]
            ).encode()
        ).hexdigest()
        assert fp == TestGoldenTrajectories.TRACE_FP


ZERO_LEAKS = {
    "memory": 0.0, "vms": 0, "admitted": 0.0, "infosys": 0, "leases": 0,
}


def _leaks(bed):
    admitted = 0.0
    for line_list in bed.lines.values():
        for line in line_list:
            admitted += sum(getattr(line, "_admitted", {}).values())
    return {
        "memory": sum(h.committed_guest_mb for h in bed.hosts),
        "vms": sum(h.vm_count for h in bed.hosts),
        "admitted": admitted,
        "infosys": sum(len(p.infosys) for p in bed.plants),
        "leases": sum(
            p.network_pool.attached_count() for p in bed.plants
        ),
    }


class TestPlantCrash:
    def test_crash_kills_vms_and_releases_everything(self):
        bed = build_testbed(seed=5, n_plants=1)
        plant = bed.plants[0]
        drive(bed.env, bed.shop.create(experiment_request(32)))
        drive(bed.env, bed.shop.create(experiment_request(32)))
        assert len(plant.infosys) == 2
        assert bed.hosts[0].committed_guest_mb > 0

        killed = plant.fail()
        assert killed == 2
        assert plant.down
        assert bed.hosts[0].down
        assert _leaks(bed) == ZERO_LEAKS
        # Down plants decline bids and refuse creates.
        assert plant.estimate(experiment_request(32)) is None
        assert plant.fail() == 0  # idempotent

        plant.recover()
        assert not plant.down and not bed.hosts[0].down
        assert plant.estimate(experiment_request(32)) is not None
        plant.recover()  # idempotent

    def test_destroy_after_crash_drops_stale_route(self):
        bed = build_testbed(seed=5, n_plants=1)
        ad = drive(bed.env, bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])
        bed.plants[0].fail()
        bed.plants[0].recover()
        with pytest.raises(ReproError):
            drive(bed.env, bed.shop.destroy(vmid))
        assert vmid not in bed.shop.active_vmids()

    # A 32MB create runs ~24s: 10s is mid-clone, 20s mid-configure —
    # each exercises a different unwinding path in _produce_phases.
    @pytest.mark.parametrize("crash_at", [10.0, 20.0])
    def test_crash_mid_create_fails_without_leaks(self, crash_at):
        bed = build_testbed(seed=5, n_plants=1)
        plant = bed.plants[0]

        def scenario():
            proc = bed.env.process(
                bed.shop.create(experiment_request(32))
            )
            yield bed.env.timeout(crash_at)
            plant.fail()
            try:
                yield proc
            except ReproError:
                return "failed"
            return "created"

        assert drive(bed.env, scenario()) == "failed"
        assert _leaks(bed) == ZERO_LEAKS


class TestWarehouseOutage:
    def test_stall_parks_new_reads_until_recovery(self):
        env = Environment()
        nfs = NFSServer(env, "nfs")
        assert nfs.begin_outage("stall")
        assert not nfs.begin_outage("stall")  # overlap rejected

        def reader():
            yield from nfs.read_file(10.0)
            return env.now

        def op():
            proc = env.process(reader())
            yield env.timeout(40.0)
            nfs.end_outage()
            done = yield proc
            return done

        finished = drive(env, op())
        assert finished > 40.0
        assert nfs.outages == 1

    def test_abort_fails_inflight_and_new_transfers(self):
        env = Environment()
        nfs = NFSServer(env, "nfs")

        def reader():
            try:
                yield from nfs.read_file(500.0)
            except StorageError:
                return "aborted"
            return "served"

        def op():
            proc = env.process(reader())
            yield env.timeout(1.0)  # transfer in flight
            assert nfs.begin_outage("abort")
            first = yield proc
            second = yield env.process(reader())
            nfs.end_outage()
            third = yield env.process(reader())
            return first, second, third

        assert drive(env, op()) == ("aborted", "aborted", "served")
        assert nfs.aborted_transfers == 1

    def test_unknown_mode_rejected(self):
        env = Environment()
        nfs = NFSServer(env, "nfs")
        with pytest.raises(ValueError):
            nfs.begin_outage("flood")


class TestLinkFaults:
    def test_pause_freezes_flows(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=1.0)  # 1 MB/s

        def op():
            done = link.transfer(10.0)  # 10 s nominal
            yield env.timeout(2.0)
            link.pause()
            assert link.paused
            yield env.timeout(100.0)  # frozen: nothing completes
            assert not done.triggered
            link.resume()
            yield done
            return env.now

        assert drive(env, op()) == pytest.approx(110.0)

    def test_degrade_and_restore_bandwidth(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=1.0)

        def op():
            done = link.transfer(10.0)
            yield env.timeout(5.0)  # 5 MB done
            link.set_bandwidth(0.5)  # half speed: 10 s for the rest
            yield done
            return env.now

        assert drive(env, op()) == pytest.approx(15.0)

    def test_abort_flows_fails_waiters(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=1.0)

        def waiter():
            try:
                yield link.transfer(100.0)
            except StorageError:
                return "dead"
            return "ok"

        def op():
            procs = [env.process(waiter()) for _ in range(3)]
            yield env.timeout(1.0)
            n = link.abort_flows(lambda: StorageError("outage"))
            results = []
            for proc in procs:
                value = yield proc
                results.append(value)
            return n, results

        n, results = drive(env, op())
        assert n == 3
        assert results == ["dead"] * 3
        assert link.active_flows == 0


class TestBidDeadline:
    def test_hung_bidder_is_dropped_at_deadline(self):
        bed = build_testbed(
            seed=5, n_plants=2,
            recovery=RecoveryPolicy(bid_deadline_s=5.0),
        )
        bed.plants[0].fail()  # its estimate_proc now hangs
        ad = drive(bed.env, bed.shop.create(experiment_request(32)))
        assert str(ad["plant"]) == "plant1"
        assert bed.env.now >= 5.0

    def test_all_bidders_hung_raises_shop_error(self):
        bed = build_testbed(
            seed=5, n_plants=2,
            recovery=RecoveryPolicy(bid_deadline_s=5.0),
        )
        for plant in bed.plants:
            plant.fail()
        with pytest.raises(ShopError):
            drive(bed.env, bed.shop.create(experiment_request(32)))


class TestCreateDeadline:
    def test_deadline_aborts_slow_create_without_leaks(self):
        bed = build_testbed(
            seed=5, n_plants=1,
            recovery=RecoveryPolicy(create_deadline_s=20.0),
        )
        # A 256MB create takes ~54s: the deadline always fires.
        with pytest.raises(DeadlineExceeded):
            drive(bed.env, bed.shop.create(experiment_request(256)))
        assert bed.env.now >= 20.0
        assert _leaks(bed) == ZERO_LEAKS

    def test_backoff_rebid_eventually_succeeds(self):
        bed = build_testbed(
            seed=5, n_plants=2,
            recovery=RecoveryPolicy(
                max_attempts=3,
                backoff_base_s=30.0,
                bid_deadline_s=5.0,
            ),
        )

        def heal(after):
            yield bed.env.timeout(after)
            for plant in bed.plants:
                plant.recover()

        def scenario():
            for plant in bed.plants:
                plant.fail()
            # Both hosts come back during the second backoff window:
            # attempt 1 finds no bids at ~5s, attempt 2 at ~40s,
            # attempt 3 (after a 60s backoff) succeeds.
            bed.env.process(heal(50.0))
            ad = yield from bed.shop.create(experiment_request(32))
            return ad

        ad = drive(bed.env, scenario())
        assert str(ad["vmid"]).startswith("vmshop-vm-")
        assert bed.env.now > 90.0


class TestAbortCreationRegression:
    def test_failed_creates_leak_nothing(self):
        """Satellite regression: retrying across plants after clone
        failures must not leak leases, memory, or pool slots."""
        bed = build_testbed(
            seed=9, n_plants=2, retry_other_plants=True
        )
        for line_list in bed.lines.values():
            for line in line_list:
                line.clone_failure_prob = 1.0
        with pytest.raises(ReproError):
            drive(bed.env, bed.shop.create(experiment_request(32)))
        assert _leaks(bed) == ZERO_LEAKS

    def test_abort_creation_is_idempotent(self):
        bed = build_testbed(seed=9, n_plants=1)
        plant = bed.plants[0]
        assert plant.abort_creation("no-such-vm") == []
        ad = drive(bed.env, bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])
        released = plant.abort_creation(vmid)
        assert "vm" in released
        assert plant.abort_creation(vmid) == []
        assert _leaks(bed) == ZERO_LEAKS


class TestQuarantine:
    def _bed(self):
        bed = build_testbed(
            seed=13, n_plants=2,
            retry_other_plants=True,
            recovery=RecoveryPolicy(
                quarantine_threshold=2, quarantine_s=10_000.0
            ),
        )
        # plant0 always fails its clones until "fixed" by the test.
        for line in bed.plants[0].lines.values():
            line.clone_failure_prob = 1.0
        return bed

    def test_repeat_offender_is_quarantined(self):
        bed = self._bed()
        tracer = bed.attach_tracer()

        def scenario():
            for _ in range(4):
                yield from bed.shop.create(experiment_request(32))

        drive(bed.env, scenario())
        breaker = bed.shop.health["plant0"]
        assert breaker.times_opened == 1
        assert breaker.state is BreakerState.OPEN
        # Once open, plant0 no longer receives create dispatches.
        dispatched = [
            e.data["plant"] for e in tracer.select("shop")
            if e.message in ("created", "create-failed")
        ]
        assert dispatched.count("plant0") == 2  # only the two strikes

    def test_half_open_probe_after_quarantine(self):
        bed = self._bed()

        def scenario():
            for _ in range(3):
                yield from bed.shop.create(experiment_request(32))
            yield bed.env.timeout(20_000.0)  # quarantine elapses
            for line in bed.plants[0].lines.values():
                line.clone_failure_prob = 0.0  # host fixed
            for _ in range(4):
                yield from bed.shop.create(experiment_request(32))

        drive(bed.env, scenario())
        breaker = bed.shop.health["plant0"]
        assert breaker.probes >= 1
        assert breaker.state is BreakerState.CLOSED


class TestReaperHardening:
    def _bed_with_leases(self, n):
        bed = build_testbed(seed=3, n_plants=1)
        request = replace(experiment_request(32), lease_s=1.0)
        vmids = []
        for _ in range(n):
            ad = drive(bed.env, bed.shop.create(request))
            vmids.append(str(ad["vmid"]))
        return bed, vmids

    def test_sweep_continues_past_failing_destroy(self):
        bed, vmids = self._bed_with_leases(2)
        plant = bed.plants[0]
        reaper = LeaseReaper(bed.env, plant, period=10.0)
        original = plant.destroy
        poisoned = vmids[0]

        def destroy(vmid, *args, **kwargs):
            if vmid == poisoned:
                raise PlantError("injected destroy failure")
            return original(vmid, *args, **kwargs)

        plant.destroy = destroy

        def op():
            yield bed.env.timeout(5.0)  # leases lapsed
            count = yield from reaper.sweep()
            return count

        assert drive(bed.env, op()) == 1
        assert reaper.failed == [poisoned]
        assert reaper.reaped == [vmids[1]]

    def test_orphan_collection(self):
        bed = build_testbed(seed=3, n_plants=1)
        ad = drive(bed.env, bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])
        # Simulate shop-side amnesia: the plant still runs the VM.
        del bed.shop._route[vmid]
        reaper = LeaseReaper(
            bed.env, bed.plants[0], period=10.0,
            shop=bed.shop, orphan_grace_s=1000.0,
        )

        def op():
            yield bed.env.timeout(30.0)
            early = yield from reaper.sweep()  # inside grace: kept
            yield bed.env.timeout(2000.0)
            late = yield from reaper.sweep()
            return early, late

        assert drive(bed.env, op()) == (0, 1)
        assert reaper.orphans_collected == [vmid]
        assert len(bed.plants[0].infosys) == 0


class TestMonitorHardening:
    def test_sweep_survives_update_failure(self):
        bed = build_testbed(seed=3, n_plants=1)
        drive(bed.env, bed.shop.create(experiment_request(32)))
        drive(bed.env, bed.shop.create(experiment_request(32)))
        plant = bed.plants[0]
        monitor = VMMonitor(bed.env, plant.infosys, period=30.0)
        victim = plant.infosys.active()[0].vmid
        original = plant.infosys.update

        def update(vmid, attrs):
            if vmid == victim:
                raise PlantError("injected update failure")
            return original(vmid, attrs)

        plant.infosys.update = update
        monitor.sweep()
        assert monitor.sweeps == 1
        assert monitor.failed == [victim]


class TestInjectorAndChaos:
    def test_injector_applies_and_recovers(self):
        bed = build_testbed(seed=5, n_plants=2)
        plan = FaultPlan(
            [
                FaultEvent(
                    at=10.0, kind=HOST_CRASH,
                    target="plant0", duration=20.0,
                ),
                FaultEvent(
                    at=15.0, kind=WAREHOUSE_OUTAGE,
                    target="warehouse", duration=5.0,
                ),
                # Overlaps the first crash: skipped, not double-applied.
                FaultEvent(
                    at=12.0, kind=HOST_CRASH,
                    target="plant0", duration=5.0,
                ),
            ]
        )
        injector = FaultInjector(bed, plan)
        assert injector.start() == 3

        def op():
            yield bed.env.timeout(100.0)

        drive(bed.env, op())
        assert injector.skipped == 1
        phases = [
            (phase, kind) for _, phase, kind, _ in injector.applied
        ]
        assert phases.count(("inject", HOST_CRASH)) == 1
        assert phases.count(("recover", HOST_CRASH)) == 1
        assert not bed.plants[0].down
        assert bed.nfs.outage_mode is None
        assert injector.mean_time_to_recover() == pytest.approx(12.5)

    def test_chaos_ladder_monotone_replayable_leak_free(self):
        from repro.experiments.chaos import replay, run_chaos

        kwargs = dict(
            seed=7, requests=12, rate=0.1,
            mtbf_sweep=(150.0,), mttr_s=50.0, n_plants=3,
        )
        result = run_chaos(**kwargs)
        ladder = result.availability_ladder(150.0)
        assert all(b >= a for a, b in zip(ladder, ladder[1:]))
        assert all(
            not p.leaked for p in result.points[150.0]
        ), [p.leaks for p in result.points[150.0]]
        again = replay(json.loads(json.dumps(result.to_record())))
        assert [
            (p.policy, p.fingerprint) for p in again.points[150.0]
        ] == [(p.policy, p.fingerprint) for p in result.points[150.0]]
        assert again.plan_signature(150.0) == result.plan_signature(
            150.0
        )
        assert json.dumps(again.to_record()) == json.dumps(
            result.to_record()
        )
