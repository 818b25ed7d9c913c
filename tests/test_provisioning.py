"""Tests for the provisioning-throughput layer.

Host-side golden-state caching, in-flight transfer coalescing, and
adaptive speculative pools — plus the guarantee that the whole layer
is invisible when switched off.
"""

import dataclasses
import hashlib

import pytest

from repro.provisioning import FULL_PROVISIONING, ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.sim.host import HostStateCache
from repro.workloads.requests import experiment_request, request_stream

from tests.helpers import drive


class TestProvisioningConfig:
    def test_defaults_disabled(self):
        config = ProvisioningConfig()
        assert not config.enabled
        assert config.host_cache_mb == 0.0
        assert not config.coalesce_transfers
        assert not config.speculative_pools

    def test_full_enabled(self):
        assert FULL_PROVISIONING.enabled
        assert FULL_PROVISIONING.speculative_pools

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"host_cache_mb": -1.0},
            {"pool_target_hit_rate": 0.0},
            {"pool_target_hit_rate": 1.5},
            {"pool_min_target": -1},
            {"pool_min_target": 5, "pool_max_target": 2},
            {"pool_window": 1},
            {"pool_lead_time_s": 0.0},
            {"pool_bid_discount": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProvisioningConfig(**kwargs)


class TestHostStateCache:
    def test_lookup_miss_then_hit(self):
        cache = HostStateCache(100.0)
        assert not cache.lookup("img-a")
        assert cache.insert("img-a", 40.0)
        assert cache.lookup("img-a")
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = HostStateCache(100.0)
        cache.insert("a", 40.0)
        cache.insert("b", 40.0)
        cache.lookup("a")  # touch: b becomes LRU
        cache.insert("c", 40.0)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1
        assert cache.used_mb == pytest.approx(80.0)

    def test_oversize_state_not_admitted(self):
        cache = HostStateCache(100.0)
        assert not cache.insert("huge", 2048.0)
        assert len(cache) == 0
        cache.insert("a", 60.0)
        assert not cache.insert("huge", 101.0)
        assert "a" in cache  # nothing evicted for an unadmittable entry

    def test_refresh_updates_size(self):
        cache = HostStateCache(100.0)
        cache.insert("a", 40.0)
        cache.insert("a", 70.0)
        assert cache.used_mb == pytest.approx(70.0)
        assert len(cache) == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            HostStateCache(0.0)


class TestHostCacheClones:
    def test_repeat_clone_served_from_cache(self):
        bed = build_testbed(
            seed=5,
            n_plants=1,
            provisioning=ProvisioningConfig(host_cache_mb=512.0),
        )
        plant = bed.plants[0]
        drive(bed.env, plant.create(experiment_request(32), "vm-1"))
        nfs_after_first = bed.nfs.mb_served
        first, = bed.clone_records()
        assert first.copy_source == "nfs"

        drive(bed.env, plant.create(experiment_request(32), "vm-2"))
        _, second = bed.clone_records()
        assert second.copy_source == "host-cache"
        assert bed.nfs.mb_served == nfs_after_first  # no new NFS bytes
        assert second.copy_time < first.copy_time / 2
        assert bed.hosts[0].state_cache.hits == 1

    def test_disabled_cache_always_pays_nfs(self):
        bed = build_testbed(seed=5, n_plants=1)
        plant = bed.plants[0]
        drive(bed.env, plant.create(experiment_request(32), "vm-1"))
        drive(bed.env, plant.create(experiment_request(32), "vm-2"))
        assert [r.copy_source for r in bed.clone_records()] == [
            "nfs",
            "nfs",
        ]
        assert bed.hosts[0].state_cache is None


class TestTransferCoalescing:
    def _race_two_clones(self, provisioning):
        bed = build_testbed(
            seed=5, n_plants=1, provisioning=provisioning
        )
        plant = bed.plants[0]

        def both():
            procs = [
                bed.env.process(
                    plant.create(experiment_request(32), f"vm-{i}")
                )
                for i in range(2)
            ]
            yield bed.env.all_of(procs)

        drive(bed.env, both())
        return bed

    def test_concurrent_same_image_shares_one_transfer(self):
        bed = self._race_two_clones(
            ProvisioningConfig(coalesce_transfers=True)
        )
        sources = sorted(r.copy_source for r in bed.clone_records())
        assert sources == ["coalesced", "nfs"]
        assert bed.nfs.coalescer.requests_coalesced == 1
        assert bed.nfs.coalescer.mb_saved > 0
        assert bed.nfs.coalescer.inflight == 0  # all settled

    def test_coalescing_halves_nfs_traffic(self):
        coalesced = self._race_two_clones(
            ProvisioningConfig(coalesce_transfers=True)
        )
        baseline = self._race_two_clones(ProvisioningConfig())
        assert baseline.nfs.coalescer.requests_coalesced == 0
        assert (
            coalesced.nfs.mb_served
            == pytest.approx(baseline.nfs.mb_served / 2)
        )

    def test_follower_not_slower_than_contending_baseline(self):
        coalesced = self._race_two_clones(
            ProvisioningConfig(coalesce_transfers=True)
        )
        baseline = self._race_two_clones(ProvisioningConfig())
        slowest = lambda bed: max(
            r.copy_time for r in bed.clone_records()
        )
        assert slowest(coalesced) <= slowest(baseline) + 1e-9


class TestAdaptivePools:
    def _bed(self, **overrides):
        params = dict(
            host_cache_mb=512.0,
            coalesce_transfers=True,
            speculative_pools=True,
            pool_lead_time_s=120.0,
        )
        params.update(overrides)
        return build_testbed(
            seed=5, n_plants=1, provisioning=ProvisioningConfig(**params)
        )

    def test_miss_then_refill_then_hit(self):
        bed = self._bed()
        manager = bed.pools[0]
        drive(bed.env, bed.shop.create(experiment_request(32)))
        assert manager.misses == 1 and manager.hits == 0
        assert manager.refills_started == 1
        bed.env.run()  # let the background refill finish
        assert manager.pooled_vms >= 1

        ad = drive(bed.env, bed.shop.create(experiment_request(32)))
        assert manager.hits == 1
        assert ad["speculative"] is True
        assert str(ad["vmid"]).startswith("vmshop-vm-")

    def test_hit_adopts_shop_vmid(self):
        bed = self._bed()
        plant = bed.plants[0]
        drive(bed.env, bed.shop.create(experiment_request(32)))
        bed.env.run()
        ad = drive(bed.env, bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])
        vm = plant.infosys.get(vmid)
        assert vm.vmid == vmid
        assert vm.classad["vmid"] == vmid
        assert vm.classad["client"] == "invigo"
        # The adopted VM is fully routable: query and destroy work.
        status = drive(bed.env, bed.shop.query(vmid))
        assert status["status"] == "running"
        drive(bed.env, bed.shop.destroy(vmid))
        assert plant.network_pool.free_count >= 0

    def test_pool_hit_latency_beats_cold_create(self):
        bed = self._bed()
        start = bed.env.now
        drive(bed.env, bed.shop.create(experiment_request(32)))
        cold = bed.env.now - start
        bed.env.run()
        start = bed.env.now
        drive(bed.env, bed.shop.create(experiment_request(32)))
        warm = bed.env.now - start
        assert warm < cold / 2

    def test_bid_discount_when_pool_warm(self):
        bed = self._bed()
        plant = bed.plants[0]
        request = experiment_request(32)
        cold_bid = plant.estimate(request)
        drive(bed.env, bed.shop.create(request))
        bed.env.run()
        warm_request = experiment_request(32)
        warm_bid = plant.estimate(warm_request)
        undiscounted = plant.cost_model.estimate(plant, warm_request)
        assert warm_bid == pytest.approx(
            undiscounted * plant.speculative.bid_discount
        )
        assert warm_bid < cold_bid

    def test_available_answers_by_hardware_value(self):
        bed = self._bed()
        manager = bed.pools[0]
        request = experiment_request(32)
        drive(bed.env, bed.shop.create(request))
        bed.env.run()
        twin = dataclasses.replace(
            request, hardware=dataclasses.replace(request.hardware)
        )
        assert twin.hardware == request.hardware
        assert twin.hardware is not request.hardware
        assert manager.available(request) and manager.available(twin)
        bigger = dataclasses.replace(
            request,
            hardware=dataclasses.replace(request.hardware, memory_mb=64),
        )
        assert not manager.available(bigger)

    def test_desired_target_tracks_arrival_rate(self):
        bed = self._bed(pool_max_target=4, pool_target_hit_rate=1.0)
        manager = bed.pools[0]
        key = ("dom", "os", None, "vmware")
        # One arrival: keep a single warm clone around.
        manager._observe(key)
        assert manager._desired_target(key) == 1
        # 1 arrival/s over the 120 s lead time: clamp to max_target.
        from collections import deque

        manager._arrivals[key] = deque(
            [0.0, 1.0, 2.0, 3.0], maxlen=manager.window
        )
        assert manager._desired_target(key) == 4
        # One arrival per 600 s: a single clone still suffices.
        manager._arrivals[key] = deque(
            [0.0, 600.0], maxlen=manager.window
        )
        assert manager._desired_target(key) == 1

    def test_fill_traffic_not_counted_as_demand(self):
        bed = self._bed()
        manager = bed.pools[0]
        drive(bed.env, bed.shop.create(experiment_request(32)))
        bed.env.run()  # refill creates pooled VMs through plant.create
        assert manager.hits + manager.misses == 1
        assert len(manager._arrivals) == 1

    def test_unpoolable_request_marked_dead(self):
        bed = build_testbed(
            seed=5,
            n_plants=1,
            memory_sizes=(64,),
            provisioning=ProvisioningConfig(speculative_pools=True),
        )
        manager = bed.pools[0]
        plant = bed.plants[0]
        # 32 MB has no golden image: the create fails downstream, and
        # the manager remembers the key is unpoolable (no pool built).
        from repro.core.errors import PlantError

        with pytest.raises(PlantError):
            drive(
                bed.env, plant.create(experiment_request(32), "vm-x")
            )
        assert len(manager._dead) == 1
        assert manager.pool_count == 0
        assert manager.misses == 1

    def test_drain_empties_all_pools(self):
        bed = self._bed()
        plant = bed.plants[0]
        drive(bed.env, bed.shop.create(experiment_request(32)))
        bed.env.run()
        pooled = bed.pools[0].pooled_vms
        assert pooled > 0
        drained = drive(bed.env, bed.pools[0].drain())
        assert drained == pooled
        assert bed.pools[0].pooled_vms == 0
        # Only the client's own VM remains.
        assert plant.active_vm_count() == 1

    def test_shutdown_is_final_for_late_requests(self):
        """A request served after shutdown (a spill arriving once the
        site's own arrivals have drained) must not re-arm a refill
        whose idle clones nobody will ever collect."""
        bed = self._bed()
        manager = bed.pools[0]
        plant = bed.plants[0]
        drive(bed.env, bed.shop.create(experiment_request(32)))
        bed.env.run()
        assert manager.pooled_vms > 0
        refills = manager.refills_started
        drive(bed.env, manager.shutdown())
        assert manager.pooled_vms == 0 and not manager._refilling
        # The late request is still answered: a pool miss, then an
        # ordinary create.
        misses = manager.misses
        ad = drive(bed.env, bed.shop.create(experiment_request(32)))
        bed.env.run()
        assert ad["status"] == "running" and "speculative" not in ad
        assert manager.misses == misses + 1
        assert manager.refills_started == refills
        assert manager.pooled_vms == 0 and not manager._refilling
        assert plant.active_vm_count() == 2  # the two clients' VMs
        # A second shutdown finds nothing to do.
        assert drive(bed.env, manager.shutdown()) == 0

    def test_hit_rate(self):
        bed = self._bed()
        manager = bed.pools[0]
        assert manager.hit_rate == 0.0
        drive(bed.env, bed.shop.create(experiment_request(32)))
        bed.env.run()
        drive(bed.env, bed.shop.create(experiment_request(32)))
        assert manager.hit_rate == pytest.approx(0.5)


class TestDisabledLayerIsInvisible:
    def test_golden_trace_fingerprint_with_explicit_defaults(self):
        """An explicitly default-configured site reproduces the seed
        golden trajectory bit-identically (same workload and hash as
        tests/test_determinism.py)."""
        from tests.test_determinism import TestGoldenTrajectories

        bed = build_testbed(
            seed=11, n_plants=2, provisioning=ProvisioningConfig()
        )
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

    def test_testbed_defaults_carry_no_machinery(self):
        bed = build_testbed(seed=11, n_plants=2)
        assert not bed.provisioning.enabled
        assert bed.pools == []
        assert all(h.state_cache is None for h in bed.hosts)
        assert all(p.speculative is None for p in bed.plants)
        for line_list in bed.lines.values():
            assert all(not l.coalesce_transfers for l in line_list)
