"""Testbed construction and cross-module integration scenarios."""

import pytest

from repro.core.errors import ShopError
from repro.cost.models import NetworkComputeCost
from repro.plant.production import CloneMode
from repro.sim.cluster import build_testbed
from repro.workloads.requests import experiment_request


class TestBuildTestbed:
    def test_default_reproduces_paper_setup(self):
        bed = build_testbed(seed=1)
        assert len(bed.plants) == 8
        assert len(bed.hosts) == 8
        assert bed.hosts[0].memory_mb == 1536.0
        assert len(bed.warehouse) == 3  # 32/64/256 MB golden machines
        assert len(bed.shop.bidders) == 8

    def test_plants_published_in_registry(self):
        bed = build_testbed(seed=1, n_plants=2)
        assert "plant0" in bed.registry
        assert "vmshop" in bed.registry
        assert bed.registry.bind("plant1") is bed.plants[1]

    def test_vnet_servers_registered(self):
        bed = build_testbed(seed=1, n_plants=2)
        assert bed.vnet.server_for("plant0") is not None

    def test_uml_testbed(self):
        bed = build_testbed(seed=1, vm_types=("uml",))
        assert all(img.vm_type == "uml" for img in bed.warehouse.images())
        assert "uml" in bed.lines

    def test_dual_technology_testbed(self):
        bed = build_testbed(seed=1, vm_types=("vmware", "uml"))
        assert len(bed.warehouse) == 6
        ad = bed.run(bed.shop.create(experiment_request(32, vm_type="uml")))
        assert ad["vm_type"] == "uml"

    def test_unknown_vm_type_rejected(self):
        # Was: every plant got a UML line under the key "xen".
        with pytest.raises(ValueError, match="'vmware' or 'uml'"):
            build_testbed(seed=1, vm_types=("xen",))

    def test_bad_plant_count_rejected(self):
        with pytest.raises(ValueError):
            build_testbed(n_plants=0)

    def test_clone_records_sorted_by_start(self):
        bed = build_testbed(seed=1, n_plants=2)
        for _ in range(4):
            bed.run(bed.shop.create(experiment_request(32)))
        records = bed.clone_records()
        starts = [r.started_at for r in records]
        assert starts == sorted(starts)
        assert len(records) == 4


class TestIntegration:
    def test_sequential_stream_balances_across_plants(self):
        bed = build_testbed(seed=4, n_plants=4)
        for _ in range(8):
            bed.run(bed.shop.create(experiment_request(32)))
        counts = sorted(p.active_vm_count() for p in bed.plants)
        assert counts == [2, 2, 2, 2]

    def test_mixed_memory_sizes_share_site(self):
        bed = build_testbed(seed=4, n_plants=2)
        for mem in (32, 64, 256, 32):
            ad = bed.run(bed.shop.create(experiment_request(mem)))
            assert ad["memory_mb"] == mem

    def test_full_lifecycle_frees_all_resources(self):
        bed = build_testbed(seed=4, n_plants=2)
        vmids = []
        for _ in range(4):
            ad = bed.run(bed.shop.create(experiment_request(32)))
            vmids.append(str(ad["vmid"]))
        for vmid in vmids:
            bed.run(bed.shop.destroy(vmid))
        assert all(p.active_vm_count() == 0 for p in bed.plants)
        assert all(h.committed_guest_mb == 0 for h in bed.hosts)
        assert bed.shop.active_vmids() == []

    def test_shop_restart_recovery_end_to_end(self):
        bed = build_testbed(seed=4, n_plants=2)
        ad = bed.run(bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])
        # "Restart" the shop: fresh instance, same plants discovered
        # through the registry; no VM state was lost because plants
        # hold it.
        from repro.shop.vmshop import VMShop

        shop2 = VMShop(bed.env, "vmshop2", registry=bed.registry)
        shop2.discover_plants()
        assert shop2.recover() == 1
        queried = bed.run(shop2.query(vmid))
        assert queried["vmid"] == vmid
        bed.run(shop2.destroy(vmid))

    def test_commit_publish_then_deeper_match_via_shop(self):
        bed = build_testbed(seed=4, n_plants=2)
        request = experiment_request(32)
        ad = bed.run(bed.shop.create(request))
        bed.run(
            bed.shop.destroy(
                str(ad["vmid"]), commit=True, publish_as="warmed"
            )
        )
        ad2 = bed.run(bed.shop.create(request))
        # The shop may land on either plant; if it lands on the one
        # with the published image, the match is deeper.
        assert ad2["image_id"] in ("warmed", "vmware-mandrake81-32mb")
        assert "warmed" in bed.warehouse

    def test_cost_model_override_changes_placement(self):
        bed = build_testbed(
            seed=4,
            n_plants=2,
            cost_model=NetworkComputeCost(50.0, 4.0),
        )
        plants_used = set()
        for _ in range(6):
            ad = bed.run(bed.shop.create(experiment_request(32)))
            plants_used.add(str(ad["plant"]))
        # Sticky behaviour: all six stay on the first plant.
        assert len(plants_used) == 1

    def test_copy_mode_respects_request_path(self):
        bed = build_testbed(seed=4, n_plants=1)
        ad = bed.run(
            bed.shop.create(experiment_request(32), CloneMode.COPY)
        )
        assert ad["clone_mode"] == "copy"
        assert ad["clone_time"] > 100  # full 2 GB disk copy

    def test_no_bidder_for_oversized_request(self):
        bed = build_testbed(seed=4, n_plants=2)
        with pytest.raises(ShopError):
            bed.run(bed.shop.create(experiment_request(2048)))

    def test_monitor_updates_visible_through_shop(self):
        bed = build_testbed(seed=4, n_plants=1)
        plant = bed.plants[0]
        plant.monitor.start()
        ad = bed.run(bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])

        def wait_then_query():
            yield bed.env.timeout(120.0)
            result = yield from bed.shop.query(vmid)
            return result

        queried = bed.run(wait_then_query())
        assert queried["uptime"] > 0
        assert queried["actions_completed"] == 3


class TestTestbedConveniences:
    def test_attach_tracer(self):
        bed = build_testbed(seed=81, n_plants=1)
        tracer = bed.attach_tracer()
        bed.run(bed.shop.create(experiment_request(32)))
        assert len(tracer) > 0
        assert "shop" in tracer.categories()

    def test_query_cache_invalidated_by_migration(self):
        from repro.plant.migration import MigrationManager

        bed = build_testbed(seed=81, n_plants=2)
        ad = bed.run(bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])
        # Warm the cache.
        bed.run(bed.shop.query(vmid))
        src = bed.registry.bind(str(ad["plant"]))
        dst = next(p for p in bed.plants if p is not src)
        manager = MigrationManager(bed.env, link=bed.internode)
        bed.run(manager.migrate(src, dst, vmid, shop=bed.shop))
        cached = bed.run(bed.shop.query(vmid, use_cache=True))
        # Reroute dropped the stale entry: the fresh plant answers.
        assert cached["plant"] == dst.name
