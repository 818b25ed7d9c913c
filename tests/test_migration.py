"""Tests for cross-plant VM migration (Section 6 future work)."""

import pytest

from repro.core.errors import PlantError, VNetError
from repro.plant.migration import MigrationManager
from repro.plant.production import VMStatus
from repro.sim.cluster import build_testbed
from repro.vnet.hostonly import HostOnlyNetworkPool
from repro.workloads.requests import experiment_request

from tests.helpers import drive


def make_site(**kwargs):
    bed = build_testbed(seed=21, n_plants=2, **kwargs)
    manager = MigrationManager(bed.env, link=bed.internode)
    return bed, manager


def create_on(bed, plant, vmid="mig-vm", mem=32):
    request = experiment_request(mem)
    return bed.run(plant.create(request, vmid))


class TestMigrateSim:
    def test_vm_moves_between_plants(self):
        bed, manager = make_site()
        src, dst = bed.plants
        create_on(bed, src)
        ad = bed.run(manager.migrate(src, dst, "mig-vm"))
        assert ad["plant"] == "plant1"
        assert ad["migrated_from"] == "plant0"
        assert src.active_vm_count() == 0
        assert dst.active_vm_count() == 1
        assert dst.infosys.get("mig-vm").status is VMStatus.RUNNING

    def test_host_memory_accounting_moves(self):
        bed, manager = make_site()
        src, dst = bed.plants
        create_on(bed, src, mem=64)
        assert bed.hosts[0].committed_guest_mb == 64
        bed.run(manager.migrate(src, dst, "mig-vm"))
        assert bed.hosts[0].committed_guest_mb == 0
        assert bed.hosts[1].committed_guest_mb == 64

    def test_migration_takes_time_and_is_recorded(self):
        bed, manager = make_site()
        src, dst = bed.plants
        create_on(bed, src, mem=256)
        before = bed.env.now
        bed.run(manager.migrate(src, dst, "mig-vm"))
        elapsed = bed.env.now - before
        assert elapsed > 2.0
        record = manager.records[0]
        assert record.payload_mb > 256
        assert record.total_time == pytest.approx(elapsed)
        assert (
            record.suspend_time + record.transfer_time
            + record.resume_time
        ) <= record.total_time + 1e-9

    def test_bigger_memory_migrates_slower(self):
        times = {}
        for mem in (32, 256):
            bed, manager = make_site()
            src, dst = bed.plants
            create_on(bed, src, mem=mem)
            start = bed.env.now
            bed.run(manager.migrate(src, dst, "mig-vm"))
            times[mem] = bed.env.now - start
        assert times[256] > times[32]

    def test_network_reattached_on_target(self):
        bed, manager = make_site()
        src, dst = bed.plants
        ad_before = create_on(bed, src)
        ad = bed.run(manager.migrate(src, dst, "mig-vm"))
        assert str(ad["network_id"]).startswith("plant1/")
        assert ad["network_id"] != ad_before["network_id"]
        dst.network_pool.check_isolation()

    def test_shop_rerouted(self):
        bed, manager = make_site()
        ad = bed.run(bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])
        src = bed.registry.bind(str(ad["plant"]))
        dst = next(p for p in bed.plants if p is not src)
        bed.run(manager.migrate(src, dst, vmid, shop=bed.shop))
        queried = bed.run(bed.shop.query(vmid))
        assert queried["plant"] == dst.name
        bed.run(bed.shop.destroy(vmid))
        assert dst.active_vm_count() == 0

    def test_same_plant_rejected(self):
        bed, manager = make_site()
        src = bed.plants[0]
        create_on(bed, src)
        with pytest.raises(PlantError, match="same"):
            bed.run(manager.migrate(src, src, "mig-vm"))

    def test_unknown_vm_rejected(self):
        bed, manager = make_site()
        with pytest.raises(PlantError):
            bed.run(manager.migrate(bed.plants[0], bed.plants[1], "ghost"))

    def test_target_network_shortage_aborts_cleanly(self):
        bed, manager = make_site()
        src, dst = bed.plants
        # Exhaust the target's host-only networks with other domains.
        dst.network_pool = HostOnlyNetworkPool("plant1", count=1)
        dst.network_pool.attach("other.domain", "squatter")
        create_on(bed, src)
        with pytest.raises(VNetError):
            bed.run(manager.migrate(src, dst, "mig-vm"))
        # The VM is still running, untouched, at the source.
        vm = src.infosys.get("mig-vm")
        assert vm.status is VMStatus.RUNNING
        assert bed.hosts[0].committed_guest_mb == 32

    def test_target_capacity_aborts_cleanly(self):
        bed, manager = make_site(max_vms_per_plant=1)
        src, dst = bed.plants
        create_on(bed, src, "vm-a")
        create_on(bed, dst, "vm-b")
        with pytest.raises(PlantError, match="capacity"):
            bed.run(manager.migrate(src, dst, "vm-a"))
        assert src.infosys.get("vm-a").status is VMStatus.RUNNING

    def test_migrating_vm_cannot_migrate_again_concurrently(self):
        bed, manager = make_site()
        src, dst = bed.plants
        create_on(bed, src)

        def both():
            first = bed.env.process(
                manager.migrate(src, dst, "mig-vm")
            )
            yield bed.env.timeout(0.5)  # mid-migration
            with pytest.raises(PlantError, match="migrating"):
                src.begin_migration("mig-vm")
            yield first

        bed.run(both())

    def test_concurrent_migrations_share_internode_link(self):
        bed, manager = make_site()
        src, dst = bed.plants
        create_on(bed, src, "vm-a", mem=256)
        create_on(bed, src, "vm-b", mem=256)

        def serial_time():
            b2, m2 = make_site()
            s2, d2 = b2.plants
            create_on(b2, s2, "vm-a", mem=256)
            start = b2.env.now
            b2.run(m2.migrate(s2, d2, "vm-a"))
            return b2.env.now - start

        solo = serial_time()

        def both():
            p1 = bed.env.process(manager.migrate(src, dst, "vm-a"))
            p2 = bed.env.process(manager.migrate(src, dst, "vm-b"))
            start = bed.env.now
            yield bed.env.all_of([p1, p2])
            return bed.env.now - start

        concurrent = bed.run(both())
        # Two 256 MB payloads on one link: slower than one migration,
        # faster than two back to back.
        assert concurrent > solo
        assert dst.active_vm_count() == 2


class TestMigrateLocal:
    def test_local_directory_moves(self, tmp_path):
        from repro.core.dag import ConfigDAG
        from repro.core.spec import (
            CreateRequest,
            HardwareSpec,
            NetworkSpec,
            SoftwareSpec,
        )
        from repro.local.image import LocalImageStore
        from repro.local.localline import LocalProductionLine
        from repro.plant.vmplant import VMPlant
        from repro.plant.warehouse import GoldenImage
        from repro.sim.kernel import Environment
        from repro.workloads.requests import install_os_action

        env = Environment()
        store = LocalImageStore(tmp_path / "warehouse")
        store.add(
            GoldenImage(
                image_id="img", vm_type="vmware", os="o",
                hardware=HardwareSpec(memory_mb=32),
                performed=(install_os_action("o"),),
                disk_state_mb=8, disk_files=2, memory_state_mb=32,
            )
        )
        warehouse = store.to_warehouse()
        line_a = LocalProductionLine(env, store, tmp_path / "runA")
        line_b = LocalProductionLine(env, store, tmp_path / "runB")
        plant_a = VMPlant(env, "A", warehouse, {"vmware": line_a})
        plant_b = VMPlant(env, "B", warehouse, {"vmware": line_b})
        request = CreateRequest(
            hardware=HardwareSpec(memory_mb=32),
            software=SoftwareSpec(
                os="o",
                dag=ConfigDAG.from_sequence([install_os_action("o")]),
            ),
            network=NetworkSpec(domain="d"),
            vm_type="vmware",
        )
        drive(env, plant_a.create(request, "vm1"))
        assert (tmp_path / "runA" / "vm1").exists()

        manager = MigrationManager(env)
        ad = drive(env, manager.migrate(plant_a, plant_b, "vm1"))
        assert ad["plant"] == "B"
        assert not (tmp_path / "runA" / "vm1").exists()
        target = tmp_path / "runB" / "vm1"
        assert target.exists()
        assert (target / "status").read_text() == "running\n"
        # Disk symlinks survive the move.
        assert (target / "disk" / "chunk-00.vmdk").is_symlink()
        drive(env, plant_b.destroy("vm1"))
        assert not target.exists()


class TestDrain:
    def test_drain_evacuates_and_balances(self):
        bed = build_testbed(seed=22, n_plants=3)
        manager = MigrationManager(bed.env, link=bed.internode)
        src = bed.plants[0]

        def load():
            for i in range(6):
                yield from src.create(experiment_request(32), f"vm{i}")

        bed.run(load())
        migrated = bed.run(
            manager.drain(src, bed.plants[1:], shop=None)
        )
        assert len(migrated) == 6
        assert src.active_vm_count() == 0
        counts = [p.active_vm_count() for p in bed.plants[1:]]
        assert sorted(counts) == [3, 3]  # bidding balances the drain

    def test_drain_reroutes_shop(self):
        bed = build_testbed(seed=22, n_plants=2)
        manager = MigrationManager(bed.env, link=bed.internode)
        ad = bed.run(bed.shop.create(experiment_request(32)))
        vmid = str(ad["vmid"])
        src = bed.registry.bind(str(ad["plant"]))
        target = next(p for p in bed.plants if p is not src)
        bed.run(manager.drain(src, [target], shop=bed.shop))
        queried = bed.run(bed.shop.query(vmid))
        assert queried["plant"] == target.name

    def test_drain_rejects_bad_targets(self):
        bed = build_testbed(seed=22, n_plants=2)
        manager = MigrationManager(bed.env)
        with pytest.raises(PlantError):
            bed.run(manager.drain(bed.plants[0], []))
        with pytest.raises(PlantError):
            bed.run(manager.drain(bed.plants[0], [bed.plants[0]]))

    def test_drain_fails_when_no_capacity(self):
        bed = build_testbed(seed=22, n_plants=2, max_vms_per_plant=1)
        manager = MigrationManager(bed.env, link=bed.internode)
        src, dst = bed.plants
        bed.run(src.create(experiment_request(32), "vm-a"))
        bed.run(dst.create(experiment_request(32), "vm-b"))
        with pytest.raises(PlantError, match="no target"):
            bed.run(manager.drain(src, [dst]))
