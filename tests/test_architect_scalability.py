"""Tests: VMArchitect, matchmaking requirements, scalability, caching."""

import pytest

from repro.core.errors import ShopError, VNetError
from repro.experiments.ablations import run_state_cache_ablation
from repro.experiments.scalability import (
    run_matching_scalability,
    run_scalability,
)
from repro.sim.cluster import build_testbed
from repro.vnet.architect import VMArchitect, router_dag
from repro.workloads.requests import experiment_request


class TestRouterDag:
    def test_structure(self):
        dag = router_dag("grid-net")
        order = dag.topological_sort()
        assert order[0] == "install-os"
        assert "start-tunnel-endpoint" in order
        action = dag.action("start-tunnel-endpoint")
        assert "grid-net" in action.rendered_command()

    def test_matches_standard_golden_image(self):
        """A router VM clones from the ordinary Mandrake image."""
        bed = build_testbed(seed=41, n_plants=2)
        architect = VMArchitect(bed.shop)
        net = bed.run(
            architect.build_network("n1", ["d1.example"])
        )
        router = net.router_for("d1.example")
        vm = bed.registry.bind(router.plant).infosys.get(router.vmid)
        assert vm.image.image_id == "vmware-mandrake81-32mb"


class TestVMArchitect:
    def make(self, n_plants=3):
        bed = build_testbed(seed=41, n_plants=n_plants)
        return bed, VMArchitect(bed.shop)

    def test_build_network_creates_one_router_per_domain(self):
        bed, architect = self.make()
        domains = ["cs.ufl.edu", "ece.nwu.edu", "hep.cern.ch"]
        net = bed.run(architect.build_network("grid", domains))
        assert net.domains() == sorted(domains)
        assert len(net.tunnels) == 3  # full mesh over 3 domains
        net.check_mesh()
        vmids = {r.vmid for r in net.routers.values()}
        assert len(vmids) == 3
        for router in net.routers.values():
            assert router.tunnel_port  # output published by the DAG

    def test_duplicate_network_name_rejected(self):
        bed, architect = self.make()
        bed.run(architect.build_network("grid", ["d1"]))
        with pytest.raises(VNetError):
            bed.run(architect.build_network("grid", ["d2"]))

    def test_bad_domain_lists_rejected(self):
        bed, architect = self.make()
        with pytest.raises(VNetError):
            bed.run(architect.build_network("x", []))
        with pytest.raises(VNetError):
            bed.run(architect.build_network("x", ["d", "d"]))

    def test_member_routing_same_domain(self):
        bed, architect = self.make()
        net = bed.run(architect.build_network("grid", ["d1", "d2"]))
        net.attach_member("vm-a", "d1")
        net.attach_member("vm-b", "d1")
        path = net.route("vm-a", "vm-b")
        assert path == ["vm-a", net.routers["d1"].vmid, "vm-b"]

    def test_member_routing_cross_domain(self):
        bed, architect = self.make()
        net = bed.run(architect.build_network("grid", ["d1", "d2"]))
        net.attach_member("vm-a", "d1")
        net.attach_member("vm-b", "d2")
        path = net.route("vm-a", "vm-b")
        assert path == [
            "vm-a",
            net.routers["d1"].vmid,
            net.routers["d2"].vmid,
            "vm-b",
        ]

    def test_routing_unattached_member_rejected(self):
        bed, architect = self.make()
        net = bed.run(architect.build_network("grid", ["d1"]))
        net.attach_member("vm-a", "d1")
        with pytest.raises(VNetError):
            net.route("vm-a", "ghost")

    def test_attach_to_unknown_domain_rejected(self):
        bed, architect = self.make()
        net = bed.run(architect.build_network("grid", ["d1"]))
        with pytest.raises(VNetError):
            net.attach_member("vm-a", "elsewhere")

    def test_teardown_collects_routers(self):
        bed, architect = self.make()
        net = bed.run(architect.build_network("grid", ["d1", "d2"]))
        active_before = sum(p.active_vm_count() for p in bed.plants)
        assert active_before == 2
        collected = bed.run(architect.teardown_network("grid"))
        assert collected == 2
        assert sum(p.active_vm_count() for p in bed.plants) == 0
        with pytest.raises(VNetError):
            bed.run(architect.teardown_network("grid"))


class TestRequirementsMatchmaking:
    def test_requirements_filter_plants(self):
        bed = build_testbed(seed=41, n_plants=2)
        # Occupy plant0 so its active_vms differs.
        bed.run(bed.plants[0].create(experiment_request(32), "warm"))
        request = experiment_request(32)
        from dataclasses import replace

        picky = replace(request, requirements="other.active_vms == 0")
        bids = bed.run(bed.shop.estimate(picky))
        assert [b.bidder_name for b in bids] == ["plant1"]

    def test_unsatisfiable_requirements_no_bids(self):
        bed = build_testbed(seed=41, n_plants=2)
        from dataclasses import replace

        impossible = replace(
            experiment_request(32),
            requirements="other.host_memory_mb > 999999",
        )
        with pytest.raises(ShopError, match="no plant bid"):
            bed.run(bed.shop.create(impossible))

    def test_requirements_survive_xml_roundtrip(self):
        from dataclasses import replace

        from repro.core.dagxml import request_from_xml, request_to_xml

        request = replace(
            experiment_request(32),
            requirements="other.networks_free >= 1",
        )
        back = request_from_xml(request_to_xml(request))
        assert back.requirements == "other.networks_free >= 1"

    def test_description_ad_contents(self):
        bed = build_testbed(seed=41, n_plants=1)
        ad = bed.plants[0].description_ad()
        assert ad["kind"] == "vmplant"
        assert ad["host_memory_mb"] == 1536
        assert ad["networks_free"] == 4
        assert "vmware" in ad["vm_types"]


class TestScalability:
    def test_brokered_bidding_cuts_messages(self):
        result = run_scalability(
            seed=41, sizes=(4, 16), requests=4
        )
        flat4, brok4 = result.calls_per_create[4]
        flat16, brok16 = result.calls_per_create[16]
        assert flat16 > flat4  # linear growth
        assert brok16 < flat16  # brokers cut shop-side traffic
        # Flat cost is one estimate per plant + one create.
        assert flat16 == pytest.approx(17.0)

    def test_latency_not_hurt_by_brokers(self):
        result = run_scalability(seed=41, sizes=(16,), requests=4)
        flat_lat, brok_lat = result.latency[16]
        assert brok_lat < flat_lat * 1.2

    def test_render(self):
        result = run_scalability(seed=41, sizes=(4,), requests=2)
        assert "brokered" in result.render()


class TestMatchingScalability:
    def test_memo_absorbs_repeat_bids(self):
        result = run_matching_scalability(
            seed=41, sizes=(10, 50), requests=3
        )
        small = result.points[10]
        large = result.points[50]
        assert large["images"] == small["images"] + 40
        # All plants bid on each creation; identical requests share
        # the memo, so only the first select per generation pays.
        assert small["selects"] == large["selects"]
        assert small["memo_hits"] == small["selects"] - 1
        assert large["memo_hits"] == large["selects"] - 1
        # Each distinct filler profile is tested at most once.
        assert large["profiles_tested"] <= large["images"]
        assert "matching scalability" in result.render()


class TestStateCacheAblation:
    def test_cache_speeds_steady_state(self):
        result = run_state_cache_ablation(seed=41, count=6)
        assert result.steady_state_speedup > 1.15
        assert "replica" in result.render()
