"""Unit tests for the VMPlant daemon (create/query/destroy/extend)."""

import dataclasses
import inspect
from collections import Counter

import pytest

from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.errors import PlantError, VNetError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.cost.models import NetworkComputeCost
from repro.plant.vmplant import VMPlant
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.shop.protocol import (
    service_request_from_xml,
    service_request_to_xml,
)
from repro.provisioning import ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.sim.kernel import Environment
from repro.workloads.requests import experiment_request
from repro.vnet.hostonly import HostOnlyNetworkPool
from repro.vnet.vnetd import VirtualNetworkService

from tests.helpers import (
    InstantLine,
    drive,
    python_call_counts,
    python_calls,
)

OS = "testos"


def base_action():
    return Action("install-os", scope="host", command="install")


def make_image(image_id="img", mem=32):
    return GoldenImage(
        image_id=image_id, vm_type="vmware", os=OS,
        hardware=HardwareSpec(memory_mb=mem),
        performed=(base_action(),), memory_state_mb=float(mem),
    )


def make_request(extra=(), domain="d1", vnet=False, mem=32):
    dag = ConfigDAG.from_sequence([base_action(), *extra])
    network = NetworkSpec(
        domain=domain,
        proxy_host="proxy.d1" if vnet else None,
        proxy_port=4000 if vnet else None,
    )
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=mem),
        software=SoftwareSpec(os=OS, dag=dag),
        network=network,
        client_id="tester",
        vm_type="vmware",
    )


def make_plant(env, line=None, **kwargs):
    line = line or InstantLine(env)
    return VMPlant(
        env, "p0", VMWarehouse([make_image()]), {"vmware": line}, **kwargs
    )


class TestCreate:
    def test_create_returns_classad_with_network(self):
        env = Environment()
        plant = make_plant(env)
        ad = drive(env, plant.create(make_request(), "vm1"))
        assert ad["vmid"] == "vm1"
        assert ad["plant"] == "p0"
        assert ad["ip"].startswith("192.168.")
        assert ad["network_fresh"] is True
        assert plant.active_vm_count() == 1

    def test_same_domain_reuses_network(self):
        env = Environment()
        plant = make_plant(env)
        ad1 = drive(env, plant.create(make_request(), "vm1"))
        ad2 = drive(env, plant.create(make_request(), "vm2"))
        assert ad1["network_id"] == ad2["network_id"]
        assert ad2["network_fresh"] is False

    def test_different_domains_get_different_networks(self):
        env = Environment()
        plant = make_plant(env)
        ad1 = drive(env, plant.create(make_request(domain="d1"), "vm1"))
        ad2 = drive(env, plant.create(make_request(domain="d2"), "vm2"))
        assert ad1["network_id"] != ad2["network_id"]

    def test_network_exhaustion_raises(self):
        env = Environment()
        plant = make_plant(
            env, network_pool=HostOnlyNetworkPool("p0", count=1)
        )
        drive(env, plant.create(make_request(domain="d1"), "vm1"))
        with pytest.raises(VNetError):
            drive(env, plant.create(make_request(domain="d2"), "vm2"))

    def test_capacity_enforced(self):
        env = Environment()
        plant = make_plant(env, max_vms=1)
        drive(env, plant.create(make_request(), "vm1"))
        with pytest.raises(PlantError, match="capacity"):
            drive(env, plant.create(make_request(), "vm2"))

    def test_failed_create_unwinds_network(self):
        env = Environment()
        line = InstantLine(env, fail_clones=1)
        plant = make_plant(env, line=line)
        with pytest.raises(PlantError):
            drive(env, plant.create(make_request(), "vm1"))
        # The VM was detached (the sticky policy keeps the domain's
        # switch assigned) and the vmid is reusable.
        assert plant.network_pool.network_of("d1").attached == set()
        ad = drive(env, plant.create(make_request(), "vm1"))
        assert ad["vmid"] == "vm1"

    def test_vnet_bridge_setup_on_request(self):
        env = Environment()
        vnet = VirtualNetworkService()
        line = InstantLine(env)
        plant = VMPlant(
            env, "p0", VMWarehouse([make_image()]), {"vmware": line},
            vnet_service=vnet,
        )
        drive(env, plant.create(make_request(vnet=True), "vm1"))
        bridges = vnet.bridges("p0")
        assert len(bridges) == 1
        assert bridges[0].proxy.host == "proxy.d1"

    def test_no_bridge_without_proxy(self):
        env = Environment()
        vnet = VirtualNetworkService()
        plant = VMPlant(
            env, "p0", VMWarehouse([make_image()]),
            {"vmware": InstantLine(env)}, vnet_service=vnet,
        )
        drive(env, plant.create(make_request(vnet=False), "vm1"))
        assert vnet.bridges("p0") == []


class TestQueryDestroy:
    def test_query_returns_copy(self):
        env = Environment()
        plant = make_plant(env)
        drive(env, plant.create(make_request(), "vm1"))
        ad = plant.query("vm1")
        ad["tampered"] = True
        assert "tampered" not in plant.query("vm1")

    def test_query_projection(self):
        env = Environment()
        plant = make_plant(env)
        drive(env, plant.create(make_request(), "vm1"))
        ad = plant.query("vm1", attributes=("vmid", "status"))
        assert len(ad) == 2

    def test_query_unknown_vm_raises(self):
        env = Environment()
        plant = make_plant(env)
        with pytest.raises(PlantError):
            plant.query("ghost")

    def test_destroy_releases_everything(self):
        env = Environment()
        line = InstantLine(env)
        plant = make_plant(env, line=line)
        drive(env, plant.create(make_request(), "vm1"))
        final = drive(env, plant.destroy("vm1"))
        assert final["status"] == "collected"
        assert plant.active_vm_count() == 0
        assert line.collected == ["vm1"]
        with pytest.raises(PlantError):
            plant.query("vm1")

    def test_destroy_with_refcount_pool_frees_network(self):
        env = Environment()
        plant = make_plant(
            env,
            network_pool=HostOnlyNetworkPool(
                "p0", count=1, release_policy="refcount"
            ),
        )
        drive(env, plant.create(make_request(domain="d1"), "vm1"))
        drive(env, plant.destroy("vm1"))
        # Network freed: another domain can use it now.
        drive(env, plant.create(make_request(domain="d2"), "vm2"))

    def test_destroy_commit_publishes_derived_image(self):
        env = Environment()
        plant = make_plant(env)
        extra = Action("install-app", command="install app")
        drive(env, plant.create(make_request(extra=(extra,)), "vm1"))
        drive(
            env,
            plant.destroy("vm1", commit=True, publish_as="app-image"),
        )
        published = plant.warehouse.get("app-image")
        assert published.performed_names == ("install-os", "install-app")

    def test_committed_image_matches_deeper_requests(self):
        env = Environment()
        plant = make_plant(env)
        extra = Action("install-app", command="install app")
        drive(env, plant.create(make_request(extra=(extra,)), "vm1"))
        drive(env, plant.destroy("vm1", commit=True, publish_as="deep"))
        ad = drive(env, plant.create(make_request(extra=(extra,)), "vm2"))
        assert ad["image_id"] == "deep"
        assert ad["actions_executed"] == 0


class TestExtend:
    def test_extend_runs_residual_only(self):
        env = Environment()
        line = InstantLine(env)
        plant = make_plant(env, line=line)
        drive(env, plant.create(make_request(), "vm1"))
        bigger = ConfigDAG.from_sequence(
            [base_action(), Action("new-app")]
        )
        ad = drive(env, plant.extend("vm1", bigger))
        assert line.executed == ["new-app"]
        assert "extend_time" in ad

    def test_extend_conflicting_dag_rejected(self):
        env = Environment()
        plant = make_plant(env)
        drive(env, plant.create(make_request(), "vm1"))
        conflicting = ConfigDAG.from_sequence(
            [Action("install-os", scope="host", command="DIFFERENT")]
        )
        with pytest.raises(PlantError, match="conflicts"):
            drive(env, plant.extend("vm1", conflicting))

    def test_extend_missing_prefix_rejected(self):
        env = Environment()
        plant = make_plant(env)
        drive(env, plant.create(make_request(), "vm1"))
        # DAG that does not include what the VM already has.
        other = ConfigDAG.from_sequence([Action("unrelated")])
        with pytest.raises(PlantError):
            drive(env, plant.extend("vm1", other))


class TestEstimate:
    def test_estimate_returns_cost(self):
        env = Environment()
        plant = make_plant(env)
        assert plant.estimate(make_request()) is not None

    def test_estimate_unknown_vm_type_declines(self):
        env = Environment()
        plant = make_plant(env)
        request = CreateRequest(
            hardware=HardwareSpec(memory_mb=32),
            software=SoftwareSpec(
                os=OS, dag=ConfigDAG.from_sequence([base_action()])
            ),
            vm_type="xen",
        )
        assert plant.estimate(request) is None

    def test_no_line_can_host_declines_without_raising(self):
        class FullLine(InstantLine):
            def can_host(self, request):
                return False

        env = Environment()
        plant = make_plant(env, line=FullLine(env))
        assert plant.estimate(make_request()) is None
        # Untyped requests walk every line and decline the same way.
        untyped = CreateRequest(
            hardware=HardwareSpec(memory_mb=32),
            software=SoftwareSpec(
                os=OS, dag=ConfigDAG.from_sequence([base_action()])
            ),
        )
        assert plant.estimate(untyped) is None

    def test_healthy_estimate_proc_is_the_bid_itself(self):
        env = Environment()
        plant = make_plant(env)
        answer = plant.estimate_proc(make_request())
        assert isinstance(answer, float)
        assert answer == plant.estimate(make_request())

    def test_down_estimate_proc_answers_at_recovery(self):
        env = Environment()
        plant = make_plant(env)
        healthy = plant.estimate(make_request())
        plant.fail()
        answer = plant.estimate_proc(make_request())
        assert inspect.isgenerator(answer)
        env.call_later(7.0, lambda _ev: plant.recover())
        assert drive(env, answer) == healthy
        assert env.now == 7.0


class TestCallBudgets:
    """A bid is the per-request unit of control-plane work (plants x
    rounds of them per create), so its cost is pinned as a count."""

    @staticmethod
    def memo_hit_bid_calls(bed) -> Counter:
        """Calls, by function, of a memo-hit bid of ``bed``'s first plant."""
        plant = bed.plants[0]
        # What a plant is handed: the shop's decoded request, whose DAG
        # is the frozen interned one.
        _, request = service_request_from_xml(
            service_request_to_xml(
                experiment_request(32, domain="d1"), service="create"
            )
        )
        queries = bed.warehouse.match_stats["queries"]
        assert plant.estimate(request) is not None  # fills the memo
        hits = bed.warehouse.match_stats["memo_hits"]
        counts = python_call_counts(lambda: plant.estimate(request))
        assert bed.warehouse.match_stats["memo_hits"] == hits + 1
        assert bed.warehouse.match_stats["queries"] == queries + 2
        return counts

    def bid_calls(self, networks_per_plant: int = 4, **kwargs) -> int:
        bed = build_testbed(
            seed=3, n_plants=1, networks_per_plant=networks_per_plant,
            **kwargs,
        )
        return sum(self.memo_hit_bid_calls(bed).values())

    def test_memo_hit_bid_is_constant_work(self):
        # 7 at the time of writing (the lambda included): estimate,
        # plan, can_host, the warehouse select, the switch check and the
        # cost model.  8 while the bid built a production order to plan
        # from; 15 while the model read the
        # plant through six accessors and decided admission itself; 33
        # when the bid re-counted the free switches, tested can_host
        # twice and rebuilt the memo key through validate/fingerprint/
        # __hash__.
        few = self.bid_calls(4)
        many = self.bid_calls(64)
        assert few == many <= 8

    def test_network_compute_bid_asks_the_pool_once(self):
        # The Section 3.4 model adds one call to the memory model's:
        # whether the domain needs a fresh switch, which the network
        # pool keeps.  The VM count is read, not called for.
        bed = build_testbed(
            seed=3, n_plants=1, cost_model=NetworkComputeCost()
        )
        counts = self.memo_hit_bid_calls(bed)
        assert counts["NetworkComputeCost.estimate"] == 1
        assert counts["HostOnlyNetworkPool.would_be_fresh"] == 1
        assert sum(counts.values()) == self.bid_calls() + 1

    def test_pooled_plant_bid_probes_the_pool_in_one_call(self):
        bed = build_testbed(
            seed=3,
            n_plants=1,
            provisioning=ProvisioningConfig(
                speculative_pools=True, pool_lead_time_s=120.0
            ),
        )
        drive(bed.env, bed.shop.create(experiment_request(32, domain="d1")))
        bed.env.run()  # the refill leaves an idle clone
        assert bed.pools[0].available(experiment_request(32, domain="d1"))
        counts = self.memo_hit_bid_calls(bed)
        # The probe found the clone (the bid is discounted), and the
        # key, the fill-request test and the pool size cost no call.
        assert counts["AdaptiveSpeculativePool.available"] == 1
        assert sum(counts.values()) == self.bid_calls() + 1

    def test_bid_cost_does_not_depend_on_pool_occupancy(self):
        bed = build_testbed(seed=3, n_plants=1, networks_per_plant=8)
        plant = bed.plants[0]
        request = experiment_request(32, domain="d0")
        plant.estimate(request)
        empty = python_calls(lambda: plant.estimate(request))
        for i in range(7):
            plant.network_pool.attach(f"d{i}", f"vm{i}")
        assert python_calls(lambda: plant.estimate(request)) == empty

    def test_requirements_bid_reads_the_interned_expression(self):
        # The request's memoized ad already holds the interned
        # expression: a bid neither looks the text up again nor asks
        # for its equality constraints through a call.
        bed = build_testbed(seed=3, n_plants=1)
        plant = bed.plants[0]
        _, request = service_request_from_xml(
            service_request_to_xml(
                dataclasses.replace(
                    experiment_request(32, domain="d1"),
                    requirements='other.kind == "vmplant"'
                    " && other.networks_free >= 1",
                ),
                service="create",
            )
        )
        assert plant.estimate(request) is not None
        counts = python_call_counts(lambda: plant.estimate(request))
        assert counts["Expression.__new__"] == 0
        assert counts["ClassAd.matches"] == 1
        # One bid that fails the equality conjunct never reaches it.
        declined = dataclasses.replace(
            request, requirements='other.kind == "broker"'
        )
        assert plant.estimate(declined) is None
        counts = python_call_counts(lambda: plant.estimate(declined))
        assert counts["Expression.__new__"] == 0
        assert counts["ClassAd.matches"] == 0
