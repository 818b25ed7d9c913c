"""Unit tests for the VMPlant daemon (create/query/destroy/extend)."""

import dataclasses
import inspect
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.errors import PlantError, ReproError, VNetError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.cost.models import NetworkComputeCost
from repro.plant.production import VirtualMachine
from repro.plant.vmplant import VMPlant
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.shop.protocol import (
    service_request_from_xml,
    service_request_to_xml,
)
from repro.provisioning import ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.sim.kernel import Environment
from repro.workloads.requests import experiment_request, golden_image
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
    def decoded_request():
        """What a plant is handed: the shop's decoded request, whose DAG
        is the frozen interned one."""
        _, request = service_request_from_xml(
            service_request_to_xml(
                experiment_request(32, domain="d1"), service="create"
            )
        )
        return request

    @staticmethod
    def touch(plant) -> None:
        """Move the plant's state key and put its state back as it was:
        the next bid is a memo miss that plans as the last one did."""
        plant.network_pool.attach("elsewhere", "probe")
        plant.network_pool.detach("probe")

    def fresh_bid_calls(self, bed) -> Counter:
        """Calls, by function, of a bid of ``bed``'s first plant after a
        state change (``estimate`` itself included, nothing around it)."""
        plant = bed.plants[0]
        request = self.decoded_request()
        assert plant.estimate(request) is not None  # warms the warehouse
        self.touch(plant)
        queries = bed.warehouse.match_stats["queries"]
        hits = bed.warehouse.match_stats["memo_hits"]
        counts = python_call_counts(partial(plant.estimate, request))
        # The plan went to the warehouse and was answered from its memo.
        assert bed.warehouse.match_stats["queries"] == queries + 1
        assert bed.warehouse.match_stats["memo_hits"] == hits + 1
        return counts

    def bid_calls(self, networks_per_plant: int = 4) -> int:
        bed = build_testbed(
            seed=3, n_plants=1, networks_per_plant=networks_per_plant
        )
        return sum(self.fresh_bid_calls(bed).values())

    def test_repeat_bid_at_unchanged_state_is_one_call(self):
        # The plant's last answer, read back: no plan, select, can_host,
        # switch check or cost model, and no warehouse query.
        for cost_model in (None, NetworkComputeCost()):
            bed = build_testbed(seed=3, n_plants=1, cost_model=cost_model)
            plant = bed.plants[0]
            request = self.decoded_request()
            # The first bid seals the DAG's fingerprint, the second
            # keeps its answer.
            plant.estimate(request)
            first = plant.estimate(request)
            queries = bed.warehouse.match_stats["queries"]
            counts = python_call_counts(partial(plant.estimate, request))
            assert counts == Counter({"VMPlant.estimate": 1})
            assert bed.warehouse.match_stats["queries"] == queries
            assert plant.estimate(request) == first

    def test_memo_hit_bid_is_constant_work(self):
        # A bid after a state change whose plan the warehouse answers
        # from its match memo.  6 at the time of writing: estimate,
        # plan, can_host, the warehouse select, the switch check and
        # the cost model.  With the lambda around it this pin read 7
        # (budget 8) while every bid took this path; 8 while the bid
        # built a production order to plan from; 15 while the model
        # read the plant through six accessors and decided admission
        # itself; 33 when the bid re-counted the free switches, tested
        # can_host twice and rebuilt the memo key through
        # validate/fingerprint/__hash__.
        few = self.bid_calls(4)
        many = self.bid_calls(64)
        assert few == many <= 7

    def test_network_compute_bid_asks_the_pool_once(self):
        # The Section 3.4 model adds one call to the memory model's:
        # whether the domain needs a fresh switch, which the network
        # pool keeps.  The VM count is read, not called for.
        bed = build_testbed(
            seed=3, n_plants=1, cost_model=NetworkComputeCost()
        )
        counts = self.fresh_bid_calls(bed)
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
        counts = self.fresh_bid_calls(bed)
        # The probe found the clone (the bid is discounted), and the
        # key, the fill-request test and the pool size cost no call.
        assert counts["AdaptiveSpeculativePool.available"] == 1
        assert sum(counts.values()) == self.bid_calls() + 1
        # The discount stays outside the memo: a repeat bid still
        # probes the pool, and nothing else.
        plant, request = bed.plants[0], self.decoded_request()
        counts = python_call_counts(partial(plant.estimate, request))
        assert counts == Counter(
            {"VMPlant.estimate": 1, "AdaptiveSpeculativePool.available": 1}
        )

    def test_bid_cost_does_not_depend_on_pool_occupancy(self):
        bed = build_testbed(seed=3, n_plants=1, networks_per_plant=8)
        plant = bed.plants[0]
        request = experiment_request(32, domain="d0")
        plant.estimate(request)
        self.touch(plant)
        empty = python_calls(partial(plant.estimate, request))
        for i in range(7):
            plant.network_pool.attach(f"d{i}", f"vm{i}")
        # Each attach moved the key: this bid is planned afresh too.
        assert python_calls(partial(plant.estimate, request)) == empty

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


# ---------------------------------------------------------------------------
# The bid memo: every answer it gives is the answer a fresh bid gives.
# ---------------------------------------------------------------------------

#: The fields of a request that a bid may read, each with its choices.
#: 1024 MB has no golden image until one is published; ``xen`` is no
#: line of the plant; the third DAG is never frozen, so never keyed.
_SHAPE_FIELDS = {
    "memory_mb": (32, 256, 1024),
    "domain": ("d0", "d1", "d2"),
    "vm_type": ("vmware", None, "uml", "xen"),
    "dag": ("sealed", "extended", "unfrozen"),
    "requirements": (None, "other.active_vms < 2"),
}


_BASE_ACTIONS = [
    experiment_request(32).dag.action(name)
    for name in experiment_request(32).dag.topological_sort()
]
_EXTENDED_DAG = ConfigDAG.from_sequence(
    _BASE_ACTIONS + [Action("install-vnc", command="rpm -i vnc.rpm")]
).freeze()
_EXTENDED_DAG.fingerprint()  # sealed: a bid may key on it


def _shape_request(shape) -> CreateRequest:
    base = experiment_request(
        shape["memory_mb"], vm_type=shape["vm_type"], domain=shape["domain"]
    )
    if shape["dag"] == "sealed":
        dag = base.dag
    elif shape["dag"] == "extended":
        dag = _EXTENDED_DAG
    else:
        dag = ConfigDAG.from_sequence(_BASE_ACTIONS)  # a new one each bid
    return dataclasses.replace(
        base,
        software=dataclasses.replace(base.software, dag=dag),
        requirements=shape["requirements"],
    )


def _memo_matches_a_fresh_bid(plant, request) -> None:
    answer = plant.estimate(request)
    plant._bid_memo = (None, None)
    assert plant.estimate(request) == answer, request


@st.composite
def _state_changes(draw):
    """One change of plant state, drawn with its argument."""
    # The changes that move one key term alone are drawn twice as often.
    kind = draw(
        st.sampled_from(
            [
                "admit", "release", "store", "remove",
                "attach", "detach", "publish", "unpublish",
            ]
            * 2
            + [
                "update", "cordon", "uncordon", "crash", "recover",
                "create", "fill", "kill",
            ]
        )
    )
    return kind, draw(st.integers(0, 5))


_bid_moves = st.one_of(
    st.none(),  # the same shape again
    st.tuples(
        st.sampled_from(sorted(_SHAPE_FIELDS)), st.integers(0, 3)
    ),
)


class TestBidMemo:
    """Every memoised bid equals the bid of the same plant with its memo
    cleared, over random interleavings of everything a bid reads:
    host admit/release, infosys store/remove/update, network
    attach/detach, warehouse publish/unpublish, cordon, crash/recover
    and speculative-pool fill/take."""

    @staticmethod
    def apply(bed, plant, change, scratch) -> None:
        kind, arg = change
        host = plant.lines["vmware"].host
        infosys, pool = plant.infosys, plant.network_pool
        n = scratch["n"] = scratch["n"] + 1
        if kind == "admit":
            # Either size leaves the plant's own accounting as it was
            # and refuses a 256 MB guest at the 2x overcommit cap.
            size = (2900.0, 3072.0)[arg % 2]
            host.admit_vm(size)
            scratch["admitted"].append(size)
        elif kind == "release" and scratch["admitted"]:
            host.release_vm(scratch["admitted"].pop())
        elif kind == "store":
            vm = VirtualMachine(
                vmid=f"fake{n}",
                image=make_image(mem=(32, 1024)[arg % 2]),
                request=make_request(),
                vm_type="vmware",
            )
            infosys.store(vm)
        elif kind in ("remove", "update", "kill"):
            vmids = sorted(infosys.vms)
            if vmids:
                vmid = vmids[arg % len(vmids)]
                if kind == "remove":
                    infosys.remove(vmid)
                elif kind == "update":
                    infosys.update(vmid, {"load": n})
                else:
                    plant.kill_vm(vmid)
        elif kind == "attach":
            try:
                pool.attach(f"d{arg % 3}", f"net{n}")
            except VNetError:
                pass
        elif kind == "detach":
            attached = sorted(pool._vm_network)
            if attached:
                pool.detach(attached[arg % len(attached)])
        elif kind == "publish":
            bed.warehouse.publish(
                golden_image(
                    (32, 256, 1024)[arg % 3],
                    vm_type=("vmware", "uml")[arg // 3],
                    image_id=f"extra{n}",
                )
            )
        elif kind == "unpublish":
            # Every image of one size: its requests find none left.
            for image in bed.warehouse.images():
                if image.hardware.memory_mb == (32, 256, 1024)[arg % 3]:
                    bed.warehouse.unpublish(image.image_id)
        elif kind == "cordon":
            plant.cordon()
        elif kind == "uncordon":
            plant.uncordon()
        elif kind == "crash":
            plant.fail()
        elif kind == "recover":
            plant.recover()
        elif kind == "create":
            # Takes a pooled clone when one fits, else produces one.
            request = experiment_request(
                (32, 256)[arg % 2], domain=f"d{arg % 3}"
            )
            try:
                drive(bed.env, plant.create(request, f"vm{n}"))
            except ReproError:
                pass
        elif kind == "fill":
            bed.env.run(until=bed.env.now + 300.0)  # refills land

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _state_changes(), st.lists(_bid_moves, max_size=6)
            ),
            max_size=25,
        )
    )
    def test_every_bid_equals_a_fresh_bid(self, steps):
        bed = build_testbed(
            seed=3,
            n_plants=1,
            vm_types=("vmware", "uml"),
            networks_per_plant=1,
            max_vms_per_plant=4,
            provisioning=ProvisioningConfig(
                speculative_pools=True, pool_lead_time_s=120.0
            ),
        )
        plant = bed.plants[0]
        shape = {field: choices[0] for field, choices in _SHAPE_FIELDS.items()}
        scratch = {"n": 0, "admitted": []}
        for change, moves in steps:
            # The shape bid last is bid again right after the change: a
            # memo hit unless the change moved the key.
            self.apply(bed, plant, change, scratch)
            _memo_matches_a_fresh_bid(plant, _shape_request(shape))
            for move in moves:
                if move is not None:
                    field, index = move
                    choices = _SHAPE_FIELDS[field]
                    shape[field] = choices[index % len(choices)]
                _memo_matches_a_fresh_bid(plant, _shape_request(shape))


class TestBidMemoOverWholeRuns:
    """Whole runs in which every bid that did not plan is re-checked
    against a fresh bid of the same plant."""

    @pytest.fixture
    def checked(self, monkeypatch):
        estimate = VMPlant.estimate
        rechecked = Counter()

        def checked_estimate(plant, request):
            before = plant._bid_memo
            answer = estimate(plant, request)
            if plant._bid_memo is before and before[0] is not None:
                # Answered without storing: a memo hit (or a bid that
                # never reached the memo); either way, re-bid afresh.
                plant._bid_memo = (None, None)
                assert estimate(plant, request) == answer, (plant, request)
                plant._bid_memo = before
                rechecked["bids"] += 1
            return answer

        monkeypatch.setattr(VMPlant, "estimate", checked_estimate)
        return rechecked

    def test_paper_suite(self, checked):
        from repro.experiments.runner import run_creation_suite

        run_creation_suite(seed=2004)
        assert checked["bids"] > 0

    def test_chaos(self, checked):
        from repro.experiments.chaos import run_chaos

        run_chaos(
            seed=7, requests=12, rate=0.1,
            mtbf_sweep=(150.0,), mttr_s=50.0, n_plants=3,
        )
        assert checked["bids"] > 0

    def test_costfn_network_compute_model(self, checked):
        from repro.experiments.costfn import run_costfn

        run_costfn(seed=5, requests=16)
        assert checked["bids"] > 0

    @pytest.mark.parametrize(
        "name", ["federation", "megaload", "faults", "failover", "admission"]
    )
    def test_grid_golden_runs(self, checked, name):
        from repro.sim.shard import ShardedTestbed
        from tests.test_grid_goldens import GOLDEN, RUNS

        scenario, sites, params = RUNS[name]
        run = ShardedTestbed(
            seed=13, sites=sites, shards=1, scenario=scenario
        ).run(params=params, collect="fingerprint", deadline_s=300.0)
        # The re-checks leave the trajectory where it was.
        assert run.fingerprint() == GOLDEN[name][0]
        assert checked["bids"] > 0
