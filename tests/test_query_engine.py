"""Query-engine call-site tests: memos, registry index, bid prefilter.

Covers the matchmaking fast paths layered on the compiled classad
engine: ``VMPlant.description_ad()`` / ``CreateRequest.to_classad()``
memoization with invalidation on mutation, the service registry's
attribute-index pre-filter (equivalence against the exhaustive scan on
randomized registries), and the estimate-path equality fast-reject.
"""

import random

from repro.core.classad import ClassAd, Expression
from repro.core.dag import ConfigDAG
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.plant.vmplant import VMPlant
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.shop.protocol import service_request_to_xml
from repro.shop.registry import ServiceRegistry
from repro.sim.kernel import Environment

from tests.helpers import InstantLine, drive

OS = "testos"


def base_action():
    from repro.core.actions import Action

    return Action("install-os", scope="host", command="install")


def make_image(image_id="img", mem=32):
    return GoldenImage(
        image_id=image_id, vm_type="vmware", os=OS,
        hardware=HardwareSpec(memory_mb=mem),
        performed=(base_action(),), memory_state_mb=float(mem),
    )


def make_request(domain="d1", mem=32, requirements=None):
    dag = ConfigDAG.from_sequence([base_action()])
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=mem),
        software=SoftwareSpec(os=OS, dag=dag),
        network=NetworkSpec(domain=domain),
        client_id="tester",
        vm_type="vmware",
        requirements=requirements,
    )


def make_plant(env, name="p0"):
    return VMPlant(
        env, name, VMWarehouse([make_image()]),
        {"vmware": InstantLine(env)},
    )


class TestDescriptionAdMemo:
    def test_same_object_between_mutations(self):
        env = Environment()
        plant = make_plant(env)
        assert plant.description_ad() is plant.description_ad()

    def test_invalidates_on_vm_creation(self):
        env = Environment()
        plant = make_plant(env)
        before = plant.description_ad()
        assert before["active_vms"] == 0
        drive(env, plant.create(make_request(), "vm1"))
        after = plant.description_ad()
        assert after is not before
        assert after["active_vms"] == 1
        assert after["committed_mb"] == 32
        assert after["networks_free"] == before["networks_free"] - 1
        # The old snapshot is untouched (registry copies stay valid).
        assert before["active_vms"] == 0

    def test_invalidates_on_destroy_and_monitor_update(self):
        env = Environment()
        plant = make_plant(env)
        drive(env, plant.create(make_request(), "vm1"))
        created = plant.description_ad()
        plant.infosys.update("vm1", {"load": 0.5})
        assert plant.description_ad() is not created
        drive(env, plant.destroy("vm1"))
        assert plant.description_ad()["active_vms"] == 0


class TestRequestMemos:
    def test_to_classad_memoized(self):
        request = make_request(requirements="other.active_vms < 4")
        assert request.to_classad() is request.to_classad()
        ad = request.to_classad()
        assert ad["os"] == OS
        assert isinstance(ad.lookup("requirements"), Expression)

    def test_replace_yields_fresh_memo(self):
        import dataclasses

        request = make_request()
        first = request.to_classad()
        other = dataclasses.replace(request, client_id="else")
        assert other.to_classad() is not first
        assert other.to_classad()["client"] == "else"

    def test_xml_body_memoized_on_the_frozen_dag(self):
        import dataclasses

        request = make_request()
        first = service_request_to_xml(request, service="create")
        # A DAG its client may still extend is written on every call ...
        assert request.dag.sealed_wire is None
        request.dag.freeze()
        # ... a frozen one keeps its <dag> text, whoever asks for it.
        create_xml = service_request_to_xml(request, service="create")
        estimate_xml = service_request_to_xml(request, service="estimate")
        body = request.dag.sealed_wire
        assert body.startswith("<dag>") and body.endswith("</dag>")
        other = dataclasses.replace(request, client_id="else")
        assert body in service_request_to_xml(other)
        assert request.dag.sealed_wire is body
        assert create_xml == first
        assert body in create_xml and body in estimate_xml
        assert 'service="estimate"' in estimate_xml
        assert not hasattr(request, "_xml_memo")


def _random_description(rng, name):
    ad = ClassAd({"name": name, "kind": "vmplant"})
    if rng.random() < 0.9:
        ad["os"] = rng.choice(["linux", "bsd", "Solaris"])
    if rng.random() < 0.8:
        ad["vm_type"] = rng.choice(["vmware", "uml"])
    ad["active_vms"] = rng.randrange(0, 10)
    ad["networks_free"] = rng.randrange(0, 5)
    if rng.random() < 0.1:
        ad.set_expression("os", '"li" + "nux"')
    return ad


_QUERIES = [
    'other.os == "linux"',
    'os == "LINUX" && other.vm_type == "uml"',
    'other.vm_type == "vmware" && other.networks_free > 0',
    'other.kind == "vmplant" && other.active_vms < 5',
    'name == "svc-3"',
    'other.os == "bsd" || other.os == "linux"',  # no constraints
    "other.active_vms >= 0",
    'other.os == "plan9"',  # matches nothing
]


class TestRegistryIndex:
    def test_prefilter_equivalent_to_full_scan(self):
        rng = random.Random(42)
        for trial in range(20):
            registry = ServiceRegistry()
            for i in range(rng.randrange(3, 25)):
                name = f"svc-{i}"
                registry.publish(
                    name, "vmplant", object(),
                    description=_random_description(rng, name),
                )
            for query in _QUERIES:
                fast = registry.discover("vmplant", query)
                slow = registry.discover(
                    "vmplant", query, prefilter=False
                )
                assert [e.name for e in fast] == [
                    e.name for e in slow
                ], f"trial={trial} query={query!r}"

    def test_accepts_precompiled_expression(self):
        registry = ServiceRegistry()
        registry.publish(
            "a", "vmplant", object(),
            description=ClassAd(
                {"name": "a", "kind": "vmplant", "os": "linux"}
            ),
        )
        expr = Expression('other.os == "linux"')
        assert [e.name for e in registry.discover("vmplant", expr)] == ["a"]

    def test_index_tracks_republish_and_unpublish(self):
        registry = ServiceRegistry()
        query = 'other.os == "linux"'
        registry.publish(
            "a", "vmplant", object(),
            description=ClassAd(
                {"name": "a", "kind": "vmplant", "os": "linux"}
            ),
        )
        assert len(registry.discover("vmplant", query)) == 1
        # Republish with a different os: old bucket entry must go.
        registry.publish(
            "a", "vmplant", object(),
            description=ClassAd(
                {"name": "a", "kind": "vmplant", "os": "bsd"}
            ),
        )
        assert registry.discover("vmplant", query) == []
        assert len(registry.discover("vmplant", 'other.os == "bsd"')) == 1
        registry.unpublish("a")
        assert registry.discover("vmplant", 'other.os == "bsd"') == []
        assert len(registry) == 0

    def test_dynamic_descriptions_always_evaluated(self):
        registry = ServiceRegistry()
        ad = ClassAd({"name": "dyn", "kind": "vmplant"})
        ad.set_expression("os", '"li" + "nux"')
        registry.publish("dyn", "vmplant", object(), description=ad)
        found = registry.discover("vmplant", 'other.os == "linux"')
        assert [e.name for e in found] == ["dyn"]

    def test_missing_attribute_pruned(self):
        registry = ServiceRegistry()
        registry.publish(
            "bare", "vmplant", object(),
            description=ClassAd({"name": "bare", "kind": "vmplant"}),
        )
        # os missing → `other.os == "linux"` is UNDEFINED → no match,
        # with or without the index.
        assert registry.discover("vmplant", 'other.os == "linux"') == []
        assert (
            registry.discover(
                "vmplant", 'other.os == "linux"', prefilter=False
            )
            == []
        )


class TestEstimatePrefilter:
    def test_equality_reject_declines_bid(self):
        env = Environment()
        plant = make_plant(env)
        accept = make_request(requirements='other.kind == "vmplant"')
        reject = make_request(requirements='other.kind == "warehouse"')
        assert plant.estimate(accept) is not None
        assert plant.estimate(reject) is None

    def test_non_equality_requirements_still_evaluated(self):
        env = Environment()
        plant = make_plant(env)
        ok = make_request(requirements="other.networks_free >= 1")
        no = make_request(requirements="other.networks_free >= 99")
        assert plant.estimate(ok) is not None
        assert plant.estimate(no) is None

    def test_estimate_tracks_plant_state(self):
        env = Environment()
        plant = make_plant(env)
        picky = make_request(requirements="other.active_vms == 0")
        assert plant.estimate(picky) is not None
        drive(env, plant.create(make_request(), "vm1"))
        assert plant.estimate(picky) is None
