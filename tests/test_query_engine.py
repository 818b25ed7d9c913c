"""Query-engine call-site tests: memos, registry discovery, bid prefilter.

Covers the matchmaking paths layered on the compiled classad engine:
``VMPlant.description_ad()`` / ``CreateRequest.to_classad()``
memoization with invalidation on mutation, the service registry's
``discover`` over published descriptions, and the estimate-path
equality fast-reject.
"""

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

        from repro.core.dagxml import dag_to_xml

        request = make_request()
        first = service_request_to_xml(request, service="create")
        # The DAG's <dag> text is kept, whoever asks for it.
        body = dag_to_xml(request.dag)
        create_xml = service_request_to_xml(request, service="create")
        estimate_xml = service_request_to_xml(request, service="estimate")
        assert body.startswith("<dag>") and body.endswith("</dag>")
        other = dataclasses.replace(request, client_id="else")
        assert body in service_request_to_xml(other)
        assert dag_to_xml(request.dag) is body
        assert create_xml == first
        assert body in create_xml and body in estimate_xml
        assert 'service="estimate"' in estimate_xml
        assert not hasattr(request, "_xml_memo")


class TestRegistryIndex:
    """``ServiceRegistry.discover``: kind and requirements filtering."""

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
        # Republish with a different os: the old description must go.
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
        # os missing → `other.os == "linux"` is UNDEFINED → no match.
        assert registry.discover("vmplant", 'other.os == "linux"') == []


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
