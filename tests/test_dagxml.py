"""Unit tests for XML encodings of DAGs and service requests."""

import pytest

from repro.core.actions import Action, ActionScope, ErrorPolicy
from repro.core.dag import ConfigDAG
from repro.core.dagxml import (
    dag_from_xml,
    dag_to_xml,
    request_from_xml,
    request_to_xml,
)
from repro.core.errors import ProtocolError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)


def rich_dag():
    dag = ConfigDAG()
    dag.add_action(
        Action(
            "install",
            scope=ActionScope.HOST,
            command="install {pkg} v{ver}",
            params={"pkg": "vnc", "ver": 3},
            outputs=("path",),
            on_error=ErrorPolicy.RETRY,
            retries=2,
        )
    )
    dag.add_action(Action("configure", command="cfg"))
    dag.add_edge("install", "configure")
    handler = ConfigDAG().add_action(Action("cleanup", command="rm -rf tmp"))
    dag.attach_handler("configure", handler)
    return dag


class TestDagRoundtrip:
    def test_full_roundtrip_preserves_structure(self):
        dag = rich_dag()
        assert dag_from_xml(dag_to_xml(dag)) == dag

    def test_roundtrip_preserves_action_content(self):
        back = dag_from_xml(dag_to_xml(rich_dag()))
        action = back.action("install")
        assert action.scope is ActionScope.HOST
        assert action.on_error is ErrorPolicy.RETRY
        assert action.retries == 2
        assert action.outputs == ("path",)
        assert action.rendered_command() == "install vnc v3"

    def test_roundtrip_preserves_handler(self):
        back = dag_from_xml(dag_to_xml(rich_dag()))
        handler = back.handler_for("configure")
        assert handler is not None
        assert "cleanup" in handler

    def test_empty_dag_roundtrip(self):
        assert dag_from_xml(dag_to_xml(ConfigDAG())) == ConfigDAG()


class TestDagStrictness:
    def test_malformed_xml(self):
        with pytest.raises(ProtocolError):
            dag_from_xml("<dag><unclosed></dag>")

    def test_wrong_root_tag(self):
        with pytest.raises(ProtocolError):
            dag_from_xml("<graph/>")

    def test_unknown_child_rejected(self):
        with pytest.raises(ProtocolError):
            dag_from_xml("<dag><mystery/></dag>")

    def test_edge_missing_attribute(self):
        with pytest.raises(ProtocolError):
            dag_from_xml(
                '<dag><action name="a"/><edge from="a"/></dag>'
            )

    def test_cycle_in_xml_rejected(self):
        text = (
            '<dag><action name="a"/><action name="b"/>'
            '<edge from="a" to="b"/><edge from="b" to="a"/></dag>'
        )
        with pytest.raises(ProtocolError):
            dag_from_xml(text)

    def test_handler_must_contain_one_dag(self):
        text = '<dag><action name="a"/><handler for="a"/></dag>'
        with pytest.raises(ProtocolError):
            dag_from_xml(text)

    def test_bad_enum_value_rejected(self):
        text = '<dag><action name="a" scope="cloud"/></dag>'
        with pytest.raises(ProtocolError):
            dag_from_xml(text)

    @pytest.mark.parametrize(
        "attrs, enum, value",
        [
            ('scope="cloud"', ActionScope, "cloud"),
            ('on-error="panic"', ErrorPolicy, "panic"),
            ('scope="" on-error="fail"', ActionScope, ""),
        ],
    )
    def test_bad_enum_value_reads_as_the_enum_error(self, attrs, enum, value):
        # The decoder maps wire values through tables; an unknown one
        # still says what ``Enum(value)`` says.
        with pytest.raises(ValueError) as expected:
            enum(value)
        with pytest.raises(ProtocolError) as raised:
            dag_from_xml(f'<dag><action name="a" {attrs}/></dag>')
        assert str(raised.value) == str(expected.value)


class TestRequestRoundtrip:
    def make_request(self):
        return CreateRequest(
            hardware=HardwareSpec(
                isa="x86", memory_mb=64, disk_gb=4.0, cpus=2
            ),
            software=SoftwareSpec(os="rh8", dag=rich_dag()),
            network=NetworkSpec(
                domain="cs.example.edu",
                proxy_host="proxy.cs.example.edu",
                proxy_port=4000,
                credentials="x509:abc",
            ),
            client_id="alice",
            vm_type="vmware",
        )

    def test_roundtrip(self):
        request = self.make_request()
        back = request_from_xml(request_to_xml(request))
        assert back.hardware == request.hardware
        assert back.network == request.network
        assert back.client_id == "alice"
        assert back.vm_type == "vmware"
        assert back.software.os == "rh8"
        assert back.software.dag == request.software.dag

    def test_defaults_when_optional_parts_missing(self):
        text = (
            '<vmplant-request service="create">'
            '<hardware memory-mb="32" disk-gb="4.0"/>'
            '<software><dag/></software>'
            "</vmplant-request>"
        )
        request = request_from_xml(text)
        assert request.client_id == "anonymous"
        assert request.vm_type is None
        assert request.network.domain == "local"
        assert not request.network.wants_vnet

    def test_missing_hardware_rejected(self):
        text = (
            '<vmplant-request service="create">'
            "<software><dag/></software></vmplant-request>"
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)

    def test_missing_software_rejected(self):
        text = (
            '<vmplant-request service="create">'
            '<hardware memory-mb="32" disk-gb="4.0"/></vmplant-request>'
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)

    def test_bad_numeric_rejected(self):
        text = (
            '<vmplant-request service="create">'
            '<hardware memory-mb="lots" disk-gb="4.0"/>'
            "<software><dag/></software></vmplant-request>"
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)

    def test_wrong_service_rejected(self):
        text = request_to_xml(self.make_request()).replace(
            'service="create"', 'service="teleport"'
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)
