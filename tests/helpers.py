"""Shared test fixtures: a deterministic instant production line, the
two-pass wire codec kept as a reference, and the Python-call counter
of the call-budget tests.

``InstantLine`` implements the ProductionLine interface with constant,
configurable behaviour so PPP/plant/shop logic can be tested without
the simulated hypervisor's stochastic timing.

``oracle_*`` is the request codec as it stood before it became one
pass each way (serialise, re-parse, set ``service``, serialise again;
parse, serialise, parse again, ``root.find`` the parts, a fresh DAG per
request).  ``tests/test_wire_codec.py`` holds the live codec to its
wire bytes, decoded requests and error messages.
"""

from __future__ import annotations

import cProfile
import xml.etree.ElementTree as ET
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.core.actions import Action, ActionResult, ActionStatus
from repro.core.dagxml import _require, dag_from_element, dag_to_element
from repro.core.errors import PlantError, ProtocolError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.plant.guest import fabricate_outputs
from repro.plant.production import CloneMode, ProductionLine, VirtualMachine
from repro.sim.kernel import Environment


class InstantLine(ProductionLine):
    """Production line with fixed costs and scriptable failures."""

    vm_type = "vmware"

    def __init__(
        self,
        env: Environment,
        clone_time: float = 10.0,
        action_time: float = 2.0,
        fail_clones: int = 0,
        fail_actions: Optional[Set[str]] = None,
        fail_action_times: int = 10 ** 9,
        vm_type: str = "vmware",
    ):
        self.env = env
        self.clone_time = clone_time
        self.action_time = action_time
        self.fail_clones = fail_clones
        self.fail_actions = set(fail_actions or ())
        #: How many times a failing action fails before succeeding.
        self.fail_action_times = fail_action_times
        self.vm_type = vm_type
        self.cloned: List[str] = []
        self.collected: List[str] = []
        self.executed: List[str] = []
        self._action_failures: Dict[str, int] = {}

    def clone(
        self, vm: VirtualMachine, mode: CloneMode = CloneMode.LINK
    ) -> Generator:
        yield self.env.timeout(self.clone_time)
        if self.fail_clones > 0:
            self.fail_clones -= 1
            raise PlantError(f"injected clone failure for {vm.vmid}")
        self.cloned.append(vm.vmid)
        vm.backend = {"mode": mode}

    def execute_action(
        self,
        vm: VirtualMachine,
        action: Action,
        context: Dict[str, str],
    ) -> Generator:
        yield self.env.timeout(self.action_time)
        self.executed.append(action.name)
        if action.name in self.fail_actions:
            count = self._action_failures.get(action.name, 0) + 1
            self._action_failures[action.name] = count
            if count <= self.fail_action_times:
                return ActionResult(
                    action=action.name,
                    status=ActionStatus.FAILED,
                    message="injected action failure",
                )
        outputs = fabricate_outputs(action, context)
        return ActionResult(
            action=action.name,
            status=ActionStatus.OK,
            outputs=tuple(sorted(outputs.items())),
        )

    def collect(self, vm: VirtualMachine) -> Generator:
        yield self.env.timeout(0.0)
        self.collected.append(vm.vmid)

    def can_host(self, request: CreateRequest) -> bool:
        return True


def drive(env: Environment, generator):
    """Run one process to completion and return its value."""
    proc = env.process(generator)
    return env.run(until=proc)


def python_calls(fn) -> int:
    """Python-level calls ``fn()`` makes (``cProfile`` without builtins:
    exact and machine-independent, like the e2e benchmark's counter)."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


# ---------------------------------------------------------------------------
# Reference wire codec (two passes each way)
# ---------------------------------------------------------------------------


def oracle_request_to_xml(request: CreateRequest) -> str:
    root = ET.Element(
        "vmplant-request",
        {"service": "create", "client": request.client_id},
    )
    if request.vm_type is not None:
        root.set("vm-type", request.vm_type)
    if request.requirements is not None:
        root.set("requirements", request.requirements)
    if request.lease_s is not None:
        root.set("lease-s", repr(request.lease_s))
    hw = request.hardware
    ET.SubElement(
        root,
        "hardware",
        {
            "isa": hw.isa,
            "memory-mb": str(hw.memory_mb),
            "disk-gb": repr(hw.disk_gb),
            "cpus": str(hw.cpus),
        },
    )
    net = request.network
    net_attrs = {"domain": net.domain}
    if net.proxy_host is not None:
        net_attrs["proxy-host"] = net.proxy_host
    if net.proxy_port is not None:
        net_attrs["proxy-port"] = str(net.proxy_port)
    if net.credentials:
        net_attrs["credentials"] = net.credentials
    ET.SubElement(root, "network", net_attrs)
    sw = ET.SubElement(root, "software", {"os": request.software.os})
    sw.append(dag_to_element(request.software.dag))
    return ET.tostring(root, encoding="unicode")


def oracle_service_request_to_xml(
    request: CreateRequest, service: Optional[str] = None
) -> str:
    text = oracle_request_to_xml(request)
    if service is None or service == "create":
        return text
    root = ET.fromstring(text)
    root.set("service", service)
    return ET.tostring(root, encoding="unicode")


def oracle_request_from_xml(text: str) -> CreateRequest:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc
    if root.tag != "vmplant-request":
        raise ProtocolError(f"expected <vmplant-request>, got <{root.tag}>")
    if root.get("service") != "create":
        raise ProtocolError("only service=\"create\" requests carry a body")

    hw_el = root.find("hardware")
    if hw_el is None:
        raise ProtocolError("missing <hardware>")
    try:
        hardware = HardwareSpec(
            isa=hw_el.get("isa", "x86"),
            memory_mb=int(_require(hw_el, "memory-mb")),
            disk_gb=float(_require(hw_el, "disk-gb")),
            cpus=int(hw_el.get("cpus", "1")),
        )
    except ValueError as exc:
        raise ProtocolError(f"bad hardware spec: {exc}") from exc

    net_el = root.find("network")
    if net_el is not None:
        port = net_el.get("proxy-port")
        try:
            proxy_port = int(port) if port is not None else None
        except ValueError:
            raise ProtocolError(
                "<network> attribute 'proxy-port' must be an integer,"
                f" got {port!r}"
            ) from None
        network = NetworkSpec(
            domain=net_el.get("domain", "local"),
            proxy_host=net_el.get("proxy-host"),
            proxy_port=proxy_port,
            credentials=net_el.get("credentials", ""),
        )
    else:
        network = NetworkSpec()

    sw_el = root.find("software")
    if sw_el is None:
        raise ProtocolError("missing <software>")
    dag_el = sw_el.find("dag")
    if dag_el is None:
        raise ProtocolError("missing <dag> inside <software>")
    software = SoftwareSpec(
        os=sw_el.get("os", "linux-mandrake-8.1"),
        dag=dag_from_element(dag_el),
    )

    lease = root.get("lease-s")
    try:
        lease_s = float(lease) if lease is not None else None
    except ValueError:
        raise ProtocolError(
            "<vmplant-request> attribute 'lease-s' must be a number,"
            f" got {lease!r}"
        ) from None
    return CreateRequest(
        hardware=hardware,
        software=software,
        network=network,
        client_id=root.get("client", "anonymous"),
        vm_type=root.get("vm-type"),
        requirements=root.get("requirements"),
        lease_s=lease_s,
    )


def oracle_service_request_from_xml(text: str) -> Tuple[str, CreateRequest]:
    """The create/estimate half of the old envelope decoder."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc
    if root.tag != "vmplant-request":
        raise ProtocolError(f"expected <vmplant-request>, got <{root.tag}>")
    service = root.get("service")
    if service not in ("create", "estimate"):
        raise ProtocolError(f"unknown service {service!r}")
    body = ET.tostring(root, encoding="unicode")
    if service == "estimate":
        root.set("service", "create")
        body = ET.tostring(root, encoding="unicode")
    return service, oracle_request_from_xml(body)
