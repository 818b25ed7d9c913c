"""XML encodings of configuration DAGs and service requests.

The prototype's services are "specified as XML strings" (Section 4.1):
a Create-VM request carries the configuration DAG inline.  This module
round-trips :class:`~repro.core.dag.ConfigDAG` and
:class:`~repro.core.spec.CreateRequest` through the schema below::

    <vmplant-request service="create" client="..." vm-type="vmware">
      <hardware isa="x86" memory-mb="32" disk-gb="4.0" cpus="1"/>
      <network domain="acis.ufl.edu" proxy-host="..." proxy-port="..."
               credentials="..."/>
      <software os="linux-mandrake-8.1">
        <dag>
          <action name="install-vnc" scope="guest"
                  command="rpm -i {pkg}" on-error="retry" retries="2">
            <param key="pkg" value="'vnc-server.rpm'"/>
            <output name="vnc_port"/>
          </action>
          <edge from="install-redhat" to="install-vnc"/>
          <handler for="install-vnc">
            <dag>...</dag>
          </handler>
        </dag>
      </software>
    </vmplant-request>

Parsing is strict: unknown or repeated elements, missing attributes
and malformed structure raise :class:`~repro.core.errors.ProtocolError`.

Decoded requests are read-only.  Thousands of requests share one body
and differ only in who asks, so :func:`request_from_element` interns
the decoded ``<dag>``: requests with the same ``<dag>`` subtree get the
*same* frozen :class:`~repro.core.dag.ConfigDAG` (mutators raise
:class:`~repro.core.errors.DAGError`), whose order, fingerprint and
signature caches therefore stay warm over the whole bid fan-out.
"""

from __future__ import annotations

import ast
import xml.etree.ElementTree as ET
from typing import Dict, Tuple

from repro.core.actions import Action, ActionScope, ErrorPolicy
from repro.core.dag import ConfigDAG
from repro.core.errors import DAGError, ProtocolError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)

__all__ = [
    "dag_to_element",
    "dag_from_element",
    "dag_to_xml",
    "dag_from_xml",
    "request_to_xml",
    "request_from_xml",
    "request_from_element",
    "envelope_from_xml",
]


# ---------------------------------------------------------------------------
# DAG <-> element
# ---------------------------------------------------------------------------


def dag_to_element(dag: ConfigDAG) -> ET.Element:
    """Encode a DAG as an ``<dag>`` element."""
    root = ET.Element("dag")
    for name, action in dag.actions.items():
        el = ET.SubElement(
            root,
            "action",
            {
                "name": name,
                "scope": action.scope.value,
                "command": action.command,
                "on-error": action.on_error.value,
                "retries": str(action.retries),
            },
        )
        for key, value in action.params:
            ET.SubElement(el, "param", {"key": key, "value": value})
        for out in action.outputs:
            ET.SubElement(el, "output", {"name": out})
    for u, v in dag.edges():
        ET.SubElement(root, "edge", {"from": u, "to": v})
    for name, handler in dag.handlers.items():
        hel = ET.SubElement(root, "handler", {"for": name})
        hel.append(dag_to_element(handler))
    return root


def dag_from_element(root: ET.Element) -> ConfigDAG:
    """Decode an ``<dag>`` element (strict)."""
    if root.tag != "dag":
        raise ProtocolError(f"expected <dag>, got <{root.tag}>")
    dag = ConfigDAG()
    handlers = []
    try:
        for child in root:
            if child.tag == "action":
                dag.add_action(_action_from_element(child))
            elif child.tag == "edge":
                pass  # second pass
            elif child.tag == "handler":
                handlers.append(child)
            else:
                raise ProtocolError(
                    f"unexpected element <{child.tag}> in <dag>"
                )
        for child in root:
            if child.tag == "edge":
                u = _require(child, "from")
                v = _require(child, "to")
                dag.add_edge(u, v)
        for child in handlers:
            target = _require(child, "for")
            inner = list(child)
            if len(inner) != 1:
                raise ProtocolError("<handler> must contain exactly one <dag>")
            dag.attach_handler(target, dag_from_element(inner[0]))
    except DAGError as exc:
        raise ProtocolError(str(exc)) from exc
    return dag


def _action_from_element(el: ET.Element) -> Action:
    name = _require(el, "name")
    scope = el.get("scope", ActionScope.GUEST.value)
    command = el.get("command", "")
    on_error = el.get("on-error", ErrorPolicy.FAIL.value)
    try:
        retries = int(el.get("retries", "0"))
    except ValueError:
        raise _not_a_number(el, "retries", "an integer") from None
    params: Dict[str, object] = {}
    outputs = []
    for child in el:
        if child.tag == "param":
            key = _require(child, "key")
            rep = _require(child, "value")
            try:
                params[key] = ast.literal_eval(rep)
            except (ValueError, SyntaxError):
                params[key] = rep
        elif child.tag == "output":
            outputs.append(_require(child, "name"))
        else:
            raise ProtocolError(
                f"unexpected element <{child.tag}> in <action>"
            )
    try:
        return Action(
            name=name,
            scope=ActionScope(scope),
            command=command,
            params=params,
            outputs=tuple(outputs),
            on_error=ErrorPolicy(on_error),
            retries=retries,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


#: Public alias: the warehouse reuses the strict action parser.
action_from_element = _action_from_element


def _require(el: ET.Element, attr: str) -> str:
    value = el.get(attr)
    if value is None:
        raise ProtocolError(f"<{el.tag}> missing required attribute {attr!r}")
    return value


def _not_a_number(el: ET.Element, attr: str, want: str) -> ProtocolError:
    return ProtocolError(
        f"<{el.tag}> attribute {attr!r} must be {want},"
        f" got {el.get(attr)!r}"
    )


def dag_to_xml(dag: ConfigDAG) -> str:
    """DAG as an XML string."""
    return ET.tostring(dag_to_element(dag), encoding="unicode")


def _parse(text: str) -> ET.Element:
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc


def dag_from_xml(text: str) -> ConfigDAG:
    """Parse a DAG from an XML string."""
    return dag_from_element(_parse(text))


#: Bound of the decoded-``<dag>`` intern table (entries, LRU).  An
#: entry holds ~15 KB for a 10-action body; a stream of all-distinct
#: bodies keeps the table full without ever hitting it.
DAG_INTERN_MAX = 64
_interned_dags: Dict[Tuple, ConfigDAG] = {}


def _interned_dag(root: ET.Element) -> ConfigDAG:
    """The shared frozen DAG for this ``<dag>`` subtree.

    The key is the subtree itself — every element's tag, child count,
    text, tail and attributes in document order, which is all the
    serializer writes and all the parser reads — so equal keys mean
    equal wire content.  (``ConfigDAG.fingerprint()`` would not do: it
    ignores outputs, error policies and retry budgets.)  A body seen
    for the first time goes through the strict parser; one that fails
    to parse is not remembered and fails the same way again.  The table
    is unlocked: a simulation is one thread, fan-out is by process.
    """
    # A list comprehension, not a generator: one frame for the whole
    # walk instead of one resumption per element.
    key = tuple(
        [
            (el.tag, len(el), el.text, el.tail, *el.attrib.items())
            for el in root.iter()
        ]
    )
    dag = _interned_dags.pop(key, None)
    if dag is None:
        dag = dag_from_element(root).freeze()
        if len(_interned_dags) >= DAG_INTERN_MAX:
            del _interned_dags[next(iter(_interned_dags))]
    _interned_dags[key] = dag
    return dag


# ---------------------------------------------------------------------------
# CreateRequest <-> XML
# ---------------------------------------------------------------------------


def request_to_xml(request: CreateRequest, service: str = "create") -> str:
    """Encode a Create-VM request as an XML string.

    ``service`` names the envelope: bidding wraps the same body in an
    ``"estimate"`` request.
    """
    root = ET.Element(
        "vmplant-request",
        {"service": service, "client": request.client_id},
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


def envelope_from_xml(text: str) -> ET.Element:
    """Parse a service envelope; returns its ``<vmplant-request>`` root."""
    root = _parse(text)
    if root.tag != "vmplant-request":
        raise ProtocolError(f"expected <vmplant-request>, got <{root.tag}>")
    return root


def request_from_xml(text: str) -> CreateRequest:
    """Parse a Create-VM request from an XML string (strict)."""
    root = envelope_from_xml(text)
    if root.get("service") != "create":
        raise ProtocolError("only service=\"create\" requests carry a body")
    return request_from_element(root)


def request_from_element(root: ET.Element) -> CreateRequest:
    """Decode the body of a create/estimate envelope (strict).

    The caller has checked the root's tag and ``service``; the tree is
    not modified.  The returned request is read-only: its DAG is a
    frozen instance shared with every request carrying the same
    ``<dag>`` subtree.
    """
    parts: Dict[str, ET.Element] = {}
    for child in root:
        tag = child.tag
        if tag not in ("hardware", "network", "software"):
            raise ProtocolError(
                f"unexpected element <{tag}> in <vmplant-request>"
            )
        if tag in parts:
            raise ProtocolError(f"duplicate <{tag}> in <vmplant-request>")
        parts[tag] = child

    hw_el = parts.get("hardware")
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

    net_el = parts.get("network")
    if net_el is not None:
        port = net_el.get("proxy-port")
        try:
            proxy_port = int(port) if port is not None else None
        except ValueError:
            raise _not_a_number(net_el, "proxy-port", "an integer") from None
        network = NetworkSpec(
            domain=net_el.get("domain", "local"),
            proxy_host=net_el.get("proxy-host"),
            proxy_port=proxy_port,
            credentials=net_el.get("credentials", ""),
        )
    else:
        network = NetworkSpec()

    sw_el = parts.get("software")
    if sw_el is None:
        raise ProtocolError("missing <software>")
    dag_el = sw_el.find("dag")
    if dag_el is None:
        raise ProtocolError("missing <dag> inside <software>")
    software = SoftwareSpec(
        os=sw_el.get("os", "linux-mandrake-8.1"),
        dag=_interned_dag(dag_el),
    )

    lease = root.get("lease-s")
    try:
        lease_s = float(lease) if lease is not None else None
    except ValueError:
        raise _not_a_number(root, "lease-s", "a number") from None
    return CreateRequest(
        hardware=hardware,
        software=software,
        network=network,
        client_id=root.get("client", "anonymous"),
        vm_type=root.get("vm-type"),
        requirements=root.get("requirements"),
        lease_s=lease_s,
    )
