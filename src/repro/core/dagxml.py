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

Thousands of requests share one body and differ only in who asks, so
the body is computed once per body, not once per request, both ways:

* **Encoding** is a direct string writer (:func:`_write_dag` and the
  three-element envelope in :func:`request_to_xml`; its
  :func:`write_actions` also writes golden-image descriptors), byte for
  byte what ``ElementTree.tostring`` gives for the same tree
  (``tests.helpers.oracle_request_to_xml`` is the reference).  A
  *frozen* DAG keeps its ``<dag>`` fragment
  (:attr:`~repro.core.dag.ConfigDAG.sealed_wire`), so every later
  request sharing it writes only its envelope; a DAG that can still
  change is written afresh on every call.
* **Decoding** interns.  :func:`request_from_element` gives requests
  with the same ``<dag>`` subtree the *same* frozen
  :class:`~repro.core.dag.ConfigDAG` (mutators raise
  :class:`~repro.core.errors.DAGError`), whose order, fingerprint and
  signature caches therefore stay warm over the whole bid fan-out
  (:data:`DAG_INTERN_MAX` entries, LRU); below it, equal ``<action>``
  elements decode to one :class:`~repro.core.actions.Action`
  (:data:`ACTION_INTERN_MAX` entries, LRU), so a stream of all-distinct
  DAGs built from a few shared steps parses each step once.  That one
  is the step's canonical instance (``repro.core.actions``), the same
  object an equal action built in code is stored as.  Decoded requests
  are read-only.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List, Tuple

from repro.core.actions import (
    CANONICAL_ACTIONS_MAX,
    Action,
    ActionScope,
    ErrorPolicy,
    _canonical_actions,
    decode_literal,
)
from repro.core.dag import FINISH, START, ConfigDAG
from repro.core.errors import DAGError, ProtocolError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)

__all__ = [
    "dag_from_element",
    "dag_to_xml",
    "dag_from_xml",
    "request_to_xml",
    "request_from_xml",
    "request_from_element",
    "envelope_from_xml",
]


# ---------------------------------------------------------------------------
# Decode-side intern tables
# ---------------------------------------------------------------------------
# Both are unlocked: a simulation is one thread, fan-out is by process.

#: Bound of the decoded-``<dag>`` intern table (entries, LRU).  An
#: entry holds ~15 KB for a 10-action body; a stream of all-distinct
#: bodies keeps the table full without ever hitting it.
DAG_INTERN_MAX = 64
_interned_dags: Dict[Tuple, ConfigDAG] = {}

#: Bound of the decoded-``<action>`` intern table (entries, LRU).  A
#: catalog campaign re-uses a few dozen steps in thousands of distinct
#: DAGs; this leaves room for each DAG's own one-off steps to pass
#: through without pushing the shared ones out.
ACTION_INTERN_MAX = 256
_interned_actions: Dict[Tuple, Action] = {}


# ---------------------------------------------------------------------------
# DAG <-> element
# ---------------------------------------------------------------------------


#: What ``ElementTree`` rewrites inside an attribute value.
ATTR_ESCAPES = str.maketrans(
    {
        "&": "&amp;",
        "<": "&lt;",
        ">": "&gt;",
        '"': "&quot;",
        "\r": "&#13;",
        "\n": "&#10;",
        "\t": "&#09;",
    }
)


def write_actions(actions: Iterable[Action], parts: List[str]) -> None:
    """Append one ``<action>`` element per action to ``parts``: the
    body of a ``<dag>`` and of a golden image's ``<performed>``."""
    esc = ATTR_ESCAPES
    # ``_value_``, not ``.value``: the descriptor behind ``Enum.value``
    # is two Python calls a read on 3.11, four per action here.
    for action in actions:
        parts.append(
            f'<action name="{action.name.translate(esc)}"'
            f' scope="{action.scope._value_}"'
            f' command="{action.command.translate(esc)}"'
            f' on-error="{action.on_error._value_}"'
            f' retries="{action.retries!s}"'
        )
        if action.params or action.outputs:
            parts.append(">")
            for key, value in action.params:
                parts.append(
                    f'<param key="{key.translate(esc)}"'
                    f' value="{value.translate(esc)}" />'
                )
            for out in action.outputs:
                parts.append(f'<output name="{out.translate(esc)}" />')
            parts.append("</action>")
        else:
            parts.append(" />")


def _write_dag(dag: ConfigDAG, parts: List[str]) -> None:
    """Append the ``<dag>`` element of ``dag`` to ``parts``."""
    actions = dag.actions
    if not actions:  # so no edge and no handler either
        parts.append("<dag />")
        return
    esc = ATTR_ESCAPES
    parts.append("<dag>")
    write_actions(actions.values(), parts)
    for u, v in dag.edges():
        parts.append(
            f'<edge from="{u.translate(esc)}" to="{v.translate(esc)}" />'
        )
    for name, handler in dag.handlers.items():
        parts.append(f'<handler for="{name.translate(esc)}">')
        _write_dag(handler, parts)
        parts.append("</handler>")
    parts.append("</dag>")


def dag_from_element(root: ET.Element) -> ConfigDAG:
    """Decode an ``<dag>`` element (strict).

    One pass collects the actions and edges and
    :meth:`ConfigDAG.from_edges` builds the graph with one check over
    all of it.  A malformed body fails as adding its parts one at a
    time would: at the first fault among the actions and unexpected
    elements in document order, then among the edges, then handlers.
    """
    if root.tag != "dag":
        raise ProtocolError(f"expected <dag>, got <{root.tag}>")
    actions: List[Action] = []
    names = {START, FINISH}
    edges: List[ET.Element] = []
    handlers = []
    try:
        for child in root:
            tag = child.tag
            if tag == "action":
                action = _action_from_element(child)
                if action.name in names:  # duplicate or reserved
                    ConfigDAG.from_edges([*actions, action], ())
                names.add(action.name)
                actions.append(action)
            elif tag == "edge":
                edges.append(child)
            elif tag == "handler":
                handlers.append(child)
            else:
                raise ProtocolError(f"unexpected element <{tag}> in <dag>")
        pairs: List[Tuple[str, str]] = []
        for child in edges:
            before, after = child.get("from"), child.get("to")
            if before is None or after is None:
                ConfigDAG.from_edges(actions, pairs)  # an earlier fault
                _require(child, "from")
                _require(child, "to")
            pairs.append((before, after))
        dag = ConfigDAG.from_edges(actions, pairs)
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
    """The shared :class:`Action` for this ``<action>`` element.

    The key is everything :func:`_parse_action` reads: the element's
    attributes and each child's tag and attributes, in document order.
    Same discipline as :func:`_interned_dag`: first-seen elements go
    through the strict parser, a failed parse is not remembered.
    """
    # A loop, not a comprehension: a comprehension is a call of its own
    # for every action of every decoded body.
    parts = [tuple(el.attrib.items())]
    for child in el:
        parts.append((child.tag, *child.attrib.items()))
    key = tuple(parts)
    action = _interned_actions.pop(key, None)
    if action is None:
        action = _parse_action(el)
        # The canonical-action lookup (``repro.core.actions``): one
        # object with an equal action built in code, too.
        value = (
            action.name,
            action.scope._value_,
            action.command,
            action.params,
            action.outputs,
            action.on_error._value_,
            action.retries,
        )
        entry = _canonical_actions.pop(value, None)
        if entry is None:
            entry = (action, (action.name,))
            if len(_canonical_actions) >= CANONICAL_ACTIONS_MAX:
                del _canonical_actions[next(iter(_canonical_actions))]
        _canonical_actions[value] = entry
        action = entry[0]
        if len(_interned_actions) >= ACTION_INTERN_MAX:
            del _interned_actions[next(iter(_interned_actions))]
    _interned_actions[key] = action
    return action


#: Wire value → member: a table lookup where ``Enum(value)`` is two
#: Python calls per action decoded.
_SCOPES = {member._value_: member for member in ActionScope}
_POLICIES = {member._value_: member for member in ErrorPolicy}


def _parse_action(el: ET.Element) -> Action:
    name = _require(el, "name")
    scope = el.get("scope", ActionScope.GUEST._value_)
    command = el.get("command", "")
    on_error = el.get("on-error", ErrorPolicy.FAIL._value_)
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
                params[key] = decode_literal(rep)
            except (ValueError, SyntaxError):
                params[key] = rep
        elif child.tag == "output":
            outputs.append(_require(child, "name"))
        else:
            raise ProtocolError(
                f"unexpected element <{child.tag}> in <action>"
            )
    # The text ``Enum(value)`` raises for an unknown value.
    scope_member = _SCOPES.get(scope)
    if scope_member is None:
        raise ProtocolError(f"{scope!r} is not a valid ActionScope")
    policy = _POLICIES.get(on_error)
    if policy is None:
        raise ProtocolError(f"{on_error!r} is not a valid ErrorPolicy")
    try:
        return Action(
            name=name,
            scope=scope_member,
            command=command,
            params=params,
            outputs=tuple(outputs),
            on_error=policy,
            retries=retries,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


#: Public alias: the warehouse decodes ``<action>`` through the same
#: strict parser and the same intern table.
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
    """DAG as an XML string (a frozen DAG's is written once and kept)."""
    wire = dag.sealed_wire
    if wire is None:
        parts: List[str] = []
        _write_dag(dag, parts)
        wire = "".join(parts)
        if dag._frozen:
            dag.sealed_wire = wire
    return wire


def _parse(text: str) -> ET.Element:
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc


def dag_from_xml(text: str) -> ConfigDAG:
    """Parse a DAG from an XML string."""
    return dag_from_element(_parse(text))


def _interned_dag(root: ET.Element) -> ConfigDAG:
    """The shared frozen DAG for this ``<dag>`` subtree.

    The key is the subtree itself — every element's tag, child count,
    text, tail and attributes in document order, which is all the
    serializer writes and all the parser reads — so equal keys mean
    equal wire content.  (``ConfigDAG.fingerprint()`` would not do: it
    ignores outputs, error policies and retry budgets.)  A body seen
    for the first time goes through the strict parser; one that fails
    to parse is not remembered and fails the same way again.
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
    ``"estimate"`` request.  Only the envelope is per request; the
    ``<dag>`` inside it comes from :func:`dag_to_xml`.
    """
    esc = ATTR_ESCAPES
    head = (
        f'<vmplant-request service="{service.translate(esc)}"'
        f' client="{request.client_id.translate(esc)}"'
    )
    if request.vm_type is not None:
        head += f' vm-type="{request.vm_type.translate(esc)}"'
    if request.requirements is not None:
        head += f' requirements="{request.requirements.translate(esc)}"'
    if request.lease_s is not None:
        head += f' lease-s="{request.lease_s!r}"'
    hw = request.hardware
    net = request.network
    network = f'<network domain="{net.domain.translate(esc)}"'
    if net.proxy_host is not None:
        network += f' proxy-host="{net.proxy_host.translate(esc)}"'
    if net.proxy_port is not None:
        network += f' proxy-port="{net.proxy_port!s}"'
    if net.credentials:
        network += f' credentials="{net.credentials.translate(esc)}"'
    software = request.software
    return (
        f'{head}><hardware isa="{hw.isa.translate(esc)}"'
        f' memory-mb="{hw.memory_mb!s}" disk-gb="{hw.disk_gb!r}"'
        f' cpus="{hw.cpus!s}" />{network} />'
        f'<software os="{software.os.translate(esc)}">'
        f"{dag_to_xml(software.dag)}</software></vmplant-request>"
    )


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
