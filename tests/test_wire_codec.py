"""The one-pass wire codec against the retained two-pass oracle, the
decoded-``<dag>`` intern table, and the O(1) plant memory total.

Three kinds of test:

* differential — seeded random requests, hypothesis-drawn requests
  and a malformed corpus must give the wire bytes, decoded requests
  and error messages of ``tests.helpers.oracle_*`` (the ElementTree
  codec before it became one pass, then a direct string writer);
* behaviour of what is new — strict top-level children, the ``<dag>``
  and ``<action>`` intern tables, shared DAGs and the wire fragment
  kept for each, the running memory total under every path that
  registers or drops a VM;
* perf-smoke guards — Python-call budgets (``cProfile`` without
  builtins, exact and machine-independent) so neither the second pass,
  the per-VM sum nor per-request body work can come back unnoticed.
"""

import dataclasses
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import dagxml
from repro.core.actions import Action, ActionScope, ErrorPolicy
from repro.core.dag import ConfigDAG
from repro.core.dagxml import (
    request_from_element,
    request_from_xml,
    request_to_xml,
)
from repro.core.errors import ProtocolError, ReproError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.plant.infosys import VMInformationSystem
from repro.plant.migration import MigrationManager
from repro.plant.production import VirtualMachine
from repro.plant.speculative import SpeculativeClonePool
from repro.plant.warehouse import GoldenImage
from repro.shop.protocol import (
    service_request_from_xml,
    service_request_to_xml,
)
from repro.sim.cluster import build_testbed
from repro.workloads.requests import experiment_request, golden_image

from tests.helpers import (
    drive,
    oracle_image_to_element,
    oracle_image_to_xml,
    oracle_request_from_xml,
    oracle_service_request_from_xml,
    oracle_service_request_to_xml,
    python_calls,
)
from tests.oracles.dag_decode import oracle_dag_from_element


_TABLES = ("_interned_dags", "_interned_actions", "_interned_hardware",
           "_interned_networks", "_interned_software")


@pytest.fixture(autouse=True)
def fresh_intern_tables():
    for table in _TABLES:
        getattr(dagxml, table).clear()
    yield
    for table in _TABLES:
        getattr(dagxml, table).clear()


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

#: Everything the attribute escaper has a rule for, plus non-ASCII.
NASTY = ['"', "&", "<", ">", "\n", "'", "é", "日本", " ", "&amp;", " "]


def nasty_text(rng: random.Random, prefix: str) -> str:
    pieces = [prefix]
    for _ in range(rng.randrange(0, 4)):
        pieces.append(rng.choice(NASTY))
        pieces.append(rng.choice(["x", "rpm -i {pkg}", "a b", ""]))
    return "".join(pieces)


def random_param(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randrange(-5, 5000)
    if kind == 1:
        return rng.choice([0.5, 1e-9, 2.75, -3.0])
    if kind == 2:
        return nasty_text(rng, "v")
    if kind == 3:
        return [rng.randrange(9), nasty_text(rng, "l")]
    if kind == 4:
        return None
    return rng.choice([True, False])


def random_dag(rng: random.Random, depth: int = 0) -> ConfigDAG:
    n = rng.randrange(1, 7)
    names = [nasty_text(rng, f"a{depth}-{i}-") for i in range(n)]
    actions = [
        Action(
            name,
            scope=rng.choice(list(ActionScope)),
            command=nasty_text(rng, "cmd "),
            params={
                nasty_text(rng, f"k{j}"): random_param(rng)
                for j in range(rng.randrange(0, 4))
            },
            outputs=tuple(
                nasty_text(rng, f"out{j}")
                for j in range(rng.randrange(0, 3))
            ),
            on_error=rng.choice(list(ErrorPolicy)),
            retries=rng.randrange(0, 4),
        )
        for name in names
    ]
    edges = [
        (names[i], names[j])
        for j in range(1, n)
        for i in range(j)
        if rng.random() < 0.3
    ]
    handlers = [
        (name, random_dag(rng, depth + 1))
        for name in (names if depth < 2 else ())
        if rng.random() < 0.25
    ]
    return ConfigDAG.from_edges(actions, edges, handlers)


def random_request(rng: random.Random) -> CreateRequest:
    if rng.random() < 0.3:
        network = NetworkSpec()  # "no network": the all-default spec
    else:
        bridged = rng.random() < 0.5
        network = NetworkSpec(
            domain=nasty_text(rng, "dom"),
            proxy_host="proxy.example" if bridged else None,
            proxy_port=rng.randrange(1, 65536) if bridged else None,
            credentials=rng.choice(["", nasty_text(rng, "cred")]),
        )
    return CreateRequest(
        hardware=HardwareSpec(
            isa=rng.choice(["x86", "ia64"]),
            memory_mb=rng.choice([32, 64, 256, 1024]),
            disk_gb=rng.choice([4.0, 0.5, 12.25]),
            cpus=rng.randrange(1, 5),
        ),
        software=SoftwareSpec(
            os=nasty_text(rng, "os-"), dag=random_dag(rng)
        ),
        network=network,
        client_id=nasty_text(rng, "client"),
        vm_type=rng.choice([None, "vmware", "uml"]),  # None = untyped
        requirements=rng.choice(
            [None, 'other.active_vms < 8 && other.os == "linux"']
        ),
        lease_s=rng.choice([None, 3600.0, 0.1, 1e6]),
    )


def dag_detail(dag: ConfigDAG):
    """Everything the wire carries — ``ConfigDAG.__eq__`` alone leaves
    out outputs, error policies and retry budgets."""
    return (
        list(dag.actions.items()),
        dag.edges(),
        [(name, dag_detail(h)) for name, h in dag.handlers.items()],
    )


def assert_same_request(got: CreateRequest, want: CreateRequest) -> None:
    assert got == want
    assert dag_detail(got.dag) == dag_detail(want.dag)


#: The seven characters ``ElementTree`` rewrites inside an attribute
#: value, next to some it writes as they are.
ESCAPED = '&<>"\r\n\t'
TEXT = st.text(alphabet=ESCAPED + "'a é{}$", max_size=6)


@st.composite
def drawn_action(draw, name: str) -> Action:
    params = draw(
        st.dictionaries(
            TEXT,
            st.one_of(st.integers(-9, 9999), st.booleans(), st.none(), TEXT),
            max_size=3,
        )
    )
    if draw(st.booleans()):
        # The canonical tuple form: values reach the wire as given,
        # raw CR / LF / TAB included (``repr`` would have quoted them).
        params = tuple(sorted((key, draw(TEXT)) for key in params))
    return Action(
        name,
        scope=draw(st.sampled_from(ActionScope)),
        command=draw(TEXT),
        params=params,
        outputs=tuple(draw(st.lists(TEXT, max_size=2))),
        on_error=draw(st.sampled_from(ErrorPolicy)),
        retries=draw(st.integers(0, 3)),
    )


@st.composite
def drawn_dag(draw, depth: int = 0) -> ConfigDAG:
    """Zero (the empty DAG) to four actions, random forward edges,
    handlers nested two deep."""
    names = draw(st.lists(TEXT.filter(bool), unique=True, max_size=4))
    actions = [draw(drawn_action(name)) for name in names]
    edges = [
        (names[i], names[j])
        for j in range(1, len(names))
        for i in range(j)
        if draw(st.booleans())
    ]
    handlers = [
        (name, draw(drawn_dag(depth + 1)))
        for name in (names if depth < 2 else ())
        if draw(st.integers(0, 3)) == 0
    ]
    return ConfigDAG.from_edges(actions, edges, handlers)


@st.composite
def drawn_request(draw) -> CreateRequest:
    return CreateRequest(
        hardware=HardwareSpec(
            isa=draw(TEXT),
            memory_mb=draw(st.sampled_from([32, 1024])),
            disk_gb=draw(st.sampled_from([4.0, 0.5, 1e-3])),
            cpus=draw(st.integers(1, 4)),
        ),
        software=SoftwareSpec(os=draw(TEXT), dag=draw(drawn_dag())),
        network=NetworkSpec(
            domain=draw(TEXT),
            proxy_host=draw(st.none() | TEXT),
            proxy_port=draw(st.none() | st.integers(1, 65535)),
            credentials=draw(TEXT),
        ),
        client_id=draw(TEXT),
        vm_type=draw(st.none() | TEXT),
        requirements=draw(st.none() | TEXT),
        lease_s=draw(st.none() | st.sampled_from([3600.0, 0.1, 1e6])),
    )


# ---------------------------------------------------------------------------
# Differential: the live codec against the two-pass ElementTree oracle
# ---------------------------------------------------------------------------


class TestAgainstOracle:
    @pytest.mark.parametrize("block", range(6))
    def test_random_requests_same_bytes_same_requests(self, block):
        rng = random.Random(20040 + block)
        for _ in range(60):  # 6 blocks x 60 = 360 requests
            request = random_request(rng)
            for service in (None, "create", "estimate"):
                wire = service_request_to_xml(request, service)
                assert wire == oracle_service_request_to_xml(request, service)
                got_service, got = service_request_from_xml(wire)
                want_service, want = oracle_service_request_from_xml(wire)
                assert got_service == want_service == (service or "create")
                assert_same_request(got, want)
                assert_same_request(got, request)
            wire = request_to_xml(request)
            assert wire == oracle_service_request_to_xml(request)
            assert_same_request(
                request_from_xml(wire), oracle_request_from_xml(wire)
            )

    @given(drawn_request())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_drawn_requests_same_bytes_same_requests(self, drawn):
        for service in ("create", "estimate"):
            wire = service_request_to_xml(drawn, service)
            assert wire == oracle_service_request_to_xml(drawn, service)
            got_service, got = service_request_from_xml(wire)
            want_service, want = oracle_service_request_from_xml(wire)
            assert got_service == want_service == service
            assert_same_request(got, want)

    def test_network_element_absent_on_the_wire(self):
        wire = request_to_xml(experiment_request(32))
        root = ET.fromstring(wire)
        root.remove(root.find("network"))
        text = ET.tostring(root, encoding="unicode")
        got = request_from_xml(text)
        assert got.network == NetworkSpec()
        assert_same_request(got, oracle_request_from_xml(text))

    #: Each entry is a request body; ``{svc}`` takes both services.
    MALFORMED = [
        "",
        "not xml at all",
        '<vmplant-request service="{svc}"',
        '<other service="{svc}"/>',
        '<vmplant-request service="{svc}"/>',
        '<vmplant-request service="{svc}"><hardware disk-gb="4.0"/>'
        "</vmplant-request>",
        '<vmplant-request service="{svc}"><hardware memory-mb="32"/>'
        "</vmplant-request>",
        '<vmplant-request service="{svc}">'
        '<hardware memory-mb="lots" disk-gb="4.0"/></vmplant-request>',
        '<vmplant-request service="{svc}">'
        '<hardware memory-mb="-1" disk-gb="4.0"/></vmplant-request>',
        '<vmplant-request service="{svc}">'
        '<hardware memory-mb="32" disk-gb="4.0" cpus="0"/>'
        "</vmplant-request>",
        '<vmplant-request service="{svc}">'
        '<hardware memory-mb="32" disk-gb="4.0"/></vmplant-request>',
        '<vmplant-request service="{svc}">'
        '<hardware memory-mb="32" disk-gb="4.0"/>'
        '<network proxy-port="http"/><software><dag/></software>'
        "</vmplant-request>",
        '<vmplant-request service="{svc}" lease-s="soon">'
        '<hardware memory-mb="32" disk-gb="4.0"/>'
        "<software><dag/></software></vmplant-request>",
        '<vmplant-request service="{svc}">'
        '<hardware memory-mb="32" disk-gb="4.0"/><software/>'
        "</vmplant-request>",
    ] + [
        '<vmplant-request service="{svc}">'
        '<hardware memory-mb="32" disk-gb="4.0"/>'
        "<software>" + dag + "</software></vmplant-request>"
        for dag in [
            "<dag><bogus/></dag>",
            "<notdag/>",
            "<dag><action/></dag>",
            '<dag><action name=""/></dag>',
            '<dag><action name="a"><bogus/></action></dag>',
            '<dag><action name="a"><param key="k"/></action></dag>',
            '<dag><action name="a"><output/></action></dag>',
            '<dag><action name="a" scope="moon"/></dag>',
            '<dag><action name="a" on-error="shrug"/></dag>',
            '<dag><action name="a" retries="-2"/></dag>',
            '<dag><action name="a" retries="many"/></dag>',
            '<dag><action name="a"/><action name="a"/></dag>',
            '<dag><action name="__start__"/></dag>',
            '<dag><action name="a"/><edge from="a"/></dag>',
            '<dag><action name="a"/><edge from="a" to="ghost"/></dag>',
            '<dag><action name="a"/><edge from="a" to="a"/></dag>',
            '<dag><action name="a"/><action name="b"/>'
            '<edge from="a" to="b"/><edge from="b" to="a"/></dag>',
            '<dag><action name="a"/><handler for="a"/></dag>',
            '<dag><action name="a"/><handler for="a"><dag/><dag/>'
            "</handler></dag>",
            '<dag><action name="a"/><handler><dag/></handler></dag>',
            '<dag><action name="a"/><handler for="ghost"><dag/>'
            "</handler></dag>",
            '<dag><action name="a"/><handler for="a"><dag><bogus/></dag>'
            "</handler></dag>",
        ]
    ]

    @staticmethod
    def outcome(decode, text):
        try:
            return decode(text)
        except ProtocolError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("template", MALFORMED)
    def test_malformed_corpus_fails_verbatim(self, template):
        for svc in ("create", "estimate"):
            text = template.replace("{svc}", svc)
            want = self.outcome(oracle_service_request_from_xml, text)
            assert isinstance(want[0], type), "corpus entry must be rejected"
            # Twice: a body that failed is not remembered as decoded.
            for _ in range(2):
                assert self.outcome(service_request_from_xml, text) == want
        text = template.replace("{svc}", "create")
        assert self.outcome(request_from_xml, text) == self.outcome(
            oracle_request_from_xml, text
        )

    @pytest.mark.parametrize(
        "fragment, message",
        [
            (
                'retries="many"',
                "<action> attribute 'retries' must be an integer,"
                " got 'many'",
            ),
            (
                'proxy-port="http"',
                "<network> attribute 'proxy-port' must be an integer,"
                " got 'http'",
            ),
            (
                'lease-s="soon"',
                "<vmplant-request> attribute 'lease-s' must be a number,"
                " got 'soon'",
            ),
        ],
    )
    def test_non_numeric_attribute_names_itself(self, fragment, message):
        (template,) = [t for t in self.MALFORMED if fragment in t]
        for svc in ("create", "estimate"):
            text = template.replace("{svc}", svc)
            assert self.outcome(service_request_from_xml, text) == (
                ProtocolError, message
            )


class TestOnePassDagDecode:
    """``dag_from_element`` (collect the parts, ``ConfigDAG.from_edges``
    once) against the decoder that added them one checked call at a
    time: same DAG, same ``ProtocolError`` text, same first fault."""

    @staticmethod
    def outcome(decode, body):
        try:
            dag = decode(ET.fromstring(body))
        except ProtocolError as exc:
            return "error", str(exc)
        return "ok", (
            list(dag.actions.items()),
            dag.edges(),
            dag.topological_sort(),
            {name: h.structure() for name, h in dag.handlers.items()},
        )

    def assert_same(self, body):
        want = self.outcome(oracle_dag_from_element, body)
        assert self.outcome(dagxml.dag_from_element, body) == want, body
        return want

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                '<dag><action name="a"/><action name="b"/><action name="a"/>'
                "</dag>",
                "duplicate action 'a'",
            ),
            (
                '<dag><action name="a"/><action name="__finish__"/></dag>',
                "'__finish__' is a reserved node name",
            ),
            (
                '<dag><action name="a"/><action name="b"/>'
                '<edge from="a" to="b"/><edge from="ghost" to="a"/></dag>',
                "unknown action 'ghost'",
            ),
            (
                '<dag><action name="a"/><action name="b"/>'
                '<edge from="b" to="b"/></dag>',
                "self-edge on 'b'",
            ),
            (
                '<dag><action name="a"/><action name="b"/><action name="c"/>'
                '<edge from="a" to="b"/><edge from="b" to="c"/>'
                '<edge from="c" to="a"/></dag>',
                "edge 'c'->'a' would create a cycle",
            ),
            (
                '<dag><action name="a"/><handler for="a"/></dag>',
                "<handler> must contain exactly one <dag>",
            ),
            (
                '<dag><action name="a"/><handler for="a"><dag/><dag/>'
                "</handler></dag>",
                "<handler> must contain exactly one <dag>",
            ),
        ],
    )
    def test_malformed_body_fails_with_the_incremental_text(
        self, body, message
    ):
        assert self.assert_same(body) == ("error", message)

    def test_random_bodies_fail_at_the_same_first_fault(self):
        # Faults mixed in one body: the one-pass decoder must report
        # the fault adding the parts in order would have met first.
        rng = random.Random(2604)
        names = ["a", "b", "c", "d", "__start__", "ghost"]

        def element():
            roll = rng.random()
            if roll < 0.35:
                name = rng.choice(names[:4] + names[:5])
                return f'<action name="{name}"/>'
            if roll < 0.85:
                ends = [
                    f'{end}="{rng.choice(names)}"'
                    for end in ("from", "to")
                    if rng.random() < 0.95
                ]
                return f"<edge {' '.join(ends)}/>"
            if roll < 0.95:
                dags = "<dag/>" * rng.choice([0, 1, 1, 1, 2])
                target = rng.choice(["a", "b", "ghost"])
                return f'<handler for="{target}">{dags}</handler>'
            return "<bogus/>"

        seen = set()
        for _ in range(600):
            body = "".join(element() for _ in range(rng.randrange(1, 9)))
            seen.add(self.assert_same(f"<dag>{body}</dag>")[0])
        assert seen == {"ok", "error"}

    def test_chain_keeps_insertion_order_and_wire_bytes(self):
        request = experiment_request(64)
        wire = service_request_to_xml(request)
        dagxml._interned_dags.clear()
        _, decoded = service_request_from_xml(wire)
        assert list(decoded.dag.actions) == list(request.dag.actions)
        assert decoded.dag.edges() == request.dag.edges()
        assert decoded.dag.fingerprint() == request.dag.fingerprint()
        assert service_request_to_xml(decoded) == wire


# ---------------------------------------------------------------------------
# Strictness the two-pass decoder promised but did not have
# ---------------------------------------------------------------------------


class TestStrictEnvelope:
    def envelope(self, service="create") -> ET.Element:
        return ET.fromstring(
            service_request_to_xml(experiment_request(32), service)
        )

    def test_unknown_top_level_child_rejected(self):
        root = self.envelope()
        ET.SubElement(root, "firmware", {"bios": "x"})
        text = ET.tostring(root, encoding="unicode")
        oracle_request_from_xml(text)  # the old decoder let it through
        for decode in (request_from_xml, service_request_from_xml):
            with pytest.raises(
                ProtocolError, match="unexpected element <firmware>"
            ):
                decode(text)

    @pytest.mark.parametrize("tag", ["hardware", "network", "software"])
    def test_duplicate_top_level_child_rejected(self, tag):
        root = self.envelope("estimate")
        root.append(root.find(tag))
        text = ET.tostring(root, encoding="unicode")
        oracle_service_request_from_xml(text)
        with pytest.raises(ProtocolError, match=f"duplicate <{tag}>"):
            service_request_from_xml(text)

    def test_request_from_xml_still_refuses_other_services(self):
        text = service_request_to_xml(experiment_request(32), "estimate")
        with pytest.raises(ProtocolError, match='only service="create"'):
            request_from_xml(text)
        service, request = service_request_from_xml(text)
        assert service == "estimate"
        assert_same_request(request, experiment_request(32))

    def test_decoding_leaves_the_tree_alone(self):
        root = self.envelope("estimate")
        before = ET.tostring(root, encoding="unicode")
        request_from_element(root)
        assert ET.tostring(root, encoding="unicode") == before
        assert root.get("service") == "estimate"


# ---------------------------------------------------------------------------
# The intern table
# ---------------------------------------------------------------------------


def count_top_level_decodes(monkeypatch) -> list:
    """Route ``dagxml.dag_from_element`` through a counter of the calls
    made for a request's own ``<dag>`` (handlers recurse through it)."""
    calls = []
    real = dagxml.dag_from_element
    depth = [0]

    def counting(element):
        if not depth[0]:
            calls.append(element)
        depth[0] += 1
        try:
            return real(element)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(dagxml, "dag_from_element", counting)
    return calls


def count_calls(monkeypatch, name: str) -> list:
    """Route ``dagxml.<name>`` through a list of its first arguments."""
    calls = []
    real = getattr(dagxml, name)

    def counting(first, *rest):
        calls.append(first)
        return real(first, *rest)

    monkeypatch.setattr(dagxml, name, counting)
    return calls


def chain_request(tag: str, **action_kwargs) -> CreateRequest:
    dag = ConfigDAG.from_sequence(
        [Action("install", command="rpm -i base"),
         Action(f"step-{tag}", command="configure", **action_kwargs)]
    )
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=64),
        software=SoftwareSpec(os="linux", dag=dag),
    )


class TestIntern:
    def test_one_decode_for_200_requests_differing_in_who(self, monkeypatch):
        calls = count_top_level_decodes(monkeypatch)
        base = experiment_request(64)
        decoded = []
        for i in range(200):
            request = dataclasses.replace(
                base,
                client_id=f"client-{i}",
                network=NetworkSpec(domain=f"d{i % 7}.example"),
            )
            _, back = service_request_from_xml(service_request_to_xml(request))
            assert_same_request(back, request)
            decoded.append(back)
        assert len(calls) == 1
        assert all(r.dag is decoded[0].dag for r in decoded)
        assert len({r.client_id for r in decoded}) == 200
        # The shared instance keeps its caches: same digest object.
        assert decoded[0].dag.fingerprint() is decoded[-1].dag.fingerprint()

    def test_bounded_with_lru_eviction(self, monkeypatch):
        calls = count_top_level_decodes(monkeypatch)
        bound = dagxml.DAG_INTERN_MAX
        assert bound <= 256
        wires = [
            service_request_to_xml(chain_request(str(i)))
            for i in range(bound + 10)
        ]
        for wire in wires[:bound]:
            service_request_from_xml(wire)
        assert len(calls) == len(dagxml._interned_dags) == bound
        service_request_from_xml(wires[0])  # hit: now the most recent
        assert len(calls) == bound
        for wire in wires[bound:]:
            service_request_from_xml(wire)
        assert len(dagxml._interned_dags) == bound
        assert len(calls) == bound + 10
        service_request_from_xml(wires[0])  # survived: recently used
        assert len(calls) == bound + 10
        service_request_from_xml(wires[1])  # evicted: decoded afresh
        assert len(calls) == bound + 11

    def test_equal_hardware_and_network_decode_to_one_record(self):
        decoded = []
        for who in ("a", "b"):
            request = experiment_request(64, domain="d.example", client_id=who)
            _, back = service_request_from_xml(service_request_to_xml(request))
            assert_same_request(back, request)
            decoded.append(back)
        first, second = decoded
        assert second.hardware is first.hardware
        assert second.network is first.network
        # The first decode's strings: the later parse's copies are gone.
        assert second.network.domain is first.network.domain
        other = experiment_request(128, domain="e.example")
        _, back = service_request_from_xml(service_request_to_xml(other))
        assert_same_request(back, other)
        assert back.hardware is not first.hardware
        assert back.network is not first.network

    def test_equal_software_and_vm_type_decode_to_one_record(self):
        decoded = []
        for who in ("a", "b"):
            request = experiment_request(64, client_id=who)
            _, back = service_request_from_xml(service_request_to_xml(request))
            assert_same_request(back, request)
            decoded.append(back)
        first, second = decoded
        assert second.software is first.software
        assert second.software.os is first.software.os
        assert second.vm_type is first.vm_type
        for other in (
            experiment_request(64, os="linux-redhat-7.3"),
            experiment_request(64, vm_type="uml"),
            experiment_request(64, vm_type=None),
        ):
            _, back = service_request_from_xml(service_request_to_xml(other))
            assert_same_request(back, other)
            assert back.software is not first.software

    def test_software_table_is_bounded_lru(self):
        bound = dagxml.SPEC_INTERN_MAX
        wires = [
            service_request_to_xml(experiment_request(64, os=f"os-{i}"))
            for i in range(bound + 1)
        ]
        _, first = service_request_from_xml(wires[0])
        for wire in wires[1:]:
            service_request_from_xml(wire)
        assert len(dagxml._interned_software) == bound
        _, back = service_request_from_xml(wires[0])  # evicted: afresh
        assert back.software is not first.software
        assert back.software == first.software

    def test_a_missing_network_element_decodes_to_one_default(self):
        wire = service_request_to_xml(experiment_request(64))
        start = wire.index("<network")
        bare = wire[:start] + wire[wire.index("/>", start) + 2:]
        _, one = service_request_from_xml(bare)
        _, two = service_request_from_xml(bare)
        assert one.network == NetworkSpec() and two.network is one.network

    def test_record_tables_are_bounded_lru(self):
        bound = dagxml.SPEC_INTERN_MAX
        wires = [
            service_request_to_xml(
                experiment_request(i + 1, domain=f"d{i}.example")
            )
            for i in range(bound + 1)
        ]
        _, first = service_request_from_xml(wires[0])
        for wire in wires[1:bound]:
            service_request_from_xml(wire)
        _, again = service_request_from_xml(wires[0])  # now most recent
        assert again.hardware is first.hardware
        service_request_from_xml(wires[bound])  # evicts wires[1]'s
        for table in (dagxml._interned_hardware, dagxml._interned_networks):
            assert len(table) == bound
        _, back = service_request_from_xml(wires[0])
        assert back.hardware is first.hardware
        assert back.network is first.network

    def test_a_bad_hardware_element_is_not_remembered(self):
        wire = service_request_to_xml(experiment_request(64))
        bad = wire.replace('memory-mb="64"', 'memory-mb="lots"')
        for _ in range(2):
            with pytest.raises(ProtocolError, match="bad hardware spec"):
                service_request_from_xml(bad)
        assert not dagxml._interned_hardware

    @pytest.mark.parametrize(
        "one, other",
        [
            ({"on_error": "retry", "retries": 1},
             {"on_error": "retry", "retries": 3}),
            ({"outputs": ("ip",)}, {"outputs": ("ip", "port")}),
            ({"on_error": "fail"}, {"on_error": "ignore"}),
        ],
    )
    def test_same_fingerprint_different_wire_stays_distinct(self, one, other):
        a, b = chain_request("x", **one), chain_request("x", **other)
        # Matching identity cannot tell them apart ...
        assert a.dag.fingerprint() == b.dag.fingerprint()
        assert a.dag == b.dag
        # ... the wire and the intern table can.
        _, da = service_request_from_xml(service_request_to_xml(a))
        _, db = service_request_from_xml(service_request_to_xml(b))
        assert da.dag is not db.dag
        assert dag_detail(da.dag) == dag_detail(a.dag)
        assert dag_detail(db.dag) == dag_detail(b.dag)
        assert dag_detail(da.dag) != dag_detail(db.dag)

    def test_interned_dag_and_its_handlers_reject_mutation(self):
        inner = ConfigDAG.from_edges(
            [Action("cleanup")],
            (),
            [("cleanup", ConfigDAG.from_sequence([Action("give-up")]))],
        )
        dag = ConfigDAG.from_edges(
            [Action("a"), Action("b", on_error="handler")],
            [("a", "b")],
            [("b", inner)],
        )
        request = CreateRequest(
            hardware=HardwareSpec(), software=SoftwareSpec(dag=dag)
        )
        _, back = service_request_from_xml(service_request_to_xml(request))
        shared = back.dag
        nested = shared.handler_for("b")
        for target in (shared, nested, nested.handler_for("cleanup")):
            # Its views are copies: an edit of one stays there.
            views = target.actions, target.edges(), target.handlers
            first = next(iter(target))
            target.actions[first] = Action("late")
            target.edges().append((first, first))
            target.handlers[first] = ConfigDAG()
            assert (target.actions, target.edges(), target.handlers) == views
        assert_same_request(back, request)
        wire = service_request_to_xml(back)
        assert wire == oracle_service_request_to_xml(back)
        assert service_request_to_xml(request) == wire

    def test_one_action_object_for_200_distinct_dags(self, monkeypatch):
        parses = count_calls(monkeypatch, "_parse_action")
        decoded = []
        for i in range(200):
            request = chain_request(str(i), outputs=("ip",))
            _, back = service_request_from_xml(service_request_to_xml(request))
            assert_same_request(back, request)
            decoded.append(back.dag)
        assert len({id(dag) for dag in decoded}) == 200
        install = decoded[0].action("install")
        assert all(dag.action("install") is install for dag in decoded)
        assert len(parses) == 1 + 200  # the shared step once, 200 own steps

    def test_a_decoded_action_is_the_equal_one_built_in_code(self):
        request = chain_request("x", outputs=("ip",), retries=2)
        _, back = service_request_from_xml(service_request_to_xml(request))
        assert back.dag is not request.dag
        for name in request.dag:
            assert back.dag.action(name) is request.dag.action(name)
        element = ET.fromstring(
            '<action name="install" scope="guest" command="rpm -i base"'
            ' on-error="fail" retries="0" />'
        )
        shared = request.dag.action("install")
        assert dagxml.action_from_element(element) is shared
        # A one-neighbour adjacency is shared with the built DAG too.
        assert back.dag._succ["install"] is request.dag._succ["install"]

    def test_action_table_bounded_with_lru_eviction(self, monkeypatch):
        parses = count_calls(monkeypatch, "_parse_action")
        bound = dagxml.ACTION_INTERN_MAX
        assert bound <= 256
        elements = [
            ET.fromstring(f'<action name="a{i}"><output name="o" /></action>')
            for i in range(bound + 10)
        ]
        for element in elements[:bound]:
            dagxml.action_from_element(element)
        assert len(parses) == len(dagxml._interned_actions) == bound
        dagxml.action_from_element(elements[0])  # hit: now the most recent
        assert len(parses) == bound
        for element in elements[bound:]:
            dagxml.action_from_element(element)
        assert len(dagxml._interned_actions) == bound
        assert len(parses) == bound + 10
        dagxml.action_from_element(elements[0])  # survived: recently used
        assert len(parses) == bound + 10
        dagxml.action_from_element(elements[1])  # evicted: parsed afresh
        assert len(parses) == bound + 11

    @pytest.mark.parametrize(
        "one, other",
        [
            ('<action name="a" retries="1" />',
             '<action name="a" retries="2" />'),
            ('<action name="a"><output name="x" /></action>',
             '<action name="a"><output name="y" /></action>'),
            ('<action name="a"><param key="k" value="1" /></action>',
             '<action name="a"><param key="k" value="\'1\'" /></action>'),
            ('<action name="a"><output name="k" /></action>',
             '<action name="a"><param key="k" value="k" /></action>'),
        ],
    )
    def test_actions_differing_anywhere_stay_distinct(self, one, other):
        a = dagxml.action_from_element(ET.fromstring(one))
        b = dagxml.action_from_element(ET.fromstring(other))
        assert a is not b and a != b
        assert dagxml.action_from_element(ET.fromstring(one)) is a

    def test_failed_action_is_not_remembered(self):
        element = ET.fromstring(
            '<action name="a" retries="many"><param key="k" value="1" />'
            "</action>"
        )
        for _ in range(2):
            with pytest.raises(ProtocolError) as failure:
                dagxml.action_from_element(element)
            assert str(failure.value) == (
                "<action> attribute 'retries' must be an integer, got 'many'"
            )
        assert not dagxml._interned_actions

    def test_warehouse_shares_decoded_actions_with_the_wire(self):
        _, back = service_request_from_xml(
            service_request_to_xml(experiment_request(64))
        )
        image = golden_image(64)
        loaded = GoldenImage.from_element(oracle_image_to_element(image))
        assert loaded == image
        assert loaded.performed[0] is back.dag.action("install-os")

    def test_catalog_stream_parses_each_chain_step_once(self, monkeypatch):
        # The shape of the e2e ``site_catalog`` workload: 1,000 DAGs, no
        # two alike, each a prefix of a 12-step chain in 3 variants
        # (36 steps) plus a tail of its own.
        parses = count_calls(monkeypatch, "_parse_action")
        dags = count_top_level_decodes(monkeypatch)
        rng = random.Random(2004)
        for i in range(1000):
            steps = [
                Action(
                    f"install-pkg{k:02d}",
                    command=f"rpm -i pkg{k:02d}-{{ver}}.rpm",
                    params={"ver": rng.randrange(3)},
                )
                for k in range(rng.randint(1, 12))
            ]
            steps.append(Action(f"tail-{i:05d}", command=f"useradd u{i:05d}"))
            request = CreateRequest(
                hardware=HardwareSpec(memory_mb=64),
                software=SoftwareSpec(dag=ConfigDAG.from_sequence(steps)),
                client_id=f"catalog-{i}",
            )
            _, back = service_request_from_xml(service_request_to_xml(request))
            assert_same_request(back, request)
        assert len(dags) == 1000
        assert 1000 + 36 <= len(parses) <= 1040

    def test_failed_body_is_not_remembered(self):
        text = (
            '<vmplant-request service="create">'
            '<hardware memory-mb="32" disk-gb="4.0"/>'
            '<software><dag><action name="a"/><edge from="a" to="b"/>'
            "</dag></software></vmplant-request>"
        )
        for _ in range(2):
            with pytest.raises(ProtocolError, match="unknown action 'b'"):
                service_request_from_xml(text)
        assert not dagxml._interned_dags


# ---------------------------------------------------------------------------
# One body per configuration, and never a stale one
# ---------------------------------------------------------------------------


class TestSharedBody:
    def test_frozen_dag_refuses_the_same_mutation(self):
        # Growing a DAG builds another: the first request still sends
        # its own body, kept by DAG, and the grown one sends its own.
        dag = ConfigDAG.from_sequence([Action("a", command="first")])
        request = CreateRequest(
            hardware=HardwareSpec(memory_mb=64),
            software=SoftwareSpec(os="linux", dag=dag),
        )
        before = service_request_to_xml(request)
        grown = dataclasses.replace(
            request,
            software=SoftwareSpec(
                os="linux",
                dag=ConfigDAG.from_edges(
                    [*dag.actions.values(), Action("b", command="second")],
                    [("a", "b")],
                ),
            ),
        )
        after = service_request_to_xml(grown)
        assert after != before
        assert after == oracle_service_request_to_xml(grown)
        assert service_request_to_xml(request) == before
        assert dagxml._dag_wires[id(dag)] == (dag, dagxml.dag_to_xml(dag))
        assert dagxml.dag_to_xml(dag) in before

    def test_experiment_requests_share_one_frozen_dag(self):
        small, large = experiment_request(64), experiment_request(256)
        assert small.software.dag is large.software.dag
        assert small.dag is experiment_request(32, client_id="else").dag
        other = experiment_request(64, username="someone")
        assert other.dag is not small.dag
        assert other.dag is experiment_request(32, username="someone").dag


# ---------------------------------------------------------------------------
# Golden-image descriptors: elements straight in
# ---------------------------------------------------------------------------


class TestGoldenImageElement:
    def test_element_round_trip_and_tag_check(self):
        image = GoldenImage(
            image_id="img-007",
            vm_type="vmware",
            os="os-2",
            hardware=HardwareSpec(memory_mb=256),
            performed=tuple(
                Action(f"step-{i}", command=f"do {i}", params={"n": i})
                for i in range(7)
            ),
            memory_state_mb=7.0,
        )
        assert GoldenImage.from_xml(image.to_xml()) == image
        element = oracle_image_to_element(image)
        assert GoldenImage.from_element(element) == image
        with pytest.raises(ProtocolError, match="expected <golden-image>"):
            GoldenImage.from_element(ET.Element("warehouse"))

    @given(drawn_dag(), TEXT, TEXT, TEXT)
    @settings(max_examples=50, deadline=None)
    def test_drawn_images_same_bytes_as_the_element_builder(
        self, dag, image_id, os, isa
    ):
        image = GoldenImage(
            image_id=image_id,
            vm_type="vmware",
            os=os,
            hardware=HardwareSpec(isa=isa, memory_mb=64, disk_gb=0.5),
            performed=tuple(dag.actions.values()),
            memory_state_mb=7.25,
        )
        assert image.to_xml() == oracle_image_to_xml(image)


# ---------------------------------------------------------------------------
# The running guest-memory total
# ---------------------------------------------------------------------------


def bare_vm(vmid: str, mem: int) -> VirtualMachine:
    image = GoldenImage(
        image_id=f"img-{mem}", vm_type="vmware", os="os",
        hardware=HardwareSpec(memory_mb=mem),
    )
    request = CreateRequest(
        hardware=HardwareSpec(memory_mb=mem), software=SoftwareSpec(os="os")
    )
    return VirtualMachine(
        vmid=vmid, image=image, request=request, vm_type="vmware"
    )


MEMORY = st.sampled_from([32, 64, 256])


class MemoryAccounting(RuleBasedStateMachine):
    """Every way a VM enters or leaves an information system — plant
    create/destroy/kill, a host crash, migration, pool fill and pool
    adoption (rename), and the bare store/remove/rename calls — keeps
    the running total equal to the recomputed sum."""

    def __init__(self):
        super().__init__()
        self.bed = build_testbed(seed=12, n_plants=2)
        self.manager = MigrationManager(self.bed.env, link=self.bed.internode)
        self.pool = SpeculativeClonePool(
            self.bed.plants[0], experiment_request(32), target=2
        )
        self.bare = VMInformationSystem()
        self.seq = 0
        #: Steps since the last crash: crashes empty a plant, so too
        #: many of them leave the other rules nothing to work on.
        self.since_crash = 0

    def fresh_id(self, stem: str) -> str:
        self.seq += 1
        return f"{stem}-{self.seq}"

    def attempt(self, generator):
        try:
            return self.bed.run(generator)
        except ReproError:
            return None

    def resident(self, plant):
        """VMs a client owns (idle pooled clones belong to the pool)."""
        pooled = set(self.pool._pool)
        return [
            vm.vmid for vm in plant.infosys.active() if vm.vmid not in pooled
        ]

    # -- the plants ------------------------------------------------------
    @initialize()
    def populate(self):
        for plant in self.bed.plants:
            self.bed.run(
                plant.create(experiment_request(64), self.fresh_id("vm"))
            )
        self.bed.run(self.pool.fill())

    @rule(which=st.integers(0, 1), mem=MEMORY)
    def create(self, which, mem):
        plant = self.bed.plants[which]
        if not plant.down:
            self.attempt(
                plant.create(experiment_request(mem), self.fresh_id("vm"))
            )

    @rule(which=st.integers(0, 1), pick=st.integers(0, 99), kill=st.booleans())
    def destroy_or_kill(self, which, pick, kill):
        plant = self.bed.plants[which]
        vmids = self.resident(plant)
        if not vmids or plant.down:
            return
        vmid = vmids[pick % len(vmids)]
        if kill:
            plant.kill_vm(vmid)
        else:
            self.attempt(plant.destroy(vmid))

    @precondition(lambda self: self.since_crash >= 6)
    @rule(which=st.integers(0, 1))
    def crash_and_recover(self, which):
        self.since_crash = 0
        plant = self.bed.plants[which]
        before = len(plant.infosys)
        assert plant.fail() == before
        if which == 0:
            self.pool.invalidate()
        assert plant.infosys.guest_memory_mb == 0
        plant.recover()

    @rule(which=st.integers(0, 1), pick=st.integers(0, 99))
    def migrate(self, which, pick):
        source, target = self.bed.plants[which], self.bed.plants[1 - which]
        vmids = self.resident(source)
        if vmids and not source.down and not target.down:
            self.attempt(
                self.manager.migrate(source, target, vmids[pick % len(vmids)])
            )

    @rule()
    def pool_fill(self):
        if not self.bed.plants[0].down:
            self.attempt(self.pool.fill())

    @rule(mem=st.sampled_from([32, 64]))
    def pool_adopt(self, mem):
        """A hit renames the pooled clone to the shop's id; a 64 MB
        request misses and renames nothing."""
        if not self.bed.plants[0].down:
            self.attempt(
                self.pool.acquire(
                    experiment_request(mem), self.fresh_id("adopted")
                )
            )

    # -- a bare information system ----------------------------------------
    @rule(mem=MEMORY)
    def store(self, mem):
        self.bare.store(bare_vm(self.fresh_id("bare"), mem))

    @precondition(lambda self: len(self.bare))
    @rule(pick=st.integers(0, 99), rename=st.booleans())
    def remove_or_rename(self, pick, rename):
        vms = self.bare.active()
        vm = vms[pick % len(vms)]
        if rename:
            assert self.bare.rename(vm.vmid, self.fresh_id("renamed")) is vm
        else:
            assert self.bare.remove(vm.vmid) is vm

    @precondition(lambda self: len(self.bare))
    @rule()
    def refused_calls_change_nothing(self):
        first = self.bare.active()[0]
        total = self.bare.guest_memory_mb
        for call in (
            lambda: self.bare.store(bare_vm(first.vmid, 256)),
            lambda: self.bare.remove("ghost"),
            lambda: self.bare.rename("ghost", "other"),
            lambda: self.bare.rename(first.vmid, first.vmid),
        ):
            with pytest.raises(ReproError):
                call()
        assert self.bare.guest_memory_mb == total

    @invariant()
    def running_total_is_the_sum(self):
        systems = [plant.infosys for plant in self.bed.plants] + [self.bare]
        for infosys in systems:
            assert infosys.guest_memory_mb == sum(
                vm.memory_mb for vm in infosys.active()
            )
        for plant in self.bed.plants:
            assert plant.description_ad()["committed_mb"] == (
                plant.infosys.guest_memory_mb
            )
        self.since_crash += 1


TestMemoryAccounting = MemoryAccounting.TestCase
TestMemoryAccounting.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


# ---------------------------------------------------------------------------
# Perf-smoke guards: exact Python-call budgets
# ---------------------------------------------------------------------------


class TestCallBudgets:
    def test_memory_total_makes_no_per_vm_call(self):
        small, large = VMInformationSystem(), VMInformationSystem()
        small.store(bare_vm("only", 64))
        for i in range(500):
            large.store(bare_vm(f"vm-{i}", 64))
        assert large.guest_memory_mb == 500 * 64
        # An integer kept by store/remove: reading it is no call (the
        # one counted is the lambda's).
        cost = python_calls(lambda: large.guest_memory_mb)
        assert cost == python_calls(lambda: small.guest_memory_mb) == 1

    def test_repeated_body_decodes_within_budget(self):
        base = experiment_request(64)
        wires = [
            service_request_to_xml(
                dataclasses.replace(base, client_id=f"c{i}")
            )
            for i in range(50)
        ]
        service_request_from_xml(wires[0])  # first-seen: full strict parse
        first_seen = python_calls(
            lambda: service_request_from_xml(
                service_request_to_xml(experiment_request(256, os="other"))
            )
        )
        repeated = python_calls(
            lambda: [service_request_from_xml(w) for w in wires[1:]]
        ) / len(wires[1:])
        # 21 at the time of writing (envelope, three spec dataclasses and
        # their checks, the intern lookup); the two-pass decoder spent
        # ~190 on this body, a fresh DAG build alone ~100.
        assert repeated <= 30
        assert repeated < first_seen / 3

    def test_distinct_chain_decodes_within_budget(self):
        # What a catalog request costs to decode: a DAG never seen
        # before, cut from steps seen before plus one of its own.
        def request(tag: str) -> CreateRequest:
            steps = [
                Action(f"step-{k}", command=f"rpm -i {{p}}", params={"p": k})
                for k in range(7)
            ]
            steps.append(Action(f"tail-{tag}", command=f"useradd {tag}"))
            return CreateRequest(
                hardware=HardwareSpec(memory_mb=64),
                software=SoftwareSpec(
                    os="linux", dag=ConfigDAG.from_sequence(steps)
                ),
                requirements="other.active_vms < 8",
            )

        service_request_from_xml(service_request_to_xml(request("warm")))
        wire = service_request_to_xml(request("guard"), "estimate")
        calls = python_calls(lambda: service_request_from_xml(wire))
        assert len(dagxml._interned_dags) == 2  # decoded, not looked up
        # 42 at the time of writing (the lambda included); one mutator
        # call and one cache drop per action and edge, a comprehension
        # per action key and two ``_require`` per edge took 120.
        assert calls <= 45

    def test_shared_body_is_written_once_per_body(self, monkeypatch):
        writes = count_calls(monkeypatch, "_write_dag")
        per_encode = {}
        for n in (3, 30):
            dag = ConfigDAG.from_sequence(
                [
                    Action(
                        f"step-{i}", command="do {k}", params={"k": i},
                        outputs=("done",),
                    )
                    for i in range(n)
                ]
            )
            base = CreateRequest(
                hardware=HardwareSpec(memory_mb=64),
                software=SoftwareSpec(os="linux", dag=dag),
            )
            requests = [
                dataclasses.replace(base, client_id=f"client-{i}")
                for i in range(200)
            ]
            del writes[:]
            first = service_request_to_xml(requests[0])
            assert writes == [dag]

            def encode_the_rest():
                return [service_request_to_xml(r) for r in requests[1:]]

            # Less the window's own two frames (function, comprehension).
            per_encode[n] = (python_calls(encode_the_rest) - 2) / 199
            assert writes == [dag]
            assert service_request_to_xml(requests[7], "estimate") == (
                oracle_service_request_to_xml(requests[7], "estimate")
            )
            assert first == oracle_service_request_to_xml(requests[0])
            assert writes == [dag]
        # 3 at the time of writing: the service dispatch, the envelope,
        # the fragment look-up.  Through ElementTree these bodies took
        # 108 and 594 calls an encode, every time.
        assert per_encode[3] == per_encode[30] <= 6

    def test_unfrozen_body_encode_makes_no_call_per_action(self):
        # A DAG's first encode writes it in full.  ``Enum.value`` is a
        # descriptor, two Python calls a read on 3.11, and the writer
        # read it twice per action.
        def encode_calls(n: int) -> int:
            dag = ConfigDAG.from_sequence(
                [
                    Action(
                        f"step-{k}", scope=("guest", "host")[k % 2],
                        command=f"run {k}", on_error=("fail", "ignore")[k % 2],
                    )
                    for k in range(n)
                ]
            )
            request = CreateRequest(
                hardware=HardwareSpec(memory_mb=64),
                software=SoftwareSpec(os="linux", dag=dag),
            )
            calls = python_calls(lambda: service_request_to_xml(request))
            assert service_request_to_xml(request) == (
                oracle_service_request_to_xml(request)
            )
            return calls

        # 9 at the time of writing; 8 actions took 41 through ``.value``.
        assert encode_calls(8) == encode_calls(2) <= 12

    def test_a_dag_built_in_code_is_written_once(self, monkeypatch):
        writes = count_calls(monkeypatch, "_write_dag")
        dag = ConfigDAG.from_sequence(
            [Action("a", command="first"), Action("b", command="second")]
        )
        request = CreateRequest(
            hardware=HardwareSpec(memory_mb=64),
            software=SoftwareSpec(os="linux", dag=dag),
        )
        first = dagxml.request_to_xml(request)
        assert writes == [dag]
        assert dagxml.request_to_xml(request) == first
        assert writes == [dag]

    def test_wire_table_is_bounded(self):
        dagxml._dag_wires.clear()
        dags = [
            ConfigDAG.from_sequence([Action(f"step-{k}")]) for k in range(1000)
        ]
        for dag in dags:
            dagxml.dag_to_xml(dag)
        assert len(dagxml._dag_wires) <= dagxml.DAG_INTERN_MAX
        # The newest texts are the ones kept, each with its own DAG.
        assert [entry[0] for entry in dagxml._dag_wires.values()] == dags[
            -len(dagxml._dag_wires):
        ]

    def test_sequential_creates_within_budget(self):
        # What the e2e closed loop (``paper_seq``) pays per create, in
        # tier-1: 20 sequential creates on a seeded 8-plant site, the
        # request built inside the window, two creates to warm up.
        bed = build_testbed(seed=2004, n_plants=8)

        def create(tag: str) -> None:
            drive(
                bed.env,
                bed.shop.create(experiment_request(32, client_id=tag)),
            )

        for i in range(2):
            create(f"warm-{i}")
        calls = python_calls(lambda: [create(f"guard-{i}") for i in range(20)])
        # 6,352 at the time of writing (317.6 a create); the budget
        # leaves 6.6 % over it.  With every bid of a plant whose state
        # had not moved planned afresh it read 7,052 (the budget was
        # 7,520).  With each action's script rendered
        # only to size its ISO, a helper frame per transport hop, the
        # stdlib's frames per bid tie-break, an order built per bid and
        # a call per untraced trace point it read 8,658 (the budget was
        # 9,250).  With a ``Timeout`` built per sleep and
        # each jitter drawn through ``_jitter`` and the stdlib's
        # ``normalvariate`` it read 9,798; with every sub-call a
        # ``yield from``, so that a timer resumed each frame above its
        # waiter, 11,178; with the cost model reading load through
        # accessor calls and a generator per healthy bidder, 12,634;
        # with a back-timer per bid answer and ``Enum.value`` on the
        # create path, 14,190; with a private DAG built per request and
        # the body serialised through ElementTree on every create,
        # 17,230.
        assert calls <= 6_780
