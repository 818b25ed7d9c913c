"""Unit tests for the configuration DAG."""

import random

import pytest

from repro.core.actions import Action
from repro.core.dag import FINISH, START, ConfigDAG
from repro.core.errors import DAGError

from tests.helpers import python_call_counts, python_calls, traced_footprints
from tests.oracles.dag_build import IncrementalDAG


def chain(*names):
    return ConfigDAG.from_sequence(Action(n) for n in names)


def nested(depth):
    """a → b with ``depth`` levels of handler hanging off b."""
    handlers = [("b", nested(depth - 1))] if depth else ()
    return build("ab", [("a", "b")], handlers)


def build(names, edges=(), handlers=()):
    return ConfigDAG.from_edges([Action(n) for n in names], edges, handlers)


def diamond():
    """a → {b, c} → d."""
    return build("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestConstruction:
    def test_duplicate_action_rejected(self):
        with pytest.raises(DAGError, match="duplicate action 'a'"):
            build("aa")

    def test_reserved_names_rejected(self):
        for name in (START, FINISH):
            with pytest.raises(DAGError, match="reserved"):
                build([name])

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(DAGError, match="unknown action 'ghost'"):
            build("a", [("a", "ghost")])

    def test_self_edge_rejected(self):
        with pytest.raises(DAGError, match="self-edge"):
            build("a", [("a", "a")])

    def test_cycle_rejected_at_add_edge(self):
        with pytest.raises(DAGError, match="'c'->'a' would create a cycle"):
            build("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicate_edge_idempotent(self):
        dag = build("ab", [("a", "b"), ("a", "b")])
        assert dag.edges() == [("a", "b")]

    def test_from_sequence_builds_chain(self):
        dag = chain("x", "y", "z")
        assert dag.edges() == [("x", "y"), ("y", "z")]

    def test_len_contains_iter(self):
        dag = chain("a", "b")
        assert len(dag) == 2
        assert "a" in dag and "ghost" not in dag
        assert list(dag) == ["a", "b"]

    def test_action_lookup_unknown_raises(self):
        with pytest.raises(DAGError):
            ConfigDAG().action("missing")


class TestFromEdges:
    """``from_edges`` is adding each action, then each edge, then each
    handler, in order, one checked call a part (the incremental
    reference in ``tests.oracles.dag_build``): same DAG, same first
    error."""

    @staticmethod
    def one_by_one(actions, edges, handlers):
        dag = IncrementalDAG()
        for action in actions:
            dag.add_action(action)
        for before, after in edges:
            dag.add_edge(before, after)
        for target, handler in handlers:
            dag.attach_handler(target, handler)
        return "ok", (
            list(dag.actions.items()),
            dag.edges(),
            dag.topological_sort(),
            {name: dag.ancestors(name) for name in dag.actions},
            dag.structure(),
        )

    @staticmethod
    def built(actions, edges, handlers):
        dag = ConfigDAG.from_edges(actions, edges, handlers)
        # The Kahn sort that checked the graph is kept as its order.
        bits = dag.name_bits()
        return "ok", (
            list(dag.actions.items()),
            dag.edges(),
            dag.topological_sort(),
            {
                name: {n for n, bit in bits.items() if mask >> bit & 1}
                for name, mask in dag.ancestor_masks().items()
            },
            dag.structure(),
        )

    @staticmethod
    def outcome(build, *parts):
        try:
            return build(*parts)
        except DAGError as exc:
            return "error", str(exc)

    def test_random_parts_match_the_mutators(self):
        rng = random.Random(2604)
        names = ["a", "b", "c", "d", "e"]
        fix = chain("fix")
        outcomes = set()
        for _ in range(800):
            chosen = rng.sample(names, rng.randrange(0, 6))
            if rng.random() < 0.2:  # a duplicate or a reserved name
                chosen.insert(
                    rng.randrange(len(chosen) + 1),
                    rng.choice(names[:len(chosen)] + [START]),
                )
            actions = [Action(name) for name in chosen]
            ends = names + ["ghost"] * (rng.random() < 0.2)
            edges = [
                (rng.choice(ends), rng.choice(ends))
                for _ in range(rng.randrange(0, 8))
            ]
            handlers = [
                (rng.choice(names + ["ghost"]), fix)
                for _ in range(rng.choice([0, 0, 1, 2]))
            ]
            want = self.outcome(self.one_by_one, actions, edges, handlers)
            got = self.outcome(self.built, actions, edges, handlers)
            assert got == want, (actions, edges, handlers)
            outcomes.add(want[1].split()[0] if want[0] == "error" else "ok")
        # duplicate / reserved / unknown / self-edge / cycle, and fine.
        assert {"ok", "duplicate", "'__start__'", "unknown", "self-edge",
                "edge"} <= outcomes

    def test_handlers_are_checked_after_the_graph_as_they_come(self):
        seen = []

        def handlers():
            seen.append("first")
            yield "ghost", chain("fix")
            seen.append("second")  # pragma: no cover - not reached
            yield "a", chain("fix")

        with pytest.raises(DAGError, match="unknown action 'a'"):
            ConfigDAG.from_edges([Action("b")], [("b", "a")], handlers())
        assert seen == []  # the bad edge is met before any handler
        with pytest.raises(DAGError, match="unknown action 'ghost'"):
            ConfigDAG.from_edges([Action("a")], (), handlers())
        assert seen == ["first"]
        later = build("a", (), [("a", chain("x")), ("a", chain("y"))])
        assert later.handler_for("a") == chain("y")


class TestOrder:
    def test_topological_sort_respects_edges(self):
        dag = diamond()
        order = dag.topological_sort()
        for u, v in dag.edges():
            assert order.index(u) < order.index(v)

    def test_topological_sort_lexicographic_ties(self):
        dag = build(["zeta", "alpha", "mid"])
        assert dag.topological_sort() == ["alpha", "mid", "zeta"]

    def test_ancestors_descendants(self):
        dag = diamond()
        assert dag.ancestors("d") == {"a", "b", "c"}
        assert dag.descendants("a") == {"b", "c", "d"}
        assert dag.ancestors("a") == set()

    def test_is_before(self):
        dag = diamond()
        assert dag.is_before("a", "d")
        assert not dag.is_before("b", "c")
        assert not dag.is_before("d", "a")

    def test_sources_sinks(self):
        dag = diamond()
        assert dag.sources() == ["a"]
        assert dag.sinks() == ["d"]

    def test_guest_host_partition(self):
        dag = ConfigDAG.from_edges(
            [Action("h", scope="host"), Action("g", scope="guest")], ()
        )
        assert dag.host_actions() == ["h"]
        assert dag.guest_actions() == ["g"]


class TestPrefixMachinery:
    def test_prefix_set_detection(self):
        dag = diamond()
        assert dag.is_prefix_set([])
        assert dag.is_prefix_set(["a"])
        assert dag.is_prefix_set(["a", "b"])
        assert dag.is_prefix_set(["a", "b", "c"])
        assert not dag.is_prefix_set(["b"])  # missing prerequisite
        assert not dag.is_prefix_set(["a", "d"])
        assert not dag.is_prefix_set(["a", "ghost"])

    def test_residual_after_orders_topologically(self):
        dag = diamond()
        assert dag.residual_after(["a"]) == ["b", "c", "d"]
        assert dag.residual_after(["a", "c"]) == ["b", "d"]
        assert dag.residual_after(["a", "b", "c", "d"]) == []

    def test_residual_after_non_prefix_raises(self):
        with pytest.raises(DAGError):
            diamond().residual_after(["b"])

    def test_subdag_induces_edges_and_handlers(self):
        handler = chain("fixup")
        dag = build("abcd", diamond().edges(), [("b", handler)])
        sub = dag.subdag(["a", "b"])
        assert set(sub.actions) == {"a", "b"}
        assert sub.edges() == [("a", "b")]
        assert sub.handler_for("b") == handler


class TestHandlers:
    def test_attach_handler_to_unknown_action_rejected(self):
        with pytest.raises(DAGError, match="unknown action 'ghost'"):
            build("a", (), [("ghost", chain("h"))])

    def test_handler_validated_on_attach(self):
        handler = chain("h1", "h2")
        dag = build("a", (), [("a", handler)])
        assert dag.handler_for("a") is handler
        assert dag.handler_for("ghost") is None
        assert dag.handlers == {"a": handler}

    def test_validate_recurses_into_handlers(self):
        # A handler is a DAG built whole, so a fault inside one fails
        # where it is built: in code, or by the decoder at any depth.
        from repro.core.dagxml import dag_from_xml
        from repro.core.errors import ProtocolError

        with pytest.raises(ProtocolError, match="self-edge on 'h'"):
            dag_from_xml(
                '<dag><action name="a"/><handler for="a"><dag>'
                '<action name="h"/><handler for="h"><dag>'
                '<action name="h"/><edge from="h" to="h"/>'
                "</dag></handler></dag></handler></dag>"
            )


class TestEquality:
    def test_structural_equality_ignores_insertion_order(self):
        d1 = build("ab", [("a", "b")])
        d2 = build("ba", [("a", "b")])
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_content_difference_breaks_equality(self):
        d1 = ConfigDAG.from_edges([Action("a", command="x")], ())
        d2 = ConfigDAG.from_edges([Action("a", command="y")], ())
        assert d1 != d2

    def test_edge_difference_breaks_equality(self):
        assert chain("a", "b") != build("ab")

    def test_frozen_dag_compares_and_hashes_without_walking_handlers(self):
        plain, twin = nested(0), nested(0)
        deep, deep_twin = nested(3), nested(3)
        values = hash(deep), hash(plain), deep == deep_twin, plain == twin
        assert values == (hash(deep_twin), hash(twin), True, True)
        assert deep != plain and hash(deep) == hash(nested(3))
        # Warm from the reads above: the handler tree costs nothing.
        assert python_calls(lambda: hash(deep)) == python_calls(
            lambda: hash(plain)
        )
        assert python_calls(lambda: deep == deep_twin) == python_calls(
            lambda: plain == twin
        )
        assert deep.structure() is deep.structure()


class TestFootprint:
    def test_a_chain_keeps_tuple_adjacency(self):
        # 1,123 B a 7-node chain over shared actions at the time of
        # writing (``tests.footprints``), pinned with 2 % headroom.  It
        # read 1,155 B with a mutation version and seal slots, 1,785 B
        # with an instance dict and a 1-tuple of its own per neighbour,
        # and 2,377 B with a list per node and direction.
        assert traced_footprints()["chain_over_shared_steps"] <= 1_145
        steps = [Action(f"step-{k}", command=f"cmd {k}") for k in range(7)]
        keep = [ConfigDAG.from_sequence(steps) for _ in range(2)]
        # A one-neighbour adjacency is the name's shared 1-tuple.
        assert keep[0]._succ["step-0"] is keep[-1]._succ["step-0"]
        assert keep[0]._pred["step-1"] is keep[-1]._pred["step-1"]
        grown = diamond()  # two neighbours a node
        assert grown.successors("a") == ["b", "c"]
        assert grown.predecessors("d") == ["b", "c"]
        for dag in (keep[0], grown):
            for adjacency in (dag._succ, dag._pred):
                assert all(type(v) is tuple for v in adjacency.values())

    def test_equal_steps_built_apart_are_stored_once(self):
        # The catalog's shape: every DAG cut from steps built afresh.
        # 1,122 B a 7-node chain at the time of writing, as over shared
        # steps; 3,220 B while each DAG kept its own copy of each step.
        assert traced_footprints()["chain_over_equal_steps"] <= 1_145
        keep = []
        for _ in range(2):
            steps = [Action(f"step-{k}", command=f"cmd {k}") for k in range(7)]
            keep.append(ConfigDAG.from_sequence(steps))
        first, last = keep[0], keep[-1]
        assert all(first.action(n) is last.action(n) for n in first)
        # Stored under the canonical instance's own name string.
        assert all(
            name is action.name for name, action in last._actions.items()
        )


def test_request_records_have_no_instance_dict():
    """What each create builds and keeps is ``__slots__``-only: a
    catalog holds one request, DAG, VM and bid set per create."""
    from repro.core.spec import (
        CreateRequest,
        HardwareSpec,
        NetworkSpec,
        SoftwareSpec,
    )
    from repro.plant.ppp import ProductionOrder
    from repro.plant.production import VirtualMachine
    from repro.shop.bidding import Bid
    from repro.vnet.hostonly import NetworkAssignment

    for cls in (ConfigDAG, HardwareSpec, NetworkSpec, SoftwareSpec,
                CreateRequest, VirtualMachine, ProductionOrder,
                NetworkAssignment, Bid):
        assert hasattr(cls, "__slots__"), f"{cls.__name__} lost __slots__"
        # A NamedTuple record is a tuple: built the way tuples are.
        new = tuple.__new__ if issubclass(cls, tuple) else object.__new__
        instance = new(cls)
        assert not hasattr(instance, "__dict__"), cls.__name__


def test_a_software_spec_is_built_by_its_init_alone():
    """A DAG is checked where it is built, so the record carrying it
    checks nothing more: one Python call, the dataclass ``__init__``."""
    from repro.core.spec import SoftwareSpec

    dag = chain("a", "b")
    counts = python_call_counts(lambda: SoftwareSpec(os="linux", dag=dag))
    calls = sorted(
        (name.rsplit(".", 1)[-1], n) for name, n in counts.items()
    )
    assert calls == [("<lambda>", 1), ("__init__", 1)]
