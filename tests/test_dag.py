"""Unit tests for the configuration DAG."""

import random

import pytest

from repro.core.actions import Action
from repro.core.dag import FINISH, START, ConfigDAG
from repro.core.errors import DAGError

from tests.helpers import python_calls, traced_footprints


def chain(*names):
    return ConfigDAG.from_sequence(Action(n) for n in names)


def nested(depth):
    """a → b with ``depth`` levels of handler hanging off b."""
    dag = chain("a", "b")
    if depth:
        dag.attach_handler("b", nested(depth - 1))
    return dag


def diamond():
    """a → {b, c} → d."""
    dag = ConfigDAG()
    for n in "abcd":
        dag.add_action(Action(n))
    dag.add_edge("a", "b")
    dag.add_edge("a", "c")
    dag.add_edge("b", "d")
    dag.add_edge("c", "d")
    return dag


class TestConstruction:
    def test_duplicate_action_rejected(self):
        dag = ConfigDAG().add_action(Action("a"))
        with pytest.raises(DAGError):
            dag.add_action(Action("a"))

    def test_reserved_names_rejected(self):
        for name in (START, FINISH):
            with pytest.raises(DAGError):
                ConfigDAG().add_action(Action(name))

    def test_edge_to_unknown_node_rejected(self):
        dag = ConfigDAG().add_action(Action("a"))
        with pytest.raises(DAGError):
            dag.add_edge("a", "ghost")

    def test_self_edge_rejected(self):
        dag = ConfigDAG().add_action(Action("a"))
        with pytest.raises(DAGError):
            dag.add_edge("a", "a")

    def test_cycle_rejected_at_add_edge(self):
        dag = chain("a", "b", "c")
        with pytest.raises(DAGError, match="cycle"):
            dag.add_edge("c", "a")

    def test_duplicate_edge_idempotent(self):
        dag = chain("a", "b")
        dag.add_edge("a", "b")
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
    """``from_edges`` is ``add_action`` per action then ``add_edge``
    per edge, in order: same DAG, same first error."""

    @staticmethod
    def one_by_one(actions, edges):
        dag = ConfigDAG()
        for action in actions:
            dag.add_action(action)
        for before, after in edges:
            dag.add_edge(before, after)
        return dag

    @staticmethod
    def outcome(build, actions, edges):
        try:
            dag = build(actions, edges)
        except DAGError as exc:
            return "error", str(exc)
        # The Kahn sort that checked the graph is kept as its order.
        return "ok", (
            list(dag.actions.items()),
            dag.edges(),
            dag.topological_sort(),
            dag.ancestor_masks(),
            dag.structure(),
        )

    def test_random_parts_match_the_mutators(self):
        rng = random.Random(2604)
        names = ["a", "b", "c", "d", "e"]
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
            want = self.outcome(self.one_by_one, actions, edges)
            got = self.outcome(ConfigDAG.from_edges, actions, edges)
            assert got == want, (actions, edges)
            outcomes.add(want[1].split()[0] if want[0] == "error" else "ok")
        # duplicate / reserved / unknown / self-edge / cycle, and fine.
        assert {"ok", "duplicate", "'__start__'", "unknown", "self-edge",
                "edge"} <= outcomes

    def test_built_dag_stays_mutable(self):
        dag = ConfigDAG.from_edges([Action("a"), Action("b")], [("a", "b")])
        assert dag.topological_sort() == ["a", "b"]
        dag.add_action(Action("c")).add_edge("c", "a")
        assert dag.topological_sort() == ["c", "a", "b"]
        with pytest.raises(DAGError, match="cycle"):
            dag.add_edge("b", "c")


class TestOrder:
    def test_topological_sort_respects_edges(self):
        dag = diamond()
        order = dag.topological_sort()
        for u, v in dag.edges():
            assert order.index(u) < order.index(v)

    def test_topological_sort_lexicographic_ties(self):
        dag = ConfigDAG()
        for n in ("zeta", "alpha", "mid"):
            dag.add_action(Action(n))
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
        dag = ConfigDAG()
        dag.add_action(Action("h", scope="host"))
        dag.add_action(Action("g", scope="guest"))
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
        dag = diamond()
        handler = chain("fixup")
        dag.attach_handler("b", handler)
        sub = dag.subdag(["a", "b"])
        assert set(sub.actions) == {"a", "b"}
        assert sub.edges() == [("a", "b")]
        assert sub.handler_for("b") == handler


class TestHandlers:
    def test_attach_handler_to_unknown_action_rejected(self):
        dag = chain("a")
        with pytest.raises(DAGError):
            dag.attach_handler("ghost", chain("h"))

    def test_handler_validated_on_attach(self):
        dag = chain("a")
        handler = chain("h1", "h2")
        dag.attach_handler("a", handler)
        assert dag.handler_for("a") is handler
        assert dag.handler_for("ghost") is None if "ghost" in dag else True

    def test_validate_recurses_into_handlers(self):
        dag = chain("a")
        dag.attach_handler("a", chain("h"))
        dag.validate()  # must not raise


class TestEquality:
    def test_structural_equality_ignores_insertion_order(self):
        d1 = ConfigDAG()
        d1.add_action(Action("a")).add_action(Action("b"))
        d1.add_edge("a", "b")
        d2 = ConfigDAG()
        d2.add_action(Action("b")).add_action(Action("a"))
        d2.add_edge("a", "b")
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_content_difference_breaks_equality(self):
        d1 = ConfigDAG().add_action(Action("a", command="x"))
        d2 = ConfigDAG().add_action(Action("a", command="y"))
        assert d1 != d2

    def test_edge_difference_breaks_equality(self):
        assert chain("a", "b") != ConfigDAG().add_action(
            Action("a")
        ).add_action(Action("b"))

    def test_frozen_dag_compares_and_hashes_without_walking_handlers(self):
        plain, twin = nested(0).freeze(), nested(0).freeze()
        deep, deep_twin = nested(3).freeze(), nested(3).freeze()
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
        # Unfrozen, every read rebuilds the version vector of the tree.
        loose, loose_plain = nested(3), nested(0)
        assert hash(loose) == hash(deep) and hash(loose_plain) == hash(plain)
        assert python_calls(lambda: hash(loose)) > python_calls(
            lambda: hash(loose_plain)
        )

    def test_structure_cached_before_a_handler_edit_is_not_sealed_in(self):
        handler = chain("fix")
        dag = chain("a", "b").attach_handler("b", handler)
        stale = dag.structure()
        stale_hash = hash(dag)
        handler.add_action(Action("fix2"))  # dag's own version is unmoved
        dag.freeze()
        fresh = chain("a", "b").attach_handler("b", chain("fix"))
        fresh.handler_for("b").add_action(Action("fix2"))
        assert dag.structure() == fresh.structure() != stale
        assert dag == fresh and hash(dag) == hash(fresh) != stale_hash
        assert dag.structure() is dag.structure()


class TestFootprint:
    def test_a_chain_keeps_tuple_adjacency(self):
        # 1,155 B a 7-node chain over shared actions at the time of
        # writing (``tests.footprints``), pinned with 15 % headroom.  It
        # read 1,785 B with an instance dict and a 1-tuple of its own
        # per neighbour, and 2,377 B with a list per node and direction.
        assert traced_footprints()["chain_over_shared_steps"] <= 1_330
        steps = [Action(f"step-{k}", command=f"cmd {k}") for k in range(7)]
        keep = [ConfigDAG.from_sequence(steps) for _ in range(2)]
        # A one-neighbour adjacency is the name's shared 1-tuple.
        assert keep[0]._succ["step-0"] is keep[-1]._succ["step-0"]
        assert keep[0]._pred["step-1"] is keep[-1]._pred["step-1"]
        grown = diamond()  # built edge by edge
        assert grown.successors("a") == ["b", "c"]
        assert grown.predecessors("d") == ["b", "c"]
        for dag in (keep[0], grown):
            for adjacency in (dag._succ, dag._pred):
                assert all(type(v) is tuple for v in adjacency.values())

    def test_equal_steps_built_apart_are_stored_once(self):
        # The catalog's shape: every DAG cut from steps built afresh.
        # 1,155 B a 7-node chain at the time of writing, as over shared
        # steps; 3,220 B while each DAG kept its own copy of each step.
        assert traced_footprints()["chain_over_equal_steps"] <= 1_330
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
