"""Configuration DAGs (Section 3.1).

A :class:`ConfigDAG` represents the software-configuration portion of
a VM creation request: action nodes connected by directed edges that
establish a partial execution order.  The special START and FINISH
nodes are implicit — every source node is an immediate successor of
START, every sink node an immediate predecessor of FINISH.  START
denotes a *blank* machine; the warehouse's golden images correspond to
downward-closed ("prefix") subsets of a DAG's actions.

Each action node carries an implicit error node realized by its
:class:`~repro.core.actions.ErrorPolicy`; clients may additionally
give any action node an explicit error-handling sub-graph (itself a
``ConfigDAG``).

A DAG is a value, as the request that carries it is: it is built whole
by :meth:`ConfigDAG.from_edges` (which :meth:`ConfigDAG.from_sequence`,
:meth:`ConfigDAG.subdag` and the wire decoder all go through), checked
once there, and never changed, so one instance may stand in for every
request that carries the same body.

All iteration orders are deterministic (insertion order, with
lexicographic tie-breaking in the topological sort) so runs are
reproducible.

Matching performance
--------------------
Warehouse matching (Section 3.2) runs the Subset/Prefix/Partial Order
tests against every candidate image on every bid, so the structural
queries they need — the action-name set, per-node ancestor closures,
the topological order, ``structure()``, ``hash`` and the fingerprint —
are memoized here, each on first use and for good.  Node names are
interned into a name→bit table and closures are stored as int bitsets,
making each test a few machine-word AND/OR operations instead of
per-call dict copies and DFS walks.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.actions import (
    CANONICAL_ACTIONS_MAX,
    Action,
    ActionScope,
    _canonical_actions,
)
from repro.core.errors import DAGError

__all__ = ["ConfigDAG", "START", "FINISH"]

#: Reserved name of the implicit start node (blank machine).
START = "__start__"
#: Reserved name of the implicit finish node.
FINISH = "__finish__"

_RESERVED = frozenset({START, FINISH})


class ConfigDAG:
    """A directed acyclic graph of configuration actions.

    A value: :meth:`from_edges` builds it whole and nothing changes it
    afterwards.  ``ConfigDAG()`` is the empty DAG.
    """

    # Slots, not an instance dict: a catalog holds a thousand DAGs.
    __slots__ = (
        "_actions",
        "_succ",
        "_pred",
        "_handlers",
        "sealed_fingerprint",
        "_topo_cache",
        "_names_cache",
        "_bits_cache",
        "_anc_mask_cache",
        "_pred_mask_cache",
        "_sig_cache",
        "_structure_cache",
        "_hash_cache",
    )

    def __init__(self) -> None:
        self._actions: Dict[str, Action] = {}
        # Adjacency as tuples: a chain's node has one neighbour each
        # way, and a 1-tuple is about half a one-item list; a node with
        # none shares the empty tuple.
        self._succ: Dict[str, Tuple[str, ...]] = {}
        self._pred: Dict[str, Tuple[str, ...]] = {}
        self._handlers: Dict[str, "ConfigDAG"] = {}
        #: :meth:`fingerprint`, kept from its first call on.  A memo
        #: that finds it set keys on it without calling
        #: :meth:`fingerprint`; ``None`` until first fingerprinted.
        self.sealed_fingerprint: Optional[str] = None
        self._topo_cache: Optional[Tuple[str, ...]] = None
        self._names_cache: Optional[FrozenSet[str]] = None
        self._bits_cache: Optional[Dict[str, int]] = None
        self._anc_mask_cache: Optional[Dict[str, int]] = None
        self._pred_mask_cache: Optional[Dict[str, int]] = None
        self._sig_cache: Optional[Dict[str, str]] = None
        self._structure_cache: Optional[Tuple] = None
        self._hash_cache: Optional[int] = None

    # -- construction ----------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        actions: Sequence[Action],
        edges: Sequence[Tuple[str, str]],
        handlers: Iterable[Tuple[str, "ConfigDAG"]] = (),
    ) -> "ConfigDAG":
        """Build a DAG from its parts: the actions, then the edges, then
        the ``(action name, handler DAG)`` pairs, each in order.

        Names must be unique and not reserved; an edge ``(before,
        after)`` joins two distinct actions and must not close a cycle;
        a repeated edge counts once; a handler names an action, and a
        later handler for the same action replaces an earlier one.
        The checks run once over the whole graph (one Kahn sort, whose
        order is kept as the topological-order cache); only when one
        fails does :func:`_first_fault` walk the parts one by one, so
        the :class:`DAGError` names the first offending action or edge.
        Handler targets are checked as ``handlers`` is consumed, after
        the actions and edges.

        Each action is stored as its canonical instance, keyed by that
        instance's name, and a node's one-neighbour adjacency is the
        name's shared 1-tuple: DAGs cut from the same steps share them.
        """
        dag = cls()
        names, succ, pred = dag._actions, dag._succ, dag._pred
        table = _canonical_actions
        alone: Dict[str, Tuple[str]] = {}
        for action in actions:
            # The canonical-action lookup (``repro.core.actions``).
            key = (
                action.name,
                action.scope._value_,
                action.command,
                action.params,
                action.outputs,
                action.on_error._value_,
                action.retries,
            )
            entry = table.pop(key, None)
            if entry is None:
                entry = (action, (action.name,))
                if len(table) >= CANONICAL_ACTIONS_MAX:
                    del table[next(iter(table))]
            table[key] = entry
            action, one = entry
            name = action.name
            if name in names or name in _RESERVED:
                _first_fault(actions, edges)
            names[name] = action
            succ[name] = ()
            pred[name] = ()
            alone[name] = one
        for before, after in edges:
            out = succ.get(before)
            if out is None or after not in names or before == after:
                _first_fault(actions, edges)
            if after not in out:  # a repeated edge counts once
                succ[before] = out + (after,) if out else alone[after]
                into = pred[after]
                pred[after] = into + (before,) if into else alone[before]
        try:
            dag._topo()
        except DAGError:
            _first_fault(actions, edges)
        for target, handler in handlers:
            if target not in names:
                raise DAGError(f"unknown action {target!r}")
            dag._handlers[target] = handler
        return dag

    @classmethod
    def from_sequence(cls, actions: Iterable[Action]) -> "ConfigDAG":
        """Build a totally ordered (chain) DAG — the common case."""
        actions = list(actions)
        names = [action.name for action in actions]
        return cls.from_edges(actions, list(zip(names, names[1:])))

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._actions)

    def __contains__(self, name: str) -> bool:
        return name in self._actions

    def __iter__(self) -> Iterator[str]:
        return iter(self._actions)

    @property
    def actions(self) -> Mapping[str, Action]:
        """Read-only view of name → action."""
        return dict(self._actions)

    @property
    def handlers(self) -> Mapping[str, "ConfigDAG"]:
        """Explicit error-handling sub-graphs, keyed by action name."""
        return dict(self._handlers)

    def action(self, name: str) -> Action:
        """Look up an action by name."""
        try:
            return self._actions[name]
        except KeyError:
            raise DAGError(f"unknown action {name!r}") from None

    def handler_for(self, name: str) -> Optional["ConfigDAG"]:
        """The explicit error handler for ``name``, if any."""
        return self._handlers.get(name)

    def edges(self) -> List[Tuple[str, str]]:
        """All edges in insertion order."""
        return [
            (u, v) for u in self._actions for v in self._succ[u]
        ]

    def successors(self, name: str) -> List[str]:
        """Immediate successors of ``name``."""
        self.action(name)
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        """Immediate predecessors of ``name``."""
        self.action(name)
        return list(self._pred[name])

    def sources(self) -> List[str]:
        """Actions with no predecessors (successors of START)."""
        return [n for n in self._actions if not self._pred[n]]

    def sinks(self) -> List[str]:
        """Actions with no successors (predecessors of FINISH)."""
        return [n for n in self._actions if not self._succ[n]]

    def ancestors(self, name: str) -> Set[str]:
        """All actions ordered strictly before ``name``."""
        self.action(name)
        seen: Set[str] = set()
        stack = list(self._pred[name])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self._pred[node])
        return seen

    def descendants(self, name: str) -> Set[str]:
        """All actions ordered strictly after ``name``."""
        self.action(name)
        seen: Set[str] = set()
        stack = list(self._succ[name])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self._succ[node])
        return seen

    def is_before(self, first: str, second: str) -> bool:
        """True iff the DAG orders ``first`` strictly before ``second``."""
        return second in self.descendants(first)

    # -- structural caches (matching hot path) ---------------------------------
    def action_name_set(self) -> FrozenSet[str]:
        """Memoized frozen set of action names (Subset Test)."""
        cached = self._names_cache
        if cached is None:
            cached = self._names_cache = frozenset(self._actions)
        return cached

    def name_bits(self) -> Mapping[str, int]:
        """Memoized name→bit interning table (insertion order)."""
        cached = self._bits_cache
        if cached is None:
            cached = self._bits_cache = {
                name: bit for bit, name in enumerate(self._actions)
            }
        return cached

    def predecessor_masks(self) -> Mapping[str, int]:
        """Memoized name→bitset of immediate predecessors."""
        cached = self._pred_mask_cache
        if cached is None:
            bits = self.name_bits()
            # Plain loops: a generator per action is a call per
            # predecessor on a first-seen DAG's decode.
            cached = self._pred_mask_cache = {}
            for name, preds in self._pred.items():
                mask = 0
                for pred in preds:
                    mask |= 1 << bits[pred]
                cached[name] = mask
        return cached

    def ancestor_masks(self) -> Mapping[str, int]:
        """Memoized name→bitset of the full ancestor closure.

        Computed in one topological pass (closure[n] = OR over
        immediate predecessors p of closure[p] | bit[p]) instead of a
        per-query DFS — this is what makes the Partial Order Test
        cheap on the warehouse matching path.
        """
        cached = self._anc_mask_cache
        if cached is None:
            bits = self.name_bits()
            masks: Dict[str, int] = {}
            for name in self._topo():
                mask = 0
                for pred in self._pred[name]:
                    mask |= masks[pred] | (1 << bits[pred])
                masks[name] = mask
            cached = self._anc_mask_cache = masks
        return cached

    def signature_map(self) -> Mapping[str, str]:
        """Memoized name→signature map (signature-conflict test)."""
        cached = self._sig_cache
        if cached is None:
            cached = self._sig_cache = {
                name: action.signature
                for name, action in self._actions.items()
            }
        return cached

    def fingerprint(self) -> str:
        """Stable content digest of :meth:`structure` (memo keys).

        Two DAGs have equal fingerprints iff they compare ``==``, i.e.
        iff their :meth:`structure` is equal — *matching* identity,
        not wire identity: ``outputs``, ``on_error`` and ``retries``
        are left out, so a fingerprint must never key a cache of
        decoded wire bodies.  The digest is a compact string so
        request-level memo tables avoid re-hashing deep structure
        tuples on every lookup.
        """
        digest = self.sealed_fingerprint
        if digest is None:
            import hashlib

            digest = self.sealed_fingerprint = hashlib.sha256(
                repr(self.structure()).encode("utf-8")
            ).hexdigest()
        return digest

    # -- order ---------------------------------------------------------------
    def _topo(self) -> Tuple[str, ...]:
        """Memoized deterministic topological order."""
        cached = self._topo_cache
        if cached is not None:
            return cached
        # Loops, not comprehensions: this runs once per decoded body.
        pred = self._pred
        indeg: Dict[str, int] = {}
        ready: List[str] = []
        for name in self._actions:
            count = indeg[name] = len(pred[name])
            if not count:
                ready.append(name)
        ready.sort()  # a sorted list is a heap
        order: List[str] = []
        while ready:
            node = heappop(ready)
            order.append(node)
            for nxt in self._succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heappush(ready, nxt)
        if len(order) != len(self._actions):
            raise DAGError("cycle detected")
        cached = self._topo_cache = tuple(order)
        return cached

    def topological_sort(self) -> List[str]:
        """Deterministic topological order (Kahn, lexicographic ties).

        This is the order in which the PPP schedules residual actions
        after cloning (Figure 3, step 3).
        """
        return list(self._topo())

    # -- prefix machinery (matching support) ----------------------------------
    def is_prefix_set(self, names: Iterable[str]) -> bool:
        """True iff ``names`` is a downward-closed subset of this DAG.

        A golden image whose performed operations form such a set can
        serve as the cloning base (Prefix Test, Section 3.2).
        """
        bits = self.name_bits()
        mask = 0
        chosen: List[str] = []
        for name in names:
            bit = bits.get(name)
            if bit is None:
                return False
            bit = 1 << bit
            if not mask & bit:
                mask |= bit
                chosen.append(name)
        pred_masks = self.predecessor_masks()
        for name in chosen:
            if pred_masks[name] & ~mask:
                return False
        return True

    def residual_after(self, performed: Iterable[str]) -> List[str]:
        """Topologically ordered actions still to run after ``performed``.

        ``performed`` must be a prefix set; these are the actions the
        PPP executes on the clone (Figure 3, step 5).
        """
        done = set(performed)
        if not self.is_prefix_set(done):
            raise DAGError("performed set is not a prefix of this DAG")
        return [n for n in self._topo() if n not in done]

    def subdag(self, names: Iterable[str]) -> "ConfigDAG":
        """Induced sub-DAG over ``names`` (handlers carried along)."""
        chosen = set(names)
        return ConfigDAG.from_edges(
            [a for name, a in self._actions.items() if name in chosen],
            [(u, v) for u, v in self.edges() if u in chosen and v in chosen],
            [(n, h) for n, h in self._handlers.items() if n in chosen],
        )

    # -- structural equality --------------------------------------------------
    def structure(self) -> Tuple:
        """Canonical hashable structure (for equality and hashing).

        Covers what warehouse matching identifies an operation by:
        action names, scopes, commands and params (the action
        signatures), the edges, and the handlers' structures.  An
        action's ``outputs``, ``on_error`` and ``retries`` are *not*
        part of it.
        """
        cached = self._structure_cache
        if cached is None:
            # Sorted lists, not generators: a generator is a call per
            # item.
            cached = self._structure_cache = (
                tuple(sorted([a.signature for a in self._actions.values()])),
                tuple(sorted(self.edges())),
                tuple(
                    sorted(
                        [
                            (name, handler.structure())
                            for name, handler in self._handlers.items()
                        ]
                    )
                ),
            )
        return cached

    def __eq__(self, other: object) -> bool:
        """Equal iff same names, scopes, commands, params, edges and
        handlers (see :meth:`structure`); outputs, error policies and
        retry budgets are not compared."""
        if not isinstance(other, ConfigDAG):
            return NotImplemented
        return self.structure() == other.structure()

    def __hash__(self) -> int:
        cached = self._hash_cache
        if cached is None:
            cached = self._hash_cache = hash(self.structure())
        return cached

    # -- convenience -----------------------------------------------------------
    def guest_actions(self) -> List[str]:
        """Names of guest-scoped actions in topological order."""
        return [
            n
            for n in self.topological_sort()
            if self._actions[n].scope is ActionScope.GUEST
        ]

    def host_actions(self) -> List[str]:
        """Names of host-scoped actions in topological order."""
        return [
            n
            for n in self.topological_sort()
            if self._actions[n].scope is ActionScope.HOST
        ]


def _first_fault(
    actions: Sequence[Action], edges: Sequence[Tuple[str, str]]
) -> None:
    """Raise the :class:`DAGError` of the first bad part, adding the
    actions and then the edges one at a time (a bad
    :meth:`ConfigDAG.from_edges` input)."""
    succ: Dict[str, List[str]] = {}
    for action in actions:
        if action.name in _RESERVED:
            raise DAGError(f"{action.name!r} is a reserved node name")
        if action.name in succ:
            raise DAGError(f"duplicate action {action.name!r}")
        succ[action.name] = []
    for before, after in edges:
        for node in (before, after):
            if node not in succ:
                raise DAGError(f"unknown action {node!r}")
        if before == after:
            raise DAGError(f"self-edge on {before!r}")
        if after in succ[before]:
            continue
        stack, seen = [after], set()
        while stack:  # is ``before`` already reachable from ``after``?
            node = stack.pop()
            if node == before:
                raise DAGError(
                    f"edge {before!r}->{after!r} would create a cycle"
                )
            if node not in seen:
                seen.add(node)
                stack.extend(succ[node])
        succ[before].append(after)
    raise AssertionError("no part of this DAG is at fault")
