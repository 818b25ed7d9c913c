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
attach an explicit error-handling sub-graph (itself a ``ConfigDAG``)
to any action node.

All iteration orders are deterministic (insertion order, with
lexicographic tie-breaking in the topological sort) so runs are
reproducible.

Matching performance
--------------------
Warehouse matching (Section 3.2) runs the Subset/Prefix/Partial Order
tests against every candidate image on every bid, so the structural
queries they need — the action-name set, per-node ancestor closures,
the topological order, ``structure()`` — are memoized here.  Node
names are interned into a name→bit table and closures are stored as
int bitsets, making each test a few machine-word AND/OR operations
instead of per-call dict copies and DFS walks.  Every cache is
invalidated by the mutators (:meth:`ConfigDAG.add_action`,
:meth:`ConfigDAG.add_edge`, :meth:`ConfigDAG.attach_handler`), so a
DAG that is still being built behaves exactly like an uncached one.
A DAG shared between requests (the wire decoder interns equal
``<dag>`` bodies) is sealed with :meth:`ConfigDAG.freeze`: the
mutators then raise, so its caches stay warm and valid for good, and
:meth:`ConfigDAG.fingerprint`, :meth:`ConfigDAG.validate`,
:meth:`ConfigDAG.structure`, ``==`` and ``hash`` answer from a stored
result without walking the handler tree.
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

from repro.core.actions import Action, ActionScope
from repro.core.errors import DAGError

__all__ = ["ConfigDAG", "START", "FINISH"]

#: Reserved name of the implicit start node (blank machine).
START = "__start__"
#: Reserved name of the implicit finish node.
FINISH = "__finish__"

_RESERVED = frozenset({START, FINISH})

_FROZEN = (
    "DAG is frozen (shared between decoded requests);"
    " build a new one instead of mutating it"
)


class ConfigDAG:
    """A directed acyclic graph of configuration actions."""

    def __init__(self) -> None:
        self._actions: Dict[str, Action] = {}
        # Adjacency as tuples, replaced on every edge: a chain's node has
        # one neighbour each way, and a 1-tuple is about half a one-item
        # list; a node with none shares the empty tuple.
        self._succ: Dict[str, Tuple[str, ...]] = {}
        self._pred: Dict[str, Tuple[str, ...]] = {}
        self._handlers: Dict[str, "ConfigDAG"] = {}
        #: Set by :meth:`freeze`; the mutators refuse a frozen DAG.
        self._frozen = False
        #: :meth:`fingerprint` of a frozen DAG, kept for good (neither
        #: this DAG nor its handler tree can change any more, so no
        #: version token is needed).  A frozen DAG is also valid for
        #: good — :meth:`freeze` validates — so a memo that finds this
        #: set may key on it without calling :meth:`validate` or
        #: :meth:`fingerprint`; ``None`` until first fingerprinted.
        self.sealed_fingerprint: Optional[str] = None
        #: The ``<dag>`` wire fragment of a frozen DAG, kept for the
        #: same reason and written by :mod:`repro.core.dagxml` the first
        #: time a request carrying this DAG is encoded; ``None`` until
        #: then, and always ``None`` on a DAG that can still change.
        self.sealed_wire: Optional[str] = None
        #: Bumped on every mutation; guards every structural cache.
        self._version = 0
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop all memoized structure (called by every mutator)."""
        self._version += 1
        self._topo_cache: Optional[Tuple[str, ...]] = None
        self._names_cache: Optional[FrozenSet[str]] = None
        self._bits_cache: Optional[Dict[str, int]] = None
        self._anc_mask_cache: Optional[Dict[str, int]] = None
        self._pred_mask_cache: Optional[Dict[str, int]] = None
        self._sig_cache: Optional[Dict[str, str]] = None
        self._structure_cache: Optional[Tuple[Optional[Tuple], Tuple]] = None
        self._hash_cache: Optional[int] = None
        self._fingerprint_cache: Optional[Tuple[Tuple, str]] = None

    def _state_token(self) -> Tuple:
        """Version vector covering this DAG and its handler tree.

        ``structure()`` (and everything derived from it) depends on
        attached handlers, which remain externally mutable after
        :meth:`attach_handler`; the token lets those caches detect
        handler mutations at any nesting depth.
        """
        if not self._handlers:  # the common case, asked once per bid
            return (self._version, ())
        return (
            self._version,
            tuple(
                (name, handler._state_token())
                for name, handler in self._handlers.items()
            ),
        )

    # -- construction ----------------------------------------------------
    def freeze(self) -> "ConfigDAG":
        """Seal this DAG and its whole handler tree against mutation.

        One frozen instance may then stand in for every request that
        carries the same body: :meth:`add_action`, :meth:`add_edge`
        and :meth:`attach_handler` raise :class:`DAGError` from now on.
        Derive a changed DAG with :meth:`subdag` or build a new one.
        The DAG is validated first: frozen implies valid from then on.
        """
        self.validate()
        self._frozen = True
        for handler in self._handlers.values():
            handler.freeze()
        return self

    def add_action(self, action: Action) -> "ConfigDAG":
        """Add an action node.  Names must be unique and not reserved."""
        if self._frozen:
            raise DAGError(_FROZEN)
        if action.name in _RESERVED:
            raise DAGError(f"{action.name!r} is a reserved node name")
        if action.name in self._actions:
            raise DAGError(f"duplicate action {action.name!r}")
        self._actions[action.name] = action
        self._succ[action.name] = ()
        self._pred[action.name] = ()
        self._invalidate()
        return self

    def add_edge(self, before: str, after: str) -> "ConfigDAG":
        """Require ``before`` to complete before ``after`` starts."""
        if self._frozen:
            raise DAGError(_FROZEN)
        for node in (before, after):
            if node not in self._actions:
                raise DAGError(f"unknown action {node!r}")
        if before == after:
            raise DAGError(f"self-edge on {before!r}")
        if after in self._succ[before]:
            return self  # idempotent
        if self.is_before(after, before):
            raise DAGError(
                f"edge {before!r}->{after!r} would create a cycle"
            )
        self._succ[before] += (after,)
        self._pred[after] += (before,)
        self._invalidate()
        return self

    def attach_handler(self, action: str, handler: "ConfigDAG") -> "ConfigDAG":
        """Attach an explicit error-handling sub-graph to ``action``."""
        if self._frozen:
            raise DAGError(_FROZEN)
        if action not in self._actions:
            raise DAGError(f"unknown action {action!r}")
        handler.validate()
        self._handlers[action] = handler
        self._invalidate()
        return self

    @classmethod
    def from_edges(
        cls,
        actions: Sequence[Action],
        edges: Sequence[Tuple[str, str]],
    ) -> "ConfigDAG":
        """Build a DAG in one pass: ``add_action`` for each action, then
        ``add_edge`` for each edge, in order, with the same result and
        the same :class:`DAGError`.

        The checks run once over the whole graph (one Kahn sort, whose
        order is kept as the topological-order cache); only when one
        fails are the calls replayed one by one, so the error names
        the first offending action or edge.
        """
        dag = cls()
        names, succ, pred = dag._actions, dag._succ, dag._pred
        for action in actions:
            name = action.name
            if name in names or name in _RESERVED:
                cls._replay(actions, edges)
            names[name] = action
            succ[name] = ()
            pred[name] = ()
        for before, after in edges:
            out = succ.get(before)
            if out is None or after not in names or before == after:
                cls._replay(actions, edges)
            if after not in out:  # a repeated edge is idempotent
                succ[before] = out + (after,)
                pred[after] += (before,)
        try:
            dag._topo()
        except DAGError:
            cls._replay(actions, edges)
        return dag

    @classmethod
    def _replay(
        cls,
        actions: Sequence[Action],
        edges: Sequence[Tuple[str, str]],
    ) -> None:
        """Raise the error the incremental mutators raise on these parts."""
        dag = cls()
        for action in actions:
            dag.add_action(action)
        for before, after in edges:
            dag.add_edge(before, after)
        raise AssertionError("replayed parts raised no DAGError")

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
        if digest is not None:
            return digest
        token = self._state_token()
        cached = self._fingerprint_cache
        if cached is not None and cached[0] == token:
            digest = cached[1]
        else:
            import hashlib

            digest = hashlib.sha256(
                repr(self.structure()).encode("utf-8")
            ).hexdigest()
            self._fingerprint_cache = (token, digest)
        if self._frozen:
            self.sealed_fingerprint = digest
        return digest

    # -- validation and order ------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`DAGError` if violated.

        Cycles are refused where edges come in: ``add_edge`` by a
        reachability test per edge, :meth:`from_edges` by one Kahn sort
        over the whole graph.  This re-runs the Kahn count (answered
        from the topological-order cache while nothing changed) and
        validates attached handlers.  A frozen DAG was checked by
        :meth:`freeze` and cannot become invalid afterwards.
        """
        if self._frozen:
            return
        order = self._topo()
        if len(order) != len(self._actions):
            raise DAGError("cycle detected")  # pragma: no cover - guarded
        for handler in self._handlers.values():
            handler.validate()

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
        sub = ConfigDAG.from_edges(
            [a for name, a in self._actions.items() if name in chosen],
            [(u, v) for u, v in self.edges() if u in chosen and v in chosen],
        )
        for name, handler in self._handlers.items():
            if name in chosen:
                sub.attach_handler(name, handler)
        return sub

    # -- structural equality --------------------------------------------------
    def structure(self) -> Tuple:
        """Canonical hashable structure (for equality and hashing).

        Covers what warehouse matching identifies an operation by:
        action names, scopes, commands and params (the action
        signatures), the edges, and the handlers' structures.  An
        action's ``outputs``, ``on_error`` and ``retries`` are *not*
        part of it.

        Memoized against the handler-aware state token, so attached
        handlers mutated after :meth:`attach_handler` still invalidate
        the cached tuple.  A tuple read once *after* :meth:`freeze` is
        stored without a token (nothing can change any more) and
        answered from then on without walking the handler tree.
        """
        cached = self._structure_cache
        if cached is not None and cached[0] is None:
            return cached[1]
        token = self._state_token()
        if cached is not None and cached[0] == token:
            tup = cached[1]
        else:
            # Sorted lists, not generators: a generator is a call per
            # item.
            tup = (
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
            self._hash_cache = None
        self._structure_cache = (None if self._frozen else token, tup)
        return tup

    def __eq__(self, other: object) -> bool:
        """Equal iff same names, scopes, commands, params, edges and
        handlers (see :meth:`structure`); outputs, error policies and
        retry budgets are not compared."""
        if not isinstance(other, ConfigDAG):
            return NotImplemented
        return self.structure() == other.structure()

    def __hash__(self) -> int:
        structure = self.structure()  # refreshes _hash_cache validity
        if self._hash_cache is None:
            self._hash_cache = hash(structure)
        return self._hash_cache

    def __repr__(self) -> str:
        return (
            f"<ConfigDAG {len(self._actions)} actions,"
            f" {len(self.edges())} edges>"
        )

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
