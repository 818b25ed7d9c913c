"""Incremental DAG building: the reference for ``ConfigDAG.from_edges``.

``ConfigDAG`` is built whole by ``from_edges``, one check over all the
parts.  This is the builder it replaced: one ``add_action`` /
``add_edge`` / ``attach_handler`` call per part, each checking as it
goes, with the same ``DAGError`` text.  It keeps its own adjacency and
answers the views a differential compares (insertion-order edges,
lexicographic Kahn order, ancestor sets, structure) without reading
any ``ConfigDAG`` cache.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.actions import Action
from repro.core.dag import FINISH, START, ConfigDAG
from repro.core.errors import DAGError

__all__ = ["IncrementalDAG"]


class IncrementalDAG:
    """A DAG grown one part at a time, checked per part."""

    def __init__(self) -> None:
        self.actions: Dict[str, Action] = {}
        self.succ: Dict[str, List[str]] = {}
        self.pred: Dict[str, List[str]] = {}
        self.handlers: Dict[str, ConfigDAG] = {}

    def add_action(self, action: Action) -> "IncrementalDAG":
        if action.name in (START, FINISH):
            raise DAGError(f"{action.name!r} is a reserved node name")
        if action.name in self.actions:
            raise DAGError(f"duplicate action {action.name!r}")
        self.actions[action.name] = action
        self.succ[action.name] = []
        self.pred[action.name] = []
        return self

    def add_edge(self, before: str, after: str) -> "IncrementalDAG":
        for node in (before, after):
            if node not in self.actions:
                raise DAGError(f"unknown action {node!r}")
        if before == after:
            raise DAGError(f"self-edge on {before!r}")
        if after in self.succ[before]:
            return self  # idempotent
        if before in self.descendants(after):
            raise DAGError(
                f"edge {before!r}->{after!r} would create a cycle"
            )
        self.succ[before].append(after)
        self.pred[after].append(before)
        return self

    def attach_handler(
        self, action: str, handler: ConfigDAG
    ) -> "IncrementalDAG":
        if action not in self.actions:
            raise DAGError(f"unknown action {action!r}")
        self.handlers[action] = handler
        return self

    # -- views ---------------------------------------------------------------
    def edges(self) -> List[Tuple[str, str]]:
        return [(u, v) for u in self.actions for v in self.succ[u]]

    def descendants(self, name: str) -> Set[str]:
        seen: Set[str] = set()
        stack = list(self.succ[name])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self.succ[node])
        return seen

    def ancestors(self, name: str) -> Set[str]:
        return {n for n in self.actions if name in self.descendants(n)}

    def topological_sort(self) -> List[str]:
        indeg = {n: len(self.pred[n]) for n in self.actions}
        order: List[str] = []
        while len(order) < len(indeg):
            node = min(n for n, d in indeg.items() if d == 0)
            indeg[node] = -1
            order.append(node)
            for nxt in self.succ[node]:
                indeg[nxt] -= 1
        return order

    def structure(self) -> Tuple:
        return (
            tuple(sorted(a.signature for a in self.actions.values())),
            tuple(sorted(self.edges())),
            tuple(
                sorted((n, h.structure()) for n, h in self.handlers.items())
            ),
        )

    def build(self) -> ConfigDAG:
        """The ``ConfigDAG`` of these parts (already checked)."""
        return ConfigDAG.from_edges(
            list(self.actions.values()),
            self.edges(),
            self.handlers.items(),
        )
