"""UDDI-style service registry: publish, discover, bind.

The architecture (Figure 1) has services publish themselves to a
registry that clients use for dynamic discovery and binding.  This
registry stores service descriptions as classads so discovery can
filter with the same matchmaking expressions used elsewhere.

Discovery keeps an **attribute index** over published descriptions:
each indexed attribute (:data:`INDEXED_ATTRIBUTES`) maps
equality-normalized values (:func:`repro.core.classad.equality_key`)
to the names publishing them, with Expression-valued attributes in a
separate always-candidate set.  A query's compiled requirements
expression exposes its top-level ``attr == literal`` conjuncts
(:attr:`Expression.equality_constraints`); intersecting their buckets
prunes entries for which some conjunct provably evaluates to False or
UNDEFINED — so the conjunction can never be True — before any full
``matches()`` evaluation runs.  Pruned entries are *not* evaluated,
so (exactly like ``&&`` short-circuit) an expression that would raise
on a pruned entry no longer raises; ``prefilter=False`` restores the
exhaustive scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Union

from repro.core.classad import UNDEFINED, ClassAd, Expression, equality_key
from repro.core.errors import ShopError

__all__ = ["ServiceEntry", "ServiceRegistry", "INDEXED_ATTRIBUTES"]

#: Description attributes bucketed by equality-normalized value.
INDEXED_ATTRIBUTES = ("kind", "name", "os", "vm_type")

_EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class ServiceEntry:
    """One published service."""

    name: str
    kind: str
    #: Binding/location description (WSDL analogue) — here, the
    #: in-process service object itself.
    binding: Any
    description: ClassAd


class ServiceRegistry:
    """Site-wide registry of shops, brokers and plants."""

    __slots__ = ("_entries", "_kind_names", "_attr_buckets", "_attr_dynamic")
    __slots__ += ("__weakref__",)  # a published VMShop points back weakly

    def __init__(self) -> None:
        self._entries: Dict[str, ServiceEntry] = {}
        self._kind_names: Dict[str, Set[str]] = {}
        self._attr_buckets: Dict[str, Dict[tuple, Set[str]]] = {
            attr: {} for attr in INDEXED_ATTRIBUTES
        }
        self._attr_dynamic: Dict[str, Set[str]] = {
            attr: set() for attr in INDEXED_ATTRIBUTES
        }

    # -- index maintenance --------------------------------------------------
    def _index(self, entry: ServiceEntry) -> None:
        self._kind_names.setdefault(entry.kind, set()).add(entry.name)
        attrs = entry.description._attrs
        for attr in INDEXED_ATTRIBUTES:
            raw = attrs.get(attr, UNDEFINED)
            if isinstance(raw, Expression):
                # Evaluates per-query: always a candidate.
                self._attr_dynamic[attr].add(entry.name)
                continue
            key = equality_key(raw)
            if key is not None:
                self._attr_buckets[attr].setdefault(key, set()).add(
                    entry.name
                )
            # Missing/list-valued attributes stay out of every bucket:
            # ``attr == literal`` is then UNDEFINED/False, so pruning
            # such entries is sound.

    def _unindex(self, entry: ServiceEntry) -> None:
        names = self._kind_names.get(entry.kind)
        if names is not None:
            names.discard(entry.name)
            if not names:
                del self._kind_names[entry.kind]
        for attr in INDEXED_ATTRIBUTES:
            self._attr_dynamic[attr].discard(entry.name)
            buckets = self._attr_buckets[attr]
            for key, members in list(buckets.items()):
                members.discard(entry.name)
                if not members:
                    del buckets[key]

    # -- publication ---------------------------------------------------------
    def publish(
        self,
        name: str,
        kind: str,
        binding: Any,
        description: Optional[ClassAd] = None,
    ) -> ServiceEntry:
        """Publish (or replace) a service entry."""
        entry = ServiceEntry(
            name=name,
            kind=kind,
            binding=binding,
            description=description or ClassAd({"name": name, "kind": kind}),
        )
        old = self._entries.get(name)
        if old is not None:
            self._unindex(old)
        self._entries[name] = entry
        self._index(entry)
        return entry

    def unpublish(self, name: str) -> None:
        """Remove a service."""
        entry = self._entries.pop(name, None)
        if entry is None:
            raise ShopError(f"service {name!r} not published")
        self._unindex(entry)

    # -- discovery ------------------------------------------------------------
    def _candidates(
        self, kind: Optional[str], expr: Optional[Expression]
    ) -> Optional[FrozenSet[str]]:
        """Names that may match, or None when nothing prunes.

        Only index-backed constraints narrow the set; anything else is
        left to full evaluation.
        """
        result: Optional[Set[str]] = None
        if kind is not None:
            result = set(self._kind_names.get(kind, _EMPTY))
        if expr is not None:
            for attr, scope_kind, key in expr.equality_constraints:
                if scope_kind == "self":
                    continue  # refers to the query ad, not descriptions
                if scope_kind == "bare" and attr == "requirements":
                    # A bare name resolves in the query ad first; the
                    # query defines ``requirements``, so the constraint
                    # does not reach the description.
                    continue
                if attr not in self._attr_buckets:
                    continue
                allowed = self._attr_buckets[attr].get(key, _EMPTY) | (
                    self._attr_dynamic[attr]
                )
                result = allowed if result is None else (result & allowed)
                if not result:
                    break
        return frozenset(result) if result is not None else None

    def may_match(
        self,
        kind: Optional[str] = None,
        requirements: Optional[Union[str, Expression]] = None,
    ) -> bool:
        """Cheap shard-level answer: could *any* entry match?

        False only when the attribute index **proves** every entry
        fails some equality conjunct (or no entry of ``kind`` exists)
        — exactly the soundness condition of the ``discover``
        prefilter, so a federated router may skip this shard entirely
        when this returns False.  True means "must evaluate", not
        "some entry matches".
        """
        if not self._entries:
            return False
        expr: Optional[Expression] = None
        if requirements is not None:
            expr = (
                requirements
                if isinstance(requirements, Expression)
                else Expression(requirements)
            )
        candidates = self._candidates(kind, expr)
        return candidates is None or bool(candidates)

    def discover(
        self,
        kind: Optional[str] = None,
        requirements: Optional[Union[str, Expression]] = None,
        prefilter: bool = True,
    ) -> List[ServiceEntry]:
        """Find services, optionally filtered by kind and a classad
        requirements expression evaluated against each description.

        ``requirements`` accepts pre-compiled :class:`Expression`
        objects as well as raw text (interned either way).
        ``prefilter=False`` disables index pruning and evaluates the
        expression against every published description (the reference
        path the equivalence tests compare against).
        """
        query: Optional[ClassAd] = None
        expr: Optional[Expression] = None
        if requirements is not None:
            expr = (
                requirements
                if isinstance(requirements, Expression)
                else Expression(requirements)
            )
            query = ClassAd()
            query["requirements"] = expr
        candidates = self._candidates(kind, expr) if prefilter else None
        results = []
        for name, entry in self._entries.items():
            if candidates is not None and name not in candidates:
                continue
            if kind is not None and entry.kind != kind:
                continue
            if query is not None and not query.matches(entry.description):
                continue
            results.append(entry)
        return results

    def bind(self, name: str) -> Any:
        """Obtain the binding for a published service."""
        try:
            return self._entries[name].binding
        except KeyError:
            raise ShopError(f"service {name!r} not published") from None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries
