"""UDDI-style service registry: publish, discover, bind.

The architecture (Figure 1) has services publish themselves to a
registry that clients use for dynamic discovery and binding.  This
registry stores service descriptions as classads so discovery can
filter with the same matchmaking expressions used elsewhere:
``discover`` evaluates a requirements expression against every
published description, in publication order.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Union

from repro.core.classad import ClassAd, Expression
from repro.core.errors import ShopError

__all__ = ["ServiceEntry", "ServiceRegistry"]


class ServiceEntry(NamedTuple):
    """One published service."""

    name: str
    kind: str
    #: Binding/location description (WSDL analogue) — here, the
    #: in-process service object itself.
    binding: Any
    description: ClassAd


class ServiceRegistry:
    """Site-wide registry of shops, brokers and plants."""

    # ``__weakref__``: a published VMShop points back weakly.
    __slots__ = ("_entries", "__weakref__")

    def __init__(self) -> None:
        self._entries: Dict[str, ServiceEntry] = {}

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
        self._entries[name] = entry
        return entry

    def unpublish(self, name: str) -> None:
        """Remove a service."""
        if self._entries.pop(name, None) is None:
            raise ShopError(f"service {name!r} not published")

    # -- discovery ------------------------------------------------------------
    def discover(
        self,
        kind: Optional[str] = None,
        requirements: Optional[Union[str, Expression]] = None,
    ) -> List[ServiceEntry]:
        """Find services, optionally filtered by kind and a classad
        requirements expression evaluated against each description.

        ``requirements`` accepts pre-compiled :class:`Expression`
        objects as well as raw text (interned either way).
        """
        query: Optional[ClassAd] = None
        if requirements is not None:
            query = ClassAd()
            query["requirements"] = (
                requirements
                if isinstance(requirements, Expression)
                else Expression(requirements)
            )
        results = []
        for entry in self._entries.values():
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
