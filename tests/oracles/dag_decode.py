"""The incremental ``<dag>`` decoder: the reference for the one-pass one.

``repro.core.dagxml.dag_from_element`` collects a body's actions and
edges and builds the graph with one check over all of it
(``ConfigDAG.from_edges``).  This is the decoder as it stood before:
two passes over the children and one call per part on the incremental
reference builder (``tests.oracles.dag_build``), each checking as it
goes.  Decoded DAGs and ``ProtocolError`` text must be the same.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.core.dag import ConfigDAG
from repro.core.dagxml import _parse_action, _require
from repro.core.errors import DAGError, ProtocolError

from tests.oracles.dag_build import IncrementalDAG

__all__ = ["oracle_dag_from_element"]


def oracle_dag_from_element(root: ET.Element) -> ConfigDAG:
    """Decode an ``<dag>`` element (strict), one checked call a part."""
    if root.tag != "dag":
        raise ProtocolError(f"expected <dag>, got <{root.tag}>")
    dag = IncrementalDAG()
    handlers = []
    try:
        for child in root:
            if child.tag == "action":
                dag.add_action(_parse_action(child))
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
            dag.attach_handler(target, oracle_dag_from_element(inner[0]))
    except DAGError as exc:
        raise ProtocolError(str(exc)) from exc
    return dag.build()
