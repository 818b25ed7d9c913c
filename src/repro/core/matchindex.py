"""Indexed golden-image matching for the VM Warehouse.

The brute-force reference (:func:`repro.core.matching.select_golden`)
re-runs the full Section 3.2 criterion against *every* image on every
bid.  :class:`MatchIndex` makes the same selection in time that follows
the part of the catalog the request actually matches:

**Buckets.**  Images are bucketed by the exact-equality part of the
hardware/software criterion — ``(vm_type, os, isa, memory_mb)`` — so
vm-type/OS/hardware rejection is a dict lookup, not a scan.

**Trie.**  A golden image is a prefix of a configuration chain, so
within a bucket the performed sequences form a prefix trie: one edge
per performed step, keyed by ``(name, signature)``; a node holds the
images whose whole sequence ends there (one *profile*: they pass or
fail the DAG-side tests identically).  A request can only match along
root-to-node paths of that trie.

**Per-edge predicate.**  :meth:`MatchIndex.select` walks the trie
carrying ``seen``, the bitset of steps performed on the way down.  An
edge ``(name, sig)`` is followed iff

1. ``name`` is an action of the request DAG (Subset Test),
2. the DAG's action of that name has signature ``sig``
   (signature-conflict test),
3. ``name`` is not already in ``seen`` (a duplicate fails the Partial
   Order Test), and
4. every DAG ancestor of ``name`` is in ``seen`` — the Prefix and
   Partial Order tests at once.

A sequence passes the four Section 3.2 tests iff each of its steps
passes this predicate in turn: "every ancestor performed earlier, no
step twice" is exactly "downward-closed and consistently ordered".

**Pruning is exact.**  An edge that fails fails for every sequence
extending it, so its whole subtree is skipped without being looked at:
a foreign name, a conflicting signature or a duplicate is still there
however the sequence continues; and an ancestor missing at this step
is either never performed (the extension is not downward-closed — the
Prefix Test fails) or performed later (out of order — the Partial
Order Test fails).  Nothing below a failed edge can match, and
everything the walk reaches does.

**Complexity.**  One query costs O(matching nodes + edges tried at
them) dict lookups and machine-word operations, all inside one
function — no per-profile call, no hashing (:attr:`Action.signature
<repro.core.actions.Action.signature>` is computed once per action) —
independent of how many images or profiles the catalog holds.  The
trie is maintained incrementally by
:meth:`~repro.plant.warehouse.VMWarehouse.publish` in O(sequence
length).

The selection is bit-identical to the brute-force path: the same
image wins (deepest satisfied prefix, then lexicographically smallest
image id) and the winner's :class:`MatchResult` carries the same
satisfied/residual tuples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.dag import ConfigDAG
from repro.core.matching import MatchResult
from repro.core.spec import HardwareSpec

__all__ = ["MatchIndex"]

#: Bucket key: the exact-equality part of the matching criterion.
BucketKey = Tuple[str, str, str, int]
#: Trie edge: one performed step as (name, signature).
Step = Tuple[str, str]


class _Node:
    """One performed-sequence prefix in a bucket's trie."""

    __slots__ = ("names", "children", "images", "size")

    def __init__(self, names: Tuple[str, ...]):
        #: Step names from the root to here — the ``satisfied`` tuple
        #: of every image held at this node.
        self.names = names
        self.children: Dict[Step, "_Node"] = {}
        #: image_id → image, the images whose sequence ends here.
        self.images: Dict[str, object] = {}
        #: Images in the bucket (kept on a bucket's root only).
        self.size = 0


class MatchIndex:
    """Incrementally maintained index over a warehouse's images.

    ``stats["profiles_tested"]`` counts the profiles (trie nodes
    holding images) the walk *reached*, i.e. the ones whose sequence
    the request matches; profiles in pruned subtrees are never tested,
    which is the point of the trie.
    """

    def __init__(self) -> None:
        #: Bucket key → root of that bucket's trie.
        self._buckets: Dict[BucketKey, _Node] = {}
        #: Query counters (benchmarks and the scalability experiment).
        self.stats: Dict[str, int] = {
            "queries": 0,
            "profiles_tested": 0,
            "images_skipped_by_bucket": 0,
        }
        self._n_images = 0

    # -- maintenance -------------------------------------------------------
    @staticmethod
    def _path(image) -> Tuple[BucketKey, List[Step]]:
        hw: HardwareSpec = image.hardware
        return (image.vm_type, image.os, hw.isa, hw.memory_mb), [
            (action.name, action.signature) for action in image.performed
        ]

    def add(self, image) -> None:
        """Index one published image."""
        bucket_key, steps = self._path(image)
        node = self._buckets.get(bucket_key)
        if node is None:
            node = self._buckets[bucket_key] = _Node(())
        node.size += 1
        for step in steps:
            child = node.children.get(step)
            if child is None:
                child = node.children[step] = _Node(node.names + step[:1])
            node = child
        node.images[image.image_id] = image
        self._n_images += 1

    # -- queries -----------------------------------------------------------
    def _candidate_roots(
        self, hardware: HardwareSpec, os: str, vm_type: Optional[str]
    ) -> List[_Node]:
        if vm_type is not None:
            root = self._buckets.get(
                (vm_type, os, hardware.isa, hardware.memory_mb)
            )
            return [root] if root is not None else []
        want = (os, hardware.isa, hardware.memory_mb)
        return [
            root for key, root in self._buckets.items() if key[1:] == want
        ]

    def select(
        self,
        dag: ConfigDAG,
        hardware: HardwareSpec,
        os: str,
        vm_type: Optional[str] = None,
    ) -> Tuple[Optional[object], Optional[MatchResult]]:
        """Best-matching image, bit-identical to ``select_golden``.

        Returns ``(image, result)``; ``(None, None)`` when nothing
        matches.  ``dag`` is assumed validated by the caller (the
        warehouse's memoized entry point validates once per request).
        """
        stats = self.stats
        stats["queries"] += 1
        # Depth-first over the matching part of each candidate trie;
        # ``seen`` is the bitset of the steps performed on the way down.
        stack: List[Tuple[_Node, int]] = []
        skipped = self._n_images
        for root in self._candidate_roots(hardware, os, vm_type):
            skipped -= root.size
            stack.append((root, 0))
        stats["images_skipped_by_bucket"] += skipped
        if not stack:
            return None, None
        bits = dag.name_bits()
        signatures = dag.signature_map()
        ancestors = dag.ancestor_masks()
        disk_gb, cpus = hardware.disk_gb, hardware.cpus
        best_id = ""
        best_node: Optional[_Node] = None
        best_depth = -1
        reached = 0
        while stack:
            node, seen = stack.pop()
            if node.images:
                reached += 1
                depth = len(node.names)
                if depth >= best_depth:
                    for image_id, image in node.images.items():
                        hw = image.hardware
                        if hw.disk_gb < disk_gb or hw.cpus < cpus:
                            continue
                        if depth > best_depth or image_id < best_id:
                            best_depth = depth
                            best_id = image_id
                            best_node = node
            for (name, signature), child in node.children.items():
                # Foreign name (None) or conflicting content.
                if signatures.get(name) != signature:
                    continue
                bit = 1 << bits[name]
                # Duplicate step, or a prerequisite not performed yet.
                if seen & bit or ancestors[name] & ~seen:
                    continue
                stack.append((child, seen | bit))
        stats["profiles_tested"] += reached
        if best_node is None:
            return None, None
        result = MatchResult(
            best_id,
            True,
            satisfied=best_node.names,
            residual=tuple(dag.residual_after(best_node.names)),
        )
        return best_node.images[best_id], result
