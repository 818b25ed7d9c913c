"""Golden-image matching: the Subset, Prefix and Partial Order tests.

Section 3.2 of the paper defines when a cached ("golden") image can
serve as the cloning base for a requested machine.  The image's
descriptor records the *sequence* of configuration operations already
performed on it; the request carries a configuration DAG.  The image
matches when:

* **Subset Test** — every performed operation appears in the request's
  DAG (the image has nothing the request does not want);
* **Prefix Test** — the performed set is downward-closed under the
  DAG's partial order (no performed action is missing a prerequisite);
* **Partial Order Test** — the order in which the operations were
  performed is consistent with the DAG's partial order.

Operations are identified by name, and a same-named operation with
different content (command/params/scope) is a *conflict* that fails
the match — the signature check below.  Hardware must also agree:
equal memory and OS/ISA, and image disk within the requested size.

:func:`select_golden` ranks all matching images and returns the one
leaving the fewest residual actions (deepest usable prefix), breaking
ties deterministically by image id — this is what makes cloning fast
when the warehouse already holds a well-configured machine.

The individual tests run on :class:`~repro.core.dag.ConfigDAG`'s
memoized structural caches (name→bit interning, ancestor-closure
bitsets) and on :attr:`Action.signature
<repro.core.actions.Action.signature>`, which is hashed once per
action, so each test is one pass of dict lookups and machine-word
operations over the performed actions — four passes and four calls
per image.  :func:`select_golden` remains the brute-force reference,
linear in the number of images; the warehouse's
:class:`~repro.core.matchindex.MatchIndex` folds the four tests into
one per-edge predicate over a prefix trie and must stay bit-identical
to it.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.spec import HardwareSpec

__all__ = [
    "subset_test",
    "prefix_test",
    "partial_order_test",
    "signature_test",
    "hardware_test",
    "match_performed",
    "MatchResult",
    "match_image",
    "select_golden",
]


def subset_test(performed: Iterable[str], dag: ConfigDAG) -> bool:
    """True iff every performed operation is wanted by the request."""
    return dag.action_name_set().issuperset(performed)


def prefix_test(performed: Iterable[str], dag: ConfigDAG) -> bool:
    """True iff the performed set is downward-closed in the DAG.

    Assumes the subset test already passed; returns False otherwise.
    """
    return dag.is_prefix_set(performed)


def partial_order_test(performed: Sequence[str], dag: ConfigDAG) -> bool:
    """True iff the performed *sequence* respects the DAG partial order.

    For every pair the DAG orders (a before b) with both performed, a
    must come earlier in the performed sequence.  Duplicate entries in
    the sequence fail the test.
    """
    bits = dag.name_bits()
    ancestors = dag.ancestor_masks()
    performed_mask = 0
    steps = []
    for name in performed:
        bit = bits.get(name)
        if bit is None:
            return False
        bit = 1 << bit
        if performed_mask & bit:
            return False  # duplicate entry
        performed_mask |= bit
        steps.append((bit, ancestors[name]))
    seen = 0
    for bit, ancestor_mask in steps:
        # Any performed ancestor not executed yet came *after* name.
        if ancestor_mask & performed_mask & ~seen:
            return False
        seen |= bit
    return True


def signature_test(
    performed_actions: Iterable[Action], dag: ConfigDAG
) -> bool:
    """True iff no performed operation conflicts in content.

    A performed action with the same name as a DAG action but a
    different signature (command, params or scope changed) would leave
    the clone in a state the request did not ask for.
    """
    signatures = dag.signature_map()
    for action in performed_actions:
        expected = signatures.get(action.name)
        if expected is not None and expected != action.signature:
            return False
    return True


def match_performed(
    performed_actions: Sequence[Action], dag: ConfigDAG
) -> Optional[str]:
    """Run the four DAG-side Section 3.2 tests in criterion order.

    Returns the failure reason (``"signature-conflict"``, ``"subset"``,
    ``"prefix"`` or ``"partial-order"``) or None when the performed
    sequence is a usable prefix of ``dag``.  Shared by
    :func:`match_image`, the warehouse match index and the plant's
    live-VM ``extend`` admission check.
    """
    names = [a.name for a in performed_actions]
    if not signature_test(performed_actions, dag):
        return "signature-conflict"
    if not subset_test(names, dag):
        return "subset"
    if not prefix_test(names, dag):
        return "prefix"
    if not partial_order_test(names, dag):
        return "partial-order"
    return None


def hardware_test(image_hw: HardwareSpec, requested: HardwareSpec) -> bool:
    """Hardware agreement: equal ISA/memory, image disk fits request.

    The paper requires the golden machine to "match the client machine
    specification in terms of memory, disk, the operating system".
    Memory state is resumed, so memory must be exactly equal; the
    virtual disk must be at least as large as requested.
    """
    return (
        image_hw.isa == requested.isa
        and image_hw.memory_mb == requested.memory_mb
        and image_hw.disk_gb >= requested.disk_gb
        and image_hw.cpus >= requested.cpus
    )


class MatchResult(NamedTuple):
    """Outcome of matching one golden image against a request."""

    image_id: str
    matches: bool
    #: Why the match failed ("" when it matched).
    reason: str = ""
    #: Names of request actions already satisfied by the image.
    satisfied: Tuple[str, ...] = ()
    #: Topologically ordered actions still to execute after cloning.
    residual: Tuple[str, ...] = ()

    @property
    def depth(self) -> int:
        """How many request actions the image already satisfies."""
        return len(self.satisfied)


class ImageLike:
    """Structural protocol for matchable golden images.

    Anything with ``image_id``, ``hardware``, ``os``, ``vm_type`` and
    ``performed`` (ordered sequence of :class:`Action`) can be matched;
    the warehouse's ``GoldenImage`` satisfies this.
    """

    image_id: str
    hardware: HardwareSpec
    os: str
    vm_type: str
    performed: Sequence[Action]


def match_image(
    image: "ImageLike",
    dag: ConfigDAG,
    hardware: HardwareSpec,
    os: str,
    vm_type: Optional[str] = None,
) -> MatchResult:
    """Run the full Section 3.2 criterion for one image."""
    if vm_type is not None and image.vm_type != vm_type:
        return MatchResult(image.image_id, False, reason="vm-type")
    if image.os != os:
        return MatchResult(image.image_id, False, reason="os")
    if not hardware_test(image.hardware, hardware):
        return MatchResult(image.image_id, False, reason="hardware")

    performed_names = [a.name for a in image.performed]
    reason = match_performed(image.performed, dag)
    if reason is not None:
        return MatchResult(image.image_id, False, reason=reason)

    satisfied = tuple(performed_names)
    residual = tuple(dag.residual_after(performed_names))
    return MatchResult(
        image.image_id, True, satisfied=satisfied, residual=residual
    )


def select_golden(
    images: Iterable["ImageLike"],
    dag: ConfigDAG,
    hardware: HardwareSpec,
    os: str,
    vm_type: Optional[str] = None,
) -> Tuple[Optional["ImageLike"], Optional[MatchResult], List[MatchResult]]:
    """Pick the best-matching golden image.

    Returns ``(image, result, all_results)``; ``image`` is None when
    nothing matches.  Preference order: deepest satisfied prefix, then
    lexicographically smallest image id (deterministic).
    """
    all_results: List[MatchResult] = []
    best: Optional[Tuple[int, str]] = None
    best_image: Optional[ImageLike] = None
    best_result: Optional[MatchResult] = None
    for image in images:
        result = match_image(image, dag, hardware, os, vm_type)
        all_results.append(result)
        if not result.matches:
            continue
        key = (-result.depth, image.image_id)
        if best is None or key < best:
            best = key
            best_image = image
            best_result = result
    return best_image, best_result, all_results
