"""The VM Warehouse: golden images and their XML descriptors.

The warehouse stores "golden" machines — suspended VMs (or bootable
file systems) checkpointed after an off-line installation — each
described by an XML descriptor recording memory size, operating
system, and the ordered configuration actions already performed
(Section 3.2/4.1).  Image *state* consists of a configuration file,
a virtual disk spanned across several files, and (for suspended
images) a memory-state file; the sizes drive the cloning cost model.

VM installers publish new images via :meth:`VMWarehouse.publish`,
making customized application environments available for subsequent
instantiation — the paper's application-centric workflow.

Matching performance: the warehouse maintains a
:class:`~repro.core.matchindex.MatchIndex` incrementally on publish/
unpublish and serves :meth:`VMWarehouse.select` through it, memoizing
results per ``(dag fingerprint, hardware, os, vm_type)`` for the
current warehouse *generation* — so the plants of a site bidding on
the same request run the Section 3.2 tests once, not once per plant
per image.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.actions import Action
from repro.core.classad import ClassAd
from repro.core.dag import ConfigDAG
from repro.core.dagxml import action_from_element
from repro.core.errors import ProtocolError, WarehouseError
from repro.core.matching import MatchResult
from repro.core.matchindex import MatchIndex
from repro.core.spec import HardwareSpec

__all__ = ["GoldenImage", "VMWarehouse"]

#: Memo entries kept per generation before the table is reset.  An entry
#: serves one bid round (the P plants of a site selecting for the same
#: request), so the bound need only cover the rounds in flight at once;
#: a larger one fills with entries of an all-distinct stream (~0.8 KB
#: each) that are never hit again.  Same bound as
#: :data:`~repro.core.dagxml.DAG_INTERN_MAX`.
_MEMO_LIMIT = 64


@dataclass(frozen=True)
class GoldenImage:
    """Descriptor of one cached golden machine."""

    image_id: str
    vm_type: str
    os: str
    hardware: HardwareSpec
    #: Ordered configuration actions already performed on the image.
    performed: Tuple[Action, ...] = ()
    #: Virtual disk payload (MB) and the number of files spanning it.
    disk_state_mb: float = 2048.0
    disk_files: int = 16
    #: Suspended memory state (MB); 0 for boot-based images (UML).
    memory_state_mb: float = 0.0
    #: Base redo log replicated per clone (MB).
    base_redo_mb: float = 16.0
    #: VM configuration file (MB).
    config_mb: float = 0.1

    def __post_init__(self) -> None:
        if self.disk_state_mb < 0 or self.memory_state_mb < 0:
            raise ValueError("state sizes must be non-negative")
        if self.disk_files <= 0:
            raise ValueError("disk_files must be positive")

    @property
    def performed_names(self) -> Tuple[str, ...]:
        """Names of performed operations, in order."""
        return tuple(a.name for a in self.performed)

    @property
    def clone_payload_mb(self) -> float:
        """State replicated per LINK clone (everything but the disk)."""
        return self.config_mb + self.base_redo_mb + self.memory_state_mb

    def with_performed(
        self, extra: Iterable[Action], image_id: Optional[str] = None
    ) -> "GoldenImage":
        """Derived image with more operations performed (publishing)."""
        return replace(
            self,
            image_id=image_id or self.image_id,
            performed=self.performed + tuple(extra),
        )

    # -- descriptors -------------------------------------------------------
    def to_classad(self) -> ClassAd:
        """Classad description (used in query results and caching)."""
        return ClassAd(
            {
                "image_id": self.image_id,
                "vm_type": self.vm_type,
                "os": self.os,
                "memory_mb": self.hardware.memory_mb,
                "disk_gb": self.hardware.disk_gb,
                "performed": list(self.performed_names),
            }
        )

    def to_element(self) -> ET.Element:
        """The warehouse XML descriptor as an Element tree.

        :meth:`VMWarehouse.dump_xml` appends these directly instead of
        round-tripping every image through string parsing.
        """
        root = ET.Element(
            "golden-image",
            {
                "id": self.image_id,
                "vm-type": self.vm_type,
                "os": self.os,
                "isa": self.hardware.isa,
                "memory-mb": str(self.hardware.memory_mb),
                "disk-gb": repr(self.hardware.disk_gb),
                "cpus": str(self.hardware.cpus),
                "disk-state-mb": repr(self.disk_state_mb),
                "disk-files": str(self.disk_files),
                "memory-state-mb": repr(self.memory_state_mb),
                "base-redo-mb": repr(self.base_redo_mb),
                "config-mb": repr(self.config_mb),
            },
        )
        performed_el = ET.SubElement(root, "performed")
        for action in self.performed:
            el = ET.SubElement(
                performed_el,
                "action",
                {
                    "name": action.name,
                    "scope": action.scope.value,
                    "command": action.command,
                    "on-error": action.on_error.value,
                    "retries": str(action.retries),
                },
            )
            for key, value in action.params:
                ET.SubElement(el, "param", {"key": key, "value": value})
            for out in action.outputs:
                ET.SubElement(el, "output", {"name": out})
        return root

    def to_xml(self) -> str:
        """The warehouse XML descriptor as a string (thin wrapper)."""
        return ET.tostring(self.to_element(), encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "GoldenImage":
        """Parse a warehouse XML descriptor (strict)."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ProtocolError(f"malformed XML: {exc}") from exc
        return cls.from_element(root)

    @classmethod
    def from_element(cls, root: ET.Element) -> "GoldenImage":
        """Decode a ``<golden-image>`` element (strict)."""
        if root.tag != "golden-image":
            raise ProtocolError(
                f"expected <golden-image>, got <{root.tag}>"
            )

        def req(attr: str) -> str:
            value = root.get(attr)
            if value is None:
                raise ProtocolError(
                    f"<golden-image> missing attribute {attr!r}"
                )
            return value

        performed: List[Action] = []
        performed_el = root.find("performed")
        if performed_el is not None:
            for el in performed_el:
                if el.tag != "action":
                    raise ProtocolError(
                        f"unexpected element <{el.tag}> in <performed>"
                    )
                performed.append(action_from_element(el))
        try:
            hardware = HardwareSpec(
                isa=root.get("isa", "x86"),
                memory_mb=int(req("memory-mb")),
                disk_gb=float(req("disk-gb")),
                cpus=int(root.get("cpus", "1")),
            )
            return cls(
                image_id=req("id"),
                vm_type=req("vm-type"),
                os=req("os"),
                hardware=hardware,
                performed=tuple(performed),
                disk_state_mb=float(root.get("disk-state-mb", "2048.0")),
                disk_files=int(root.get("disk-files", "16")),
                memory_state_mb=float(root.get("memory-state-mb", "0.0")),
                base_redo_mb=float(root.get("base-redo-mb", "16.0")),
                config_mb=float(root.get("config-mb", "0.1")),
            )
        except ValueError as exc:
            raise ProtocolError(f"bad golden-image attribute: {exc}") from exc


class VMWarehouse:
    """Store of golden images, shared by the plants of a site.

    In the prototype the warehouse is an NFS-mounted directory tree;
    here it is an in-memory map plus optional XML persistence, with
    the image *state* transfer costs modelled by whichever storage
    substrate the production line is attached to.
    """

    def __init__(self, images: Iterable[GoldenImage] = ()):
        self._images: Dict[str, GoldenImage] = {}
        self._index = MatchIndex()
        #: Bumped on every publish/unpublish; keys the match memo.
        self.generation = 0
        self._memo: Dict[tuple, Tuple[Optional[GoldenImage], Optional[MatchResult]]] = {}
        self._memo_generation = 0
        #: Query/hit counters for benchmarks and experiments.
        self.match_stats: Dict[str, int] = {"queries": 0, "memo_hits": 0}
        #: image_id → selections it won, memo hits included; outlives
        #: an unpublish (re-publishing continues the count).
        self._popularity: Dict[str, int] = {}
        for image in images:
            self.publish(image)

    def __len__(self) -> int:
        return len(self._images)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._images

    def publish(self, image: GoldenImage) -> None:
        """Add an image; ids must be unique."""
        if image.image_id in self._images:
            raise WarehouseError(
                f"image id {image.image_id!r} already published"
            )
        self._images[image.image_id] = image
        self._index.add(image)
        self.generation += 1

    def unpublish(self, image_id: str) -> GoldenImage:
        """Remove and return an image."""
        try:
            image = self._images.pop(image_id)
        except KeyError:
            raise WarehouseError(f"no image {image_id!r}") from None
        self._index.remove(image_id)
        self.generation += 1
        return image

    def get(self, image_id: str) -> GoldenImage:
        """Look up an image by id."""
        try:
            return self._images[image_id]
        except KeyError:
            raise WarehouseError(f"no image {image_id!r}") from None

    def images(self, vm_type: Optional[str] = None) -> List[GoldenImage]:
        """All images (optionally restricted to one technology)."""
        return [
            img
            for img in self._images.values()
            if vm_type is None or img.vm_type == vm_type
        ]

    # -- matching ------------------------------------------------------------
    def select(
        self,
        dag: ConfigDAG,
        hardware: HardwareSpec,
        os: str,
        vm_type: Optional[str] = None,
    ) -> Tuple[Optional[GoldenImage], Optional[MatchResult]]:
        """Best-matching golden image via the index, memoized.

        Bit-identical to running the brute-force
        :func:`~repro.core.matching.select_golden` over
        :meth:`images`: same winning image, same satisfied/residual
        tuples.  Results are memoized per ``(dag fingerprint,
        hardware, os, vm_type)`` and invalidated by generation — any
        publish/unpublish makes every memoized entry stale at once,
        which is what lets P plants bidding on one request share a
        single evaluation of the Section 3.2 tests.
        """
        # A frozen DAG that has been through here before carries its
        # fingerprint as a plain attribute and is valid for good: the
        # per-bid memo hit then makes no call to build its key.
        fingerprint = dag.sealed_fingerprint
        if fingerprint is None:
            dag.validate()
            fingerprint = dag.fingerprint()
        self.match_stats["queries"] += 1
        if self._memo_generation != self.generation:
            self._memo.clear()
            self._memo_generation = self.generation
        # The hardware spec's fields, not the spec: same equality, and
        # hashing the key stays out of the dataclass's Python __hash__.
        key = (
            fingerprint,
            hardware.isa,
            hardware.memory_mb,
            hardware.disk_gb,
            hardware.cpus,
            os,
            vm_type,
        )
        selection = self._memo.get(key)
        if selection is not None:
            self.match_stats["memo_hits"] += 1
        else:
            selection = self._index.select(dag, hardware, os, vm_type)
            if len(self._memo) >= _MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = selection
        image = selection[0]
        if image is not None:
            popularity = self._popularity
            popularity[image.image_id] = popularity.get(image.image_id, 0) + 1
        return selection

    @property
    def index_stats(self) -> Dict[str, int]:
        """The match index's query counters (read-only snapshot)."""
        return dict(self._index.stats)

    @property
    def popularity(self) -> Dict[str, int]:
        """Selection wins per image id (memo hits included).

        The replica placer ranks images by this to decide which state
        to pre-push onto seed hosts; snapshot, safe to mutate.
        """
        return dict(self._popularity)

    # -- persistence ---------------------------------------------------------
    def dump_xml(self) -> str:
        """All descriptors as one ``<warehouse>`` document."""
        root = ET.Element("warehouse")
        for image in self._images.values():
            root.append(image.to_element())
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def load_xml(cls, text: str) -> "VMWarehouse":
        """Rebuild a warehouse from :meth:`dump_xml` output."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ProtocolError(f"malformed XML: {exc}") from exc
        if root.tag != "warehouse":
            raise ProtocolError(f"expected <warehouse>, got <{root.tag}>")
        wh = cls()
        for child in root:
            wh.publish(GoldenImage.from_element(child))
        return wh
