"""The VM Information System: classads of active machines.

Each VMPlant maintains the classads of the VMs it hosts (Figure 2);
the VMShop deliberately does *not* hold this state, which is what
makes shop restarts cheap (Section 3.1).  The information system
supports lookup, attribute queries, updates from the run-time monitor,
and removal at collection time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.classad import ClassAd, Value
from repro.core.errors import PlantError
from repro.plant.production import VirtualMachine

__all__ = ["VMInformationSystem"]


class VMInformationSystem:
    """Plant-local registry of active VM instances.

    ``version`` increments on every mutation (store/remove/rename/
    update), letting consumers — the plant's ``description_ad`` memo —
    cheaply detect staleness without hashing the VM set.  ``vms`` and
    ``guest_memory_mb`` are read-only outside this class: a cost model
    reads them on every bid.
    """

    def __init__(self) -> None:
        #: vmid → registered VM, in registration order.
        self.vms: Dict[str, VirtualMachine] = {}
        #: Guest memory of the registered VMs, kept by store/remove
        #: (a VM's size is its image's and never changes).
        self.guest_memory_mb = 0
        #: Monotonic mutation counter (memo invalidation).
        self.version = 0

    def __len__(self) -> int:
        return len(self.vms)

    def __contains__(self, vmid: str) -> bool:
        return vmid in self.vms

    def store(self, vm: VirtualMachine) -> None:
        """Register a newly produced VM."""
        if vm.vmid in self.vms:
            raise PlantError(f"vmid {vm.vmid!r} already registered")
        self.vms[vm.vmid] = vm
        self.guest_memory_mb += vm.memory_mb
        self.version += 1

    def get(self, vmid: str) -> VirtualMachine:
        """Look up an active VM."""
        try:
            return self.vms[vmid]
        except KeyError:
            raise PlantError(f"no active VM {vmid!r}") from None

    def remove(self, vmid: str) -> VirtualMachine:
        """Deregister a collected VM."""
        try:
            vm = self.vms.pop(vmid)
        except KeyError:
            raise PlantError(f"no active VM {vmid!r}") from None
        self.guest_memory_mb -= vm.memory_mb
        self.version += 1
        return vm

    def rename(self, old: str, new: str) -> VirtualMachine:
        """Re-register a VM under a new vmid (pooled-VM adoption)."""
        if new in self.vms:
            raise PlantError(f"vmid {new!r} already registered")
        vm = self.remove(old)
        vm.vmid = new
        self.store(vm)
        return vm

    def active(self) -> List[VirtualMachine]:
        """All active VMs, in registration order."""
        return list(self.vms.values())

    def update(self, vmid: str, attrs: Dict[str, Value]) -> None:
        """Merge monitor-gathered attributes into a VM's classad."""
        vm = self.get(vmid)
        for key, value in attrs.items():
            vm.classad[key] = value
        self.version += 1

    def query(
        self, vmid: str, attributes: Iterable[str] = ()
    ) -> ClassAd:
        """Classad (or a projection of it) for one VM."""
        vm = self.get(vmid)
        wanted: Tuple[str, ...] = tuple(attributes)
        if not wanted:
            return vm.classad.copy()
        projection = ClassAd()
        for attr in wanted:
            projection[attr] = vm.classad.lookup(attr)
        return projection
