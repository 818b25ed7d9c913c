"""Production-line interface and the plant-level VM object.

Section 2 of the paper identifies the two core mechanisms every VM
technology offers: state encapsulated as data, and instantiation by a
control process.  A :class:`ProductionLine` wraps those mechanisms for
one technology (VMware GSX, UML, a real directory-backed analogue …)
behind a uniform interface the PPP drives.

All operations are simulation-kernel *process generators*: they
``yield`` events, and a caller runs one by yielding it (a sub-call
the kernel drives, see :class:`repro.sim.kernel.Process`).  A line doing
real work (the local line) performs it inside the generator and yields
zero-delay timeouts, so the same PPP code drives both simulated and
real production.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Any, Dict, Generator, List

from repro.core.actions import Action, ActionResult
from repro.core.classad import ClassAd
from repro.core.errors import PlantError
from repro.core.spec import CreateRequest
from repro.plant.warehouse import GoldenImage

__all__ = ["CloneMode", "VMStatus", "VirtualMachine", "ProductionLine"]


class CloneMode(Enum):
    """How virtual-disk state reaches the clone (Section 3.2).

    LINK exploits storage commit (non-persistent disks / copy-on-write
    file systems): the clone soft-links the golden base disk and writes
    changes to a private redo log.  COPY replicates the full disk —
    the slow path the paper measures at 210 s for 2 GB.
    """

    LINK = "link"
    COPY = "copy"


class VMStatus(Enum):
    """Lifecycle of a plant-managed VM instance."""

    CLONING = "cloning"
    CONFIGURING = "configuring"
    RUNNING = "running"
    SUSPENDED = "suspended"
    MIGRATING = "migrating"
    FAILED = "failed"
    COLLECTED = "collected"


class VirtualMachine:
    """A plant-managed VM instance and its bookkeeping."""

    __slots__ = (
        "vmid",
        "image",
        "request",
        "vm_type",
        "status",
        "classad",
        "results",
        "performed_actions",
        "backend",
        "bridged",
    )

    def __init__(
        self,
        vmid: str,
        image: GoldenImage,
        request: CreateRequest,
        vm_type: str,
    ):
        self.vmid = vmid
        self.image = image
        self.request = request
        self.vm_type = vm_type
        self.status = VMStatus.CLONING
        self.classad = ClassAd()
        #: Results of configuration actions, in execution order.
        self.results: List[ActionResult] = []
        #: Actions effectively performed on this instance (cached from
        #: the golden image + executed successfully), in order — the
        #: state the matching criterion sees if this VM is later
        #: published as an image or extended with a larger DAG.
        self.performed_actions: List[Action] = []
        #: Line-specific state (sim VM handle, clone directory, ...).
        self.backend: Any = None
        #: True while the VM holds a reference on its domain's VNET
        #: bridge on its plant.
        self.bridged = False

    @property
    def memory_mb(self) -> int:
        """Guest memory size."""
        return self.image.hardware.memory_mb

    def record(self, result: ActionResult) -> None:
        """Append an action result and fold its outputs into the ad."""
        self.results.append(result)
        for key, value in result.outputs:
            self.classad[key] = value


class ProductionLine(ABC):
    """Clone-and-configure mechanism for one VM technology."""

    #: Technology name, e.g. ``"vmware"`` or ``"uml"``.
    vm_type: str = "abstract"
    #: The host whose ``committed_guest_mb`` :meth:`can_host` reads
    #: besides the request; ``None`` when the answer depends on the
    #: request alone.  The plant's bid memo keys on that memory.
    host: Any = None

    @abstractmethod
    def clone(
        self,
        vm: VirtualMachine,
        mode: CloneMode = CloneMode.LINK,
    ) -> Generator:
        """Clone ``vm.image`` into a new instance and make it runnable.

        For a suspended-state technology (VMware) this copies the
        memory state and *resumes*; for a boot-based one (UML) it
        boots the clone.  Sets ``vm.backend`` and returns when the
        guest is ready to execute configuration scripts.  Raises
        :class:`~repro.core.errors.PlantError` on clone failure.
        """

    @abstractmethod
    def execute_action(
        self,
        vm: VirtualMachine,
        action: Action,
        context: Dict[str, str],
    ) -> Generator:
        """Run one configuration action; returns an ActionResult.

        Guest actions travel the paper's CD-ROM path: the command is
        rendered to a script, packed into an ISO image, connected to
        the clone, and executed by the guest daemon.  Host actions run
        directly on the VM host.  ``context`` carries request-scoped
        values (vmid, client, assigned IP ...) available to scripts.
        """

    @abstractmethod
    def collect(self, vm: VirtualMachine) -> Generator:
        """Destroy the instance and release its resources."""

    def can_host(self, request: CreateRequest) -> bool:
        """Quick admission check (capacity, technology support).

        A function of the request's hardware and of :attr:`host`'s
        committed guest memory only: the plant memoises its bid on
        those.
        """
        return True

    # -- fault hooks (repro.faults) ------------------------------------------
    def abort(self, vm: VirtualMachine) -> bool:
        """Synchronously release a VM's resources (crash/abort path).

        Idempotent; returns True when something was actually released.
        Lines with real resource accounting override this.
        """
        return False

    def host_crashed(self) -> None:
        """The hosting node died; drop any node-local state."""

    def host_recovered(self) -> None:
        """The hosting node came back up."""

    # -- migration hooks (Section 6 future work) -----------------------------
    # Lines that support migrating active VMs override all four; the
    # defaults decline.  The protocol, driven by
    # :class:`~repro.plant.migration.MigrationManager`:
    #   source.suspend → source.export_release (frees source resources,
    #   returns opaque state) → state transfer → target.receive.

    def supports_migration(self) -> bool:
        """Can this line suspend/export/receive VM state?"""
        return False

    def suspend(self, vm: VirtualMachine) -> Generator:
        """Checkpoint a running VM in place."""
        raise PlantError(
            f"{self.vm_type} production line does not support migration"
        )
        yield  # pragma: no cover - unreachable, makes this a generator

    def migration_payload_mb(self, vm: VirtualMachine) -> float:
        """State (MB) that must travel to the target plant."""
        raise PlantError(
            f"{self.vm_type} production line does not support migration"
        )

    def export_release(self, vm: VirtualMachine) -> Generator:
        """Detach the suspended VM from this line; returns its state."""
        raise PlantError(
            f"{self.vm_type} production line does not support migration"
        )
        yield  # pragma: no cover

    def receive(self, vm: VirtualMachine, state: Any) -> Generator:
        """Adopt a migrated VM's state and resume it on this line."""
        raise PlantError(
            f"{self.vm_type} production line does not support migration"
        )
        yield  # pragma: no cover
