"""Lease enforcement: automatic collection of expired VMs.

Web/Grid service frameworks pair dynamically created resources with
*lifetime management* (the paper defers it to the hosting framework;
we provide the plant-side half).  A creation request may carry a
lease (:attr:`~repro.core.spec.CreateRequest.lease_s`); the plant
stamps ``lease_expires_at`` into the VM's classad, and the
:class:`LeaseReaper` daemon sweeps the information system, collecting
any VM whose lease has lapsed — exactly as if the client had called
destroy.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.core.errors import ReproError
from repro.plant.production import VMStatus
from repro.plant.vmplant import VMPlant
from repro.sim.kernel import Environment, Interrupt, Process
from repro.sim.trace import trace

__all__ = ["LeaseReaper"]


class LeaseReaper:
    """Periodic lease sweep for one plant.

    When given a back-reference to the shop (``shop``), the reaper
    also collects *orphans*: VMs still RUNNING at the plant whose vmid
    the shop no longer routes — the residue of a shop-side abort or a
    crash-recovery race.  Orphans are only collected once they are
    older than ``orphan_grace_s``, so in-flight creations are never
    mistaken for garbage.
    """

    def __init__(
        self,
        env: Environment,
        plant: VMPlant,
        period: float = 10.0,
        shop=None,
        orphan_grace_s: Optional[float] = None,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        if orphan_grace_s is not None and orphan_grace_s < 0:
            raise ValueError("orphan_grace_s must be non-negative")
        self.env = env
        self.plant = plant
        self.period = period
        self.shop = shop
        self.orphan_grace_s = orphan_grace_s
        #: vmids collected because their lease lapsed.
        self.reaped: List[str] = []
        #: vmids collected because the shop lost track of them.
        self.orphans_collected: List[str] = []
        #: vmids whose destroy raised; the sweep keeps going.
        self.failed: List[str] = []
        self._proc: Optional[Process] = None

    def start(self) -> Process:
        """Launch the reaper daemon."""
        if self._proc is not None and self._proc.is_alive:
            return self._proc
        self._proc = self.env.process(self._run())
        return self._proc

    def stop(self) -> None:
        """Terminate the daemon."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("reaper stopped")

    def expired_vmids(self) -> List[str]:
        """Active VMs whose lease has lapsed."""
        now = self.env.now
        out: List[str] = []
        for vm in self.plant.infosys.active():
            if vm.status is not VMStatus.RUNNING:
                continue
            expires = vm.classad.get("lease_expires_at")
            if isinstance(expires, (int, float)) and now >= expires:
                out.append(vm.vmid)
        return out

    def orphan_vmids(self) -> List[str]:
        """RUNNING VMs the shop no longer routes (past the grace window)."""
        if self.shop is None or self.orphan_grace_s is None:
            return []
        now = self.env.now
        prefix = f"{self.shop.name}-vm-"
        routed = set(self.shop.active_vmids())
        out: List[str] = []
        for vm in self.plant.infosys.active():
            if vm.status is not VMStatus.RUNNING:
                continue
            if not vm.vmid.startswith(prefix) or vm.vmid in routed:
                continue
            created = vm.classad.get("created_at")
            age = now - float(created) if isinstance(created, (int, float)) else 0.0
            if age >= self.orphan_grace_s:
                out.append(vm.vmid)
        return out

    def sweep(self) -> Generator:
        """Collect every expired VM; returns how many were reaped.

        A destroy that raises is recorded in :attr:`failed` and the
        sweep continues — one broken VM must not leave every later
        lease unenforced.
        """
        count = 0
        for vmid in self.expired_vmids():
            try:
                yield self.plant.destroy(vmid)
            except ReproError as exc:
                self.failed.append(vmid)
                trace(
                    self.env, "reaper", "destroy-failed",
                    vmid=vmid, plant=self.plant.name,
                    error=type(exc).__name__,
                )
                continue
            self.reaped.append(vmid)
            count += 1
            trace(
                self.env, "reaper", "lease-expired",
                vmid=vmid, plant=self.plant.name,
            )
        for vmid in self.orphan_vmids():
            try:
                yield self.plant.destroy(vmid)
            except ReproError as exc:
                self.failed.append(vmid)
                trace(
                    self.env, "reaper", "destroy-failed",
                    vmid=vmid, plant=self.plant.name,
                    error=type(exc).__name__,
                )
                continue
            self.orphans_collected.append(vmid)
            count += 1
            trace(
                self.env, "reaper", "orphan-collected",
                vmid=vmid, plant=self.plant.name,
            )
        return count

    def _run(self) -> Generator:
        try:
            while True:
                yield self.period
                yield self.sweep()
        except Interrupt:
            return
