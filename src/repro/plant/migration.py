"""Migration of active VMs across plants (Section 6 future work).

The paper lists "migration of active VMs across plants" as a research
direction; this module implements it on top of the ordinary plant and
production-line interfaces:

1. the source plant validates the VM and marks it MIGRATING;
2. the *target's* host-only network pool attaches the VM first (so a
   network shortage aborts before anything is suspended);
3. the source line suspends the VM and exports its state (memory image
   + private redo log + configuration file), freeing source resources;
4. the state travels over the inter-plant link (fair-shared, so
   concurrent migrations contend realistically);
5. the target line adopts the state and resumes the VM under its own
   memory pressure; bookkeeping moves and the shop is re-routed.

A failure in steps 1–2 leaves the VM running untouched at the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.core.classad import ClassAd
from repro.core.errors import PlantError
from repro.plant.vmplant import VMPlant
from repro.sim.kernel import Environment
from repro.sim.network import FairShareLink
from repro.sim.trace import trace

__all__ = ["MigrationRecord", "MigrationManager"]


@dataclass(frozen=True)
class MigrationRecord:
    """Timing breakdown of one completed migration."""

    vmid: str
    source: str
    target: str
    started_at: float
    payload_mb: float
    suspend_time: float
    transfer_time: float
    resume_time: float
    total_time: float


class MigrationManager:
    """Coordinates VM migrations over an inter-plant link."""

    def __init__(
        self,
        env: Environment,
        link: Optional[FairShareLink] = None,
    ):
        self.env = env
        #: Inter-node network (gigabit in the paper's testbed); None
        #: means instantaneous transfer (shared-storage migration).
        self.link = link
        self.records: List[MigrationRecord] = []

    def migrate(
        self,
        source: VMPlant,
        target: VMPlant,
        vmid: str,
        shop=None,
    ) -> Generator:
        """Move an active VM from ``source`` to ``target``.

        Returns the VM's updated classad.  ``shop`` (optional) gets
        its VMID routing updated so subsequent query/destroy calls
        reach the new plant.
        """
        if source is target:
            raise PlantError("source and target plants are the same")
        vm = source.begin_migration(vmid)
        try:
            line_src = source.lines[vm.vm_type]
            line_dst = target.lines.get(vm.vm_type)
            if line_dst is None or not line_dst.supports_migration():
                raise PlantError(
                    f"plant {target.name} cannot receive "
                    f"{vm.vm_type} migrations"
                )
            if (
                target.max_vms is not None
                and target.active_vm_count() >= target.max_vms
            ):
                raise PlantError(f"plant {target.name}: at VM capacity")
            # Reserve the target-side network before disturbing the VM.
            assignment = target.network_pool.attach(
                vm.request.network.domain, vmid
            )
        except Exception:
            from repro.plant.production import VMStatus

            vm.status = VMStatus.RUNNING
            raise

        started = self.env.now
        trace(
            self.env, "migration", "start",
            vmid=vmid, source=source.name, target=target.name,
        )

        suspend_start = self.env.now
        yield line_src.suspend(vm)
        payload = line_src.migration_payload_mb(vm)
        state = yield line_src.export_release(vm)
        suspend_time = self.env.now - suspend_start

        transfer_start = self.env.now
        if self.link is not None:
            yield self.link.transfer(payload)
        transfer_time = self.env.now - transfer_start

        resume_start = self.env.now
        yield line_dst.receive(vm, state)
        resume_time = self.env.now - resume_start

        source.complete_migration_out(vmid)
        target.adopt_migrated(vm, assignment)
        ad: ClassAd = vm.classad
        ad["migrated_from"] = source.name
        ad["migrated_at"] = self.env.now
        ad["migration_time"] = self.env.now - started

        if shop is not None:
            shop.reroute(vmid, target)

        self.records.append(
            MigrationRecord(
                vmid=vmid,
                source=source.name,
                target=target.name,
                started_at=started,
                payload_mb=payload,
                suspend_time=suspend_time,
                transfer_time=transfer_time,
                resume_time=resume_time,
                total_time=self.env.now - started,
            )
        )
        trace(
            self.env, "migration", "done",
            vmid=vmid, seconds=round(self.env.now - started, 2),
        )
        return ad.copy()

    def drain(
        self,
        source: VMPlant,
        targets: List[VMPlant],
        shop=None,
    ) -> Generator:
        """Evacuate every VM from ``source`` (maintenance mode).

        Each VM's destination is chosen by cost bidding over the
        targets' cost models — the same economics as placement — so a
        drain naturally load-balances.  Returns the list of migrated
        vmids; VMs no target can take raise :class:`PlantError`.
        """
        if not targets or any(t is source for t in targets):
            raise PlantError(
                "drain needs at least one target distinct from the source"
            )
        migrated: List[str] = []
        for vm in list(source.infosys.active()):
            best: Optional[VMPlant] = None
            best_cost: Optional[float] = None
            for target in targets:
                # The plant's admission rules, then its price.
                if (
                    target.max_vms is not None
                    and target.active_vm_count() >= target.max_vms
                ) or not target.network_pool.has_capacity_for(
                    vm.request.network.domain
                ):
                    continue
                cost = target.cost_model.estimate(target, vm.request)
                if cost is None:
                    continue
                if best_cost is None or cost < best_cost:
                    best, best_cost = target, cost
            if best is None:
                raise PlantError(
                    f"no target can take {vm.vmid!r} during drain"
                )
            yield self.migrate(source, best, vm.vmid, shop=shop)
            migrated.append(vm.vmid)
        return migrated
