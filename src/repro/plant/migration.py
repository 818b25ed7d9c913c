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
A failure after step 2 gives the target's lease back; a source host
that crashes under the migration kills the VM (its memory is released
once, by the crash) and the migration fails.  So does a target host
that crashes before the VM resumes there: the target releases what it
admitted, and the source drops the exported VM and its lease.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.core.classad import ClassAd
from repro.core.errors import PlantError
from repro.plant.production import VMStatus
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
            vm.status = VMStatus.RUNNING
            raise

        started = self.env.now
        trace(
            self.env, "migration", "start",
            vmid=vmid, source=source.name, target=target.name,
        )

        try:
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
            if vm.status is not VMStatus.MIGRATING:
                # The source crashed while the state was in flight and
                # killed the VM: the copy resumed here dies with it.
                line_dst.abort(vm)
                raise PlantError(
                    f"VM {vmid!r} died with {source.name} while migrating"
                )
        except BaseException:
            target.network_pool.detach(vmid)
            if vm.status is VMStatus.MIGRATING and not vm.backend.running:
                # The state left the source and never resumed: the
                # target crashed under it, and the VM dies as it does
                # with a source crash.
                source.kill_vm(vmid)
            raise

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
