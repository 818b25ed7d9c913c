"""Simulated production lines: VMware GSX and User-Mode Linux.

These implement the :class:`~repro.plant.production.ProductionLine`
interface against the simulated testbed (host + NFS substrate) with
the calibrated :class:`~repro.sim.latency.LatencyModel`:

* :class:`VMwareLine` clones by replicating the VM configuration
  file, base redo log and suspended **memory state** from the NFS
  warehouse (the virtual disk is soft-linked in LINK mode, fully
  copied in COPY mode) and then *resumes* the clone — the paper's
  non-persistent-disk mechanism whose cost grows with memory size and
  host memory pressure;
* :class:`UMLLine` clones a copy-on-write root file system and then
  *boots* the guest, which dominates its ~76 s instantiation time.

Guest configuration follows the CD-ROM path of Section 4.1: build an
ISO with the rendered script, connect it, let the guest daemon mount
and execute, and collect outputs.

Failure injection (``clone_failure_prob``, ``action_failure_prob``)
models the small number of unsuccessful creations the paper reports
(121/128 and 124/128 successes for the 32/64 MB runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.core.actions import Action, ActionResult, ActionScope, ActionStatus
from repro.core.errors import PlantError
from repro.core.spec import CreateRequest
from repro.plant.guest import fabricate_outputs, iso_size_mb, script_length
from repro.plant.production import (
    CloneMode,
    ProductionLine,
    VirtualMachine,
)
from repro.plant.warehouse import GoldenImage
from repro.sim.host import PhysicalHost
from repro.sim.kernel import Environment
from repro.sim.latency import DEFAULT_LATENCY, LatencyModel
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer
from repro.sim.trace import trace

__all__ = ["CloneRecord", "SimBackend", "VMwareLine", "UMLLine"]


@dataclass(frozen=True, slots=True)
class CloneRecord:
    """Per-clone timing breakdown harvested by the experiments."""

    vmid: str
    vm_type: str
    memory_mb: int
    clone_mode: str
    started_at: float
    copy_time: float
    resume_time: float
    total_time: float
    #: Host memory-pressure factor in effect during the resume.
    pressure: float
    #: VMs already on the host when this clone started.
    host_vms_before: int
    #: Where the per-clone state came from: ``"nfs"`` (warehouse
    #: transfer), ``"coalesced"`` (shared an in-flight transfer),
    #: ``"host-cache"`` (warm host LRU cache), ``"peer"`` (one hop of
    #: a distribution tree) or ``"local"`` (peer store already seeded
    #: by an earlier tree delivery).
    copy_source: str = "nfs"


@dataclass(slots=True)
class SimBackend:
    """Line-private state of a simulated VM instance."""

    host: PhysicalHost
    guest_mb: float
    #: Private redo-log growth (MB), fed by guest actions.
    redo_mb: float = 0.0
    running: bool = False


class _SimLine(ProductionLine):
    """Shared machinery of the simulated lines."""

    vm_type = "sim"

    def __init__(
        self,
        env: Environment,
        host: PhysicalHost,
        nfs: NFSServer,
        rng: Optional[RngHub] = None,
        latency: LatencyModel = DEFAULT_LATENCY,
        clone_failure_prob: float = 0.0,
        action_failure_prob: float = 0.0,
        admission_overcommit: float = 2.0,
        coalesce_transfers: bool = False,
        distribution=None,
    ):
        if not 0.0 <= clone_failure_prob < 1.0:
            raise ValueError("clone_failure_prob must be in [0, 1)")
        if not 0.0 <= action_failure_prob < 1.0:
            raise ValueError("action_failure_prob must be in [0, 1)")
        self.env = env
        self.host = host
        self.nfs = nfs
        self.rng = rng or RngHub(0)
        self.latency = latency
        self.clone_failure_prob = clone_failure_prob
        self.action_failure_prob = action_failure_prob
        self.admission_overcommit = admission_overcommit
        #: Share in-flight warehouse transfers per (host, image)?
        self.coalesce_transfers = coalesce_transfers
        #: Optional peer-tree planner
        #: (:class:`repro.distribution.DistributionPlanner`); when set,
        #: LINK-mode state rides the broadcast tree instead of the
        #: star-topology warehouse pull.
        self.distribution = distribution
        self.clone_records: List[CloneRecord] = []
        #: vmid → guest MB admitted but not yet running (in-flight
        #: clones); lets :meth:`abort` release exactly once.
        self._admitted: Dict[str, float] = {}
        #: Guest-daemon hang fault: actions starting before this
        #: simulated time stall until it passes (0 = no hang).
        self.hang_until = 0.0
        #: Every random-stream name of this line starts with this: a
        #: stage draws its jitter as ``rng.lognormal(_prefix + stage, 0,
        #: sigma)``, one Python call.
        self._prefix = f"{host.name}/{self.vm_type}/"

    # -- helpers ----------------------------------------------------------
    def _check_host(self) -> None:
        """Abort the current production stage if the host has crashed."""
        if self.host.down:
            raise PlantError(
                f"host {self.host.name} is down ({self.vm_type} line)"
            )

    # -- fault injection -----------------------------------------------------
    def host_crashed(self) -> None:
        """React to the host crashing: local disk state is gone."""
        self.host.crash()
        if self.host.state_cache is not None:
            self.host.state_cache.clear()
        if self.distribution is not None:
            # Peers mid-fetch from this host fall back down the
            # recovery ladder (idempotent for multi-line hosts).
            self.distribution.on_host_crashed(self.host)
        self.hang_until = 0.0

    def host_recovered(self) -> None:
        """React to the host coming back up."""
        self.host.restore()

    def abort(self, vm: VirtualMachine) -> bool:
        """Synchronously release a VM's host memory (crash/abort path).

        Idempotent: covers both a running backend and an in-flight
        admission; returns True when memory was actually released.
        """
        backend: Optional[SimBackend] = vm.backend
        if backend is not None and backend.running:
            backend.running = False
            self.host.release_vm(backend.guest_mb)
            return True
        admitted = self._admitted.pop(vm.vmid, None)
        if admitted is not None:
            self.host.release_vm(admitted)
            return True
        return False

    def _admit(self, vm: VirtualMachine) -> None:
        """Admit an in-flight clone's memory, tracked for abort."""
        self._check_host()
        self.host.admit_vm(vm.memory_mb)
        self._admitted[vm.vmid] = vm.memory_mb

    def _release_admitted(self, vm: VirtualMachine) -> None:
        """Release a failed in-flight clone's memory (exactly once)."""
        admitted = self._admitted.pop(vm.vmid, None)
        if admitted is not None:
            self.host.release_vm(admitted)

    def can_host(self, request: CreateRequest) -> bool:
        """Admit while committed memory stays under the overcommit cap."""
        after = (
            self.host.committed_guest_mb + request.hardware.memory_mb
        )
        return after <= self.admission_overcommit * self.host.memory_mb

    def full_copy_time_estimate(self, image: GoldenImage) -> float:
        """Nominal seconds to copy the image's full disk (no sharing)."""
        lat = self.latency
        network = (
            image.disk_state_mb / lat.nfs_link_mbps
            + image.disk_files * lat.nfs_request_overhead_s
        )
        write = image.disk_state_mb / lat.host_disk_write_mbps
        return max(network, write)

    # -- common clone machinery -----------------------------------------------
    def _copy_clone_state(
        self, image: GoldenImage, mode: CloneMode
    ) -> Generator:
        """Start replicating per-clone state from the warehouse.

        Returns the generator that moves the bytes; the clone drives
        it, and its value is the ``CloneRecord.copy_source`` (``None``
        for the plain warehouse transfer, which reports no source of
        its own).  LINK-mode state can come from the host's LRU
        golden-state cache, a peer tree, or a coalesced in-flight
        transfer (:meth:`_copy_via_caches`).  The default
        configuration always takes the plain warehouse transfer,
        exactly as the paper measures, and that is
        ``NFSServer.copy_to_host`` itself: no frame of this line's
        sits between the clone and the NFS server (DESIGN, "Frame
        depth").
        """
        payload = image.clone_payload_mb
        files = 3 if image.memory_state_mb > 0 else 2
        if mode is CloneMode.COPY:
            payload += image.disk_state_mb
            files += image.disk_files
        if self.coalesce_transfers or (
            mode is CloneMode.LINK
            and (
                self.host.state_cache is not None
                or self.distribution is not None
            )
        ):
            return self._copy_via_caches(image, mode, payload, files)
        return self.nfs.copy_to_host(payload, self.host, files=files)

    def _copy_via_caches(
        self, image: GoldenImage, mode: CloneMode, payload: float, files: int
    ) -> Generator:
        """The copy when a cache, a tree or coalescing may serve it;
        returns the path that served the bytes."""
        cache = self.host.state_cache if mode is CloneMode.LINK else None
        if cache is not None and cache.lookup(image.image_id):
            # Warm host cache: the state is already on the local disk.
            yield self.host.disk_read(payload)
            yield self.host.disk_write(payload)
            return "host-cache"
        if self.distribution is not None and mode is CloneMode.LINK:
            # Peer broadcast tree: nearest seeded peer, else attach to
            # an in-flight delivery, else seed from the warehouse.
            # The planner seeds the host cache itself on success.
            source = yield self.distribution.fetch(
                self.host, image.image_id, payload, files=files
            )
            return source
        if self.coalesce_transfers:
            source = yield self.nfs.copy_to_host_coalesced(
                (self.host.name, image.image_id, mode._value_),
                payload,
                self.host,
                files=files,
            )
        else:
            yield self.nfs.copy_to_host(
                payload, self.host, files=files
            )
            source = "nfs"
        if cache is not None:
            cache.insert(image.image_id, payload)
        # Soft-link creation for the shared base disk is effectively free.
        return source

    def _maybe_fail_clone(self, vm: VirtualMachine) -> None:
        # Memory release on failure happens in the clone wrapper
        # (one release path for injected faults, coin-flip failures
        # and interrupts alike).
        draw = self.rng.uniform(self._prefix + "clone-fail", 0.0, 1.0)
        if draw < self.clone_failure_prob:
            raise PlantError(
                f"{self.vm_type} clone of {vm.vmid} failed to "
                f"{'resume' if self.vm_type == 'vmware' else 'boot'}"
            )

    # -- configuration path ---------------------------------------------------
    def execute_action(
        self,
        vm: VirtualMachine,
        action: Action,
        context: Dict[str, str],
    ) -> Generator:
        lat = self.latency
        if self.hang_until > self.env.now:
            # Guest-daemon hang fault: the action stalls until the
            # hang window passes (zero events when no fault is set).
            yield self.hang_until - self.env.now
        self._check_host()
        start = self.env.now
        jitter, prefix = self.rng.lognormal, self._prefix
        sigma = lat.op_jitter_sigma
        if action.scope is ActionScope.HOST:
            # Host-side operation (virtual device setup etc.).
            yield 0.3 * jitter(f"{prefix}host-op/{action.name}", 0.0, sigma)
        else:
            script_bytes = script_length(action, context)
            # Build the ISO, connect it, the guest daemon mounts it.
            for base, stage in (
                (lat.iso_build_s, "iso-build"),
                (lat.iso_connect_s, "iso-connect"),
                (lat.guest_mount_s, "guest-mount"),
            ):
                yield base * jitter(prefix + stage, 0.0, sigma)
            # Script execution inside the guest; writes go to the
            # private redo log.
            yield lat.guest_script_mean_s * jitter(
                f"{prefix}script/{action.name}", 0.0, lat.script_jitter_sigma
            )
            backend: SimBackend = vm.backend
            backend.redo_mb += iso_size_mb(script_bytes) * 0.1 + 0.5

        draw = self.rng.uniform(
            f"{prefix}action-fail/{action.name}", 0.0, 1.0
        )
        duration = self.env.now - start
        if draw < self.action_failure_prob:
            return ActionResult(
                action=action.name,
                status=ActionStatus.FAILED,
                duration=duration,
                message="guest script returned non-zero exit status",
            )
        outputs = (
            tuple(sorted(fabricate_outputs(action, context).items()))
            if action.outputs
            else ()
        )
        return ActionResult(
            action=action.name,
            status=ActionStatus.OK,
            outputs=outputs,
            stdout="",
            duration=duration,
        )

    def collect(self, vm: VirtualMachine) -> Generator:
        """Power off, discard the redo log, release host memory."""
        yield 0.5 * self.rng.lognormal(
            self._prefix + "collect", 0.0, self.latency.op_jitter_sigma
        )
        backend: Optional[SimBackend] = vm.backend
        if backend is not None and backend.running:
            backend.running = False
            self.host.release_vm(backend.guest_mb)

    # -- migration (Section 6 future work) -------------------------------------
    def supports_migration(self) -> bool:
        return True

    def suspend(self, vm: VirtualMachine) -> Generator:
        """Checkpoint the running VM: write its memory state to disk."""
        backend: SimBackend = vm.backend
        if backend is None or not backend.running:
            raise PlantError(f"VM {vm.vmid} is not running on this line")
        lat = self.latency
        yield lat.migrate_suspend_fixed_s * self.rng.lognormal(
            self._prefix + "migrate-suspend", 0.0, lat.op_jitter_sigma
        )
        yield self.host.disk_write(backend.guest_mb)

    def migration_payload_mb(self, vm: VirtualMachine) -> float:
        """Memory state + private redo log + configuration file."""
        backend: SimBackend = vm.backend
        return backend.guest_mb + backend.redo_mb + vm.image.config_mb

    def export_release(self, vm: VirtualMachine) -> Generator:
        """Hand off the suspended state; free this host's memory."""
        backend: SimBackend = vm.backend
        yield self.host.disk_read(backend.guest_mb + backend.redo_mb)
        backend.running = False
        self.host.release_vm(backend.guest_mb)
        return {"redo_mb": backend.redo_mb}

    def receive(self, vm: VirtualMachine, state: Dict) -> Generator:
        """Adopt the transferred state and resume on this host."""
        self.host.admit_vm(vm.memory_mb)
        redo_mb = float(state.get("redo_mb", 0.0))
        yield self.host.disk_write(vm.memory_mb + redo_mb)
        pressure = self.host.pressure_factor()
        lat = self.latency
        resume_base = (
            lat.migrate_resume_fixed_s + vm.memory_mb / lat.vmware_resume_mbps
        )
        yield resume_base * pressure * self.rng.lognormal(
            self._prefix + "migrate-resume", 0.0, lat.op_jitter_sigma
        )
        vm.backend = SimBackend(
            host=self.host,
            guest_mb=vm.memory_mb,
            redo_mb=redo_mb,
            running=True,
        )
        trace(
            self.env, "line", "migrated-in",
            vmid=vm.vmid, host=self.host.name,
        )


class VMwareLine(_SimLine):
    """Suspended-state cloning with resume (VMware GSX model)."""

    vm_type = "vmware"

    def clone(
        self, vm: VirtualMachine, mode: CloneMode = CloneMode.LINK
    ) -> Generator:
        image = vm.image
        started = self.env.now
        before = self.host.vm_count
        self._admit(vm)

        try:
            copy_start = self.env.now
            copy_source = (
                yield self._copy_clone_state(image, mode)
            ) or "nfs"
            copy_time = self.env.now - copy_start

            lat, jitter = self.latency, self.rng.lognormal
            sigma = lat.op_jitter_sigma
            yield lat.vmware_clone_fixed_s * jitter(
                self._prefix + "clone-fixed", 0.0, sigma
            )

            # Resume the suspended clone: GSX re-reads the memory image,
            # slowed by host memory pressure.
            pressure = self.host.pressure_factor()
            resume_start = self.env.now
            resume_base = (
                lat.vmware_resume_fixed_s
                + image.memory_state_mb / lat.vmware_resume_mbps
            )
            yield resume_base * pressure * jitter(
                self._prefix + "resume", 0.0, sigma
            )
            self._check_host()
            self._maybe_fail_clone(vm)
        except BaseException:
            self._release_admitted(vm)
            raise
        resume_time = self.env.now - resume_start

        self._admitted.pop(vm.vmid, None)
        vm.backend = SimBackend(
            host=self.host, guest_mb=vm.memory_mb, running=True
        )
        self.clone_records.append(
            CloneRecord(
                vmid=vm.vmid,
                vm_type=self.vm_type,
                memory_mb=vm.memory_mb,
                clone_mode=mode._value_,
                started_at=started,
                copy_time=copy_time,
                resume_time=resume_time,
                total_time=self.env.now - started,
                pressure=pressure,
                host_vms_before=before,
                copy_source=copy_source,
            )
        )
        if self.env.tracer is not None:
            trace(
                self.env, "line", "cloned",
                vmid=vm.vmid, host=self.host.name,
                pressure=round(pressure, 2),
            )


class UMLLine(_SimLine):
    """Copy-on-write cloning with full guest boot (UML model)."""

    vm_type = "uml"

    def clone(
        self, vm: VirtualMachine, mode: CloneMode = CloneMode.LINK
    ) -> Generator:
        image = vm.image
        started = self.env.now
        before = self.host.vm_count
        self._admit(vm)

        try:
            copy_start = self.env.now
            copy_source = (
                yield self._copy_clone_state(image, mode)
            ) or "nfs"
            copy_time = self.env.now - copy_start
            lat, jitter = self.latency, self.rng.lognormal
            sigma = lat.op_jitter_sigma
            yield lat.uml_cow_setup_s * jitter(
                self._prefix + "cow-setup", 0.0, sigma
            )

            # With an SBUML snapshot (memory state present) the clone
            # resumes from checkpoint; otherwise it boots from the CoW
            # file system — the dominant cost in the prototype.
            pressure = self.host.pressure_factor()
            boot_start = self.env.now
            if image.memory_state_mb > 0:
                resume_base = (
                    lat.uml_resume_fixed_s
                    + image.memory_state_mb / lat.uml_resume_mbps
                )
                yield resume_base * pressure * jitter(
                    self._prefix + "sbuml-resume", 0.0, sigma
                )
            else:
                yield lat.uml_boot_fixed_s * pressure * jitter(
                    self._prefix + "boot", 0.0, sigma
                )
            self._check_host()
            self._maybe_fail_clone(vm)
        except BaseException:
            self._release_admitted(vm)
            raise
        boot_time = self.env.now - boot_start

        self._admitted.pop(vm.vmid, None)
        vm.backend = SimBackend(
            host=self.host, guest_mb=vm.memory_mb, running=True
        )
        self.clone_records.append(
            CloneRecord(
                vmid=vm.vmid,
                vm_type=self.vm_type,
                memory_mb=vm.memory_mb,
                clone_mode=mode._value_,
                started_at=started,
                copy_time=copy_time,
                resume_time=boot_time,
                total_time=self.env.now - started,
                pressure=pressure,
                host_vms_before=before,
                copy_source=copy_source,
            )
        )
