"""A production line that does the real thing on the local filesystem.

``LocalProductionLine`` implements the exact clone-and-configure
mechanics of Section 4.1 against directories instead of a hypervisor:

* **clone** replicates the VM configuration file, memory-state file
  and base redo log into the clone's directory, and either soft-links
  (LINK) or byte-copies (COPY) the base virtual-disk chunks — so the
  "use links rather than file copies" optimization is literally
  observable with ``os.path.islink``;
* **execute_action** renders the action into a shell script, writes it
  into a virtual CD-ROM directory, and runs it with ``sh`` inside the
  clone's guest directory with the request context exported as
  ``VMPLANT_*`` environment variables; declared outputs are parsed
  from stdout;
* **collect** commits nothing and removes the clone directory (the
  non-persistent-disk discard path).

Operations charge zero simulation time (they take real wall time
instead), so the same PPP/shop code drives this line unchanged.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Generator, Optional

from repro.core.actions import Action, ActionResult, ActionScope, ActionStatus
from repro.core.errors import PlantError
from repro.core.spec import CreateRequest
from repro.local.image import LocalImageStore
from repro.plant.guest import build_iso, fabricate_outputs, parse_outputs
from repro.plant.production import CloneMode, ProductionLine, VirtualMachine
from repro.sim.kernel import Environment

__all__ = ["LocalBackend", "LocalProductionLine"]


@dataclass
class LocalBackend:
    """On-disk state of one local clone."""

    clone_dir: Path
    running: bool = False

    @property
    def guest_dir(self) -> Path:
        """The clone's guest filesystem root."""
        return self.clone_dir / "guest"

    @property
    def cdrom_dir(self) -> Path:
        """Where virtual CD-ROM images are 'connected'."""
        return self.clone_dir / "cdrom"


class LocalProductionLine(ProductionLine):
    """Directory-backed clone-and-configure."""

    def __init__(
        self,
        env: Environment,
        store: LocalImageStore,
        run_dir: Path,
        vm_type: str = "vmware",
        script_timeout_s: float = 30.0,
    ):
        self.env = env
        self.store = store
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.vm_type = vm_type
        self.script_timeout_s = script_timeout_s

    # -- cloning ------------------------------------------------------------
    def clone(
        self, vm: VirtualMachine, mode: CloneMode = CloneMode.LINK
    ) -> Generator:
        image = vm.image
        src = self.store.path_of(image.image_id)
        dst = self.run_dir / vm.vmid
        if dst.exists():
            raise PlantError(f"clone directory {dst} already exists")
        dst.mkdir(parents=True)
        try:
            shutil.copy2(src / "machine.cfg", dst / "machine.cfg")
            memory = src / "memory.vmss"
            if memory.exists():
                # The memory state must be copied (GSX restriction the
                # paper notes); it cannot be shared between clones.
                shutil.copy2(memory, dst / "memory.vmss")
            shutil.copy2(src / "redo-base.log", dst / "redo.log")
            disk_dir = dst / "disk"
            disk_dir.mkdir()
            for chunk in self.store.disk_chunks(image.image_id):
                target = disk_dir / chunk.name
                if mode is CloneMode.LINK:
                    os.symlink(chunk.resolve(), target)
                else:
                    shutil.copy2(chunk, target)
        except OSError as exc:
            shutil.rmtree(dst, ignore_errors=True)
            raise PlantError(f"clone of {vm.vmid} failed: {exc}") from exc

        backend = LocalBackend(clone_dir=dst, running=True)
        backend.guest_dir.mkdir()
        backend.cdrom_dir.mkdir()
        (dst / "status").write_text("running\n")
        vm.backend = backend
        yield 0.0

    # -- configuration ---------------------------------------------------------
    def execute_action(
        self,
        vm: VirtualMachine,
        action: Action,
        context: Dict[str, str],
    ) -> Generator:
        backend: LocalBackend = vm.backend
        if backend is None or not backend.running:
            raise PlantError(f"VM {vm.vmid} has no running backend")
        yield 0.0
        if action.scope is ActionScope.HOST:
            # Host-side operations are journalled on the clone.
            with open(backend.clone_dir / "host-ops.log", "a") as fh:
                fh.write(f"{action.name}: {action.rendered_command()}\n")
            return ActionResult(
                action=action.name,
                status=ActionStatus.OK,
                outputs=tuple(
                    sorted(fabricate_outputs(action, context).items())
                ),
            )

        # Guest path: write the ISO contents, mount, execute with sh.
        iso = build_iso(action, context)
        iso_dir = backend.cdrom_dir / iso.name
        iso_dir.mkdir(parents=True, exist_ok=True)
        script_path: Optional[Path] = None
        for rel, content in iso.files:
            path = iso_dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            if rel.endswith(".sh"):
                script_path = path
        assert script_path is not None
        env_vars = dict(os.environ)
        for key, value in context.items():
            env_vars[f"VMPLANT_{key.upper()}"] = str(value)
        try:
            proc = subprocess.run(
                ["sh", str(script_path)],
                cwd=backend.guest_dir,
                env=env_vars,
                capture_output=True,
                text=True,
                timeout=self.script_timeout_s,
            )
        except subprocess.TimeoutExpired:
            return ActionResult(
                action=action.name,
                status=ActionStatus.FAILED,
                message=f"script timed out after {self.script_timeout_s}s",
            )
        # Guest writes land in the redo log.
        with open(backend.clone_dir / "redo.log", "ab") as fh:
            fh.write(proc.stdout.encode("utf-8", "replace"))
        if proc.returncode != 0:
            return ActionResult(
                action=action.name,
                status=ActionStatus.FAILED,
                stdout=proc.stdout,
                message=(
                    f"exit status {proc.returncode}: "
                    f"{proc.stderr.strip()[:200]}"
                ),
            )
        outputs = fabricate_outputs(action, context)
        outputs.update(parse_outputs(proc.stdout, action))
        return ActionResult(
            action=action.name,
            status=ActionStatus.OK,
            outputs=tuple(sorted(outputs.items())),
            stdout=proc.stdout,
        )

    # -- collection -------------------------------------------------------------
    def collect(self, vm: VirtualMachine) -> Generator:
        backend: Optional[LocalBackend] = vm.backend
        yield 0.0
        if backend is None:
            return
        backend.running = False
        clone_dir = backend.clone_dir.resolve()
        run_dir = self.run_dir.resolve()
        # Never delete anything outside our run directory.
        if run_dir in clone_dir.parents and clone_dir.exists():
            shutil.rmtree(clone_dir)

    def can_host(self, request: CreateRequest) -> bool:
        return True

    # -- migration: the directory actually moves -----------------------------
    def supports_migration(self) -> bool:
        return True

    def suspend(self, vm: VirtualMachine) -> Generator:
        backend: LocalBackend = vm.backend
        if backend is None or not backend.running:
            raise PlantError(f"VM {vm.vmid} is not running on this line")
        (backend.clone_dir / "status").write_text("suspended\n")
        yield 0.0

    def migration_payload_mb(self, vm: VirtualMachine) -> float:
        backend: LocalBackend = vm.backend
        total = 0
        for root, _dirs, files in os.walk(backend.clone_dir):
            for name in files:
                path = Path(root) / name
                if not path.is_symlink():
                    total += path.stat().st_size
        return total / (1024.0 * 1024.0)

    def export_release(self, vm: VirtualMachine) -> Generator:
        backend: LocalBackend = vm.backend
        backend.running = False
        yield 0.0
        return {"clone_dir": str(backend.clone_dir)}

    def receive(self, vm: VirtualMachine, state: Dict) -> Generator:
        source_dir = Path(state["clone_dir"])
        target_dir = self.run_dir / vm.vmid
        if source_dir.resolve() != target_dir.resolve():
            if target_dir.exists():
                raise PlantError(
                    f"clone directory {target_dir} already exists"
                )
            shutil.move(str(source_dir), str(target_dir))
        backend = LocalBackend(clone_dir=target_dir, running=True)
        (target_dir / "status").write_text("running\n")
        vm.backend = backend
        yield 0.0
