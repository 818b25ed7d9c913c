#!/usr/bin/env python
"""Directory-backed VMs: the clone-and-configure mechanics for real.

Uses the local production line: golden images are real directories,
cloning really soft-links the base disk chunks (compare the byte
counts!), and configuration actions run as real ``sh`` scripts inside
the clone's guest directory, publishing outputs through the
``VMPLANT_OUTPUT`` stdout protocol.

Run:  python examples/local_workspace.py
"""

import os
import tempfile
from pathlib import Path

from repro import (
    Action,
    ConfigDAG,
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
    VMPlant,
)
from repro.local.image import LocalImageStore
from repro.local.localline import LocalProductionLine
from repro.plant.warehouse import GoldenImage
from repro.sim.kernel import Environment
from repro.workloads.requests import install_os_action


def du(path: Path) -> int:
    """Bytes actually stored under ``path`` (links count as 0)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = Path(root) / name
            if not full.is_symlink():
                total += full.stat().st_size
    return total


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="vmplant-local-"))
    print(f"working under {workdir}")

    # Materialize a golden image: config file, 8-chunk disk, memory
    # state, base redo log, XML descriptor — all real files.
    store = LocalImageStore(workdir / "warehouse")
    image = GoldenImage(
        image_id="golden-shell",
        vm_type="vmware",
        os="shell",
        hardware=HardwareSpec(memory_mb=32),
        performed=(install_os_action("shell"),),
        disk_state_mb=512,
        disk_files=8,
        memory_state_mb=32,
    )
    image_dir = store.add(image)
    print(f"golden image occupies {du(image_dir)} bytes "
          f"({len(store.disk_chunks(image.image_id))} disk chunks)")

    env = Environment()
    line = LocalProductionLine(env, store, workdir / "plant-run")
    plant = VMPlant(env, "localplant", store.to_warehouse(),
                    {"vmware": line})

    # A real configuration DAG: every command genuinely executes.
    dag = ConfigDAG.from_sequence([
        install_os_action("shell"),
        Action(
            "write-motd",
            command=(
                "echo \"workspace for $VMPLANT_CLIENT at $VMPLANT_IP\""
                " > etc-motd"
            ),
        ),
        Action(
            "report-hostname",
            command=(
                "hostname=ws-$VMPLANT_VMID; echo VMPLANT_OUTPUT "
                "hostname=$hostname"
            ),
            outputs=("hostname",),
        ),
    ])
    request = CreateRequest(
        hardware=HardwareSpec(memory_mb=32),
        software=SoftwareSpec(os="shell", dag=dag),
        network=NetworkSpec(domain="example.org"),
        client_id="alice",
        vm_type="vmware",
    )
    proc = env.process(plant.create(request, "ws-001"))
    ad = env.run(until=proc)

    clone_dir = workdir / "plant-run" / "ws-001"
    chunk = clone_dir / "disk" / "chunk-00.vmdk"
    print(f"\nclone {ad['vmid']}:")
    print(f"  disk chunk is a symlink : {chunk.is_symlink()}")
    print(f"  clone occupies          : {du(clone_dir)} bytes "
          "(vs. the golden image above — links, not copies)")
    print(f"  guest wrote             : "
          f"{(clone_dir / 'guest' / 'etc-motd').read_text().strip()!r}")
    print(f"  script output           : hostname={ad['hostname']}")

    proc = env.process(plant.destroy(ad["vmid"]))
    env.run(until=proc)
    print(f"\ncollected; clone directory removed: {not clone_dir.exists()}")


if __name__ == "__main__":
    main()
