#!/usr/bin/env python
"""The In-VIGO virtual-workspace scenario (Figure 3 walk-through).

A user asks for a "virtual workspace": a VM running a VNC server and a
Web file manager, configured with their identity and home directory.
The warehouse holds a golden image checkpointed after the RedHat +
VNC + file-manager installation (the S-A-B-C prefix), so the PPP's
partial matching clones that image and only executes the residual
actions D-I.

The example then *extends* the live workspace with an extra
application install and publishes the result as a new golden image —
the paper's install-once-share-with-collaborators workflow.

Run:  python examples/invigo_workspace.py
"""

from repro import (
    Action,
    ConfigDAG,
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
    build_testbed,
)
from repro.plant.warehouse import GoldenImage
from repro.workloads.invigo import invigo_cached_prefix, invigo_workspace_dag

REDHAT_OS = "linux-redhat-8.0"


def workspace_image() -> GoldenImage:
    """The golden workspace: RedHat + VNC + WFM already installed."""
    return GoldenImage(
        image_id="invigo-workspace",
        vm_type="vmware",
        os=REDHAT_OS,
        hardware=HardwareSpec(memory_mb=32, disk_gb=4.0),
        performed=tuple(invigo_cached_prefix("arijit")),
        memory_state_mb=32.0,
    )


def main() -> None:
    bed = build_testbed(
        seed=7, memory_sizes=(), extra_images=[workspace_image()]
    )

    dag = invigo_workspace_dag(username="arijit")
    print("Client-specified DAG (Figure 3, step 1):")
    for name in dag.topological_sort():
        print(f"  {name}")

    request = CreateRequest(
        hardware=HardwareSpec(memory_mb=32),
        software=SoftwareSpec(os=REDHAT_OS, dag=dag),
        network=NetworkSpec(domain="acis.ufl.edu"),
        client_id="arijit",
        vm_type="vmware",
    )
    ad = bed.run(bed.shop.create(request))
    print(f"\nWorkspace {ad['vmid']} up on {ad['plant']}:")
    print(f"  cached by golden image : {ad['actions_cached']} actions "
          f"(install-redhat, vnc, wfm)")
    print(f"  executed after cloning : {ad['actions_executed']} actions")
    print(f"  VNC display            : {ad.get('vnc_display')}")
    print(f"  clone {ad['clone_time']:.1f}s + configure "
          f"{ad['config_time']:.1f}s")

    # The user installs an application into the live workspace ...
    matlab = Action(
        "install-matlab",
        command="rpm -i {pkg}",
        params={"pkg": "matlab-6.5.rpm"},
    )
    extended = ConfigDAG.from_edges(
        [*dag.actions.values(), matlab],
        [*dag.edges(), ("start-vnc-server", "install-matlab")],
    )
    plant = bed.registry.bind(str(ad["plant"]))
    bed.run(plant.extend(ad["vmid"], extended))
    print("\nExtended the live workspace with install-matlab.")

    # ... and publishes it for collaborators.
    bed.run(bed.shop.destroy(ad["vmid"], commit=True,
                             publish_as="invigo-workspace-matlab"))
    published = bed.warehouse.get("invigo-workspace-matlab")
    print(f"Published {published.image_id!r} with performed actions:")
    for action in published.performed:
        print(f"  {action.name}")

    # A collaborator instantiating the same DAG + matlab now gets a
    # deeper match: zero residual actions beyond identity setup.
    request2 = CreateRequest(
        hardware=HardwareSpec(memory_mb=32),
        software=SoftwareSpec(os=REDHAT_OS, dag=extended),
        network=NetworkSpec(domain="acis.ufl.edu"),
        client_id="collaborator",
        vm_type="vmware",
    )
    ad2 = bed.run(bed.shop.create(request2))
    print(f"\nCollaborator clone {ad2['vmid']}: "
          f"{ad2['actions_cached']} cached / "
          f"{ad2['actions_executed']} executed "
          f"(golden image {ad2['image_id']})")


if __name__ == "__main__":
    main()
