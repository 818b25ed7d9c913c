"""Request streams and golden images for the SC'04 experiments.

Section 4.2: golden machines are Mandrake 8.1 workstations with 32, 64
and 256 MB of memory, checkpointed post-boot; each creation configures
the VM's network interface and a user identity inside the guest.  The
experiments issue requests *in sequence* — 128 for the 32/64 MB
machines, 40 for 256 MB.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence

from repro.core.actions import Action, ActionScope
from repro.core.dag import ConfigDAG
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.plant.warehouse import GoldenImage

__all__ = [
    "MANDRAKE_OS",
    "install_os_action",
    "experiment_dag",
    "golden_image",
    "experiment_request",
    "poisson_arrivals",
    "request_stream",
]

#: Operating system of the paper's golden machines.
MANDRAKE_OS = "linux-mandrake-8.1"


def install_os_action(os: str = MANDRAKE_OS) -> Action:
    """The base install step every image has performed."""
    return Action(
        "install-os",
        scope=ActionScope.HOST,
        command="install-os {distro}",
        params={"distro": os},
    )


def configure_network_action() -> Action:
    """Guest-side setup of the VM's network interface."""
    return Action(
        "configure-network",
        command="ifconfig eth0 $VMPLANT_IP netmask 255.255.255.0",
        outputs=("ip",),
    )


def setup_user_action(username: str = "griduser") -> Action:
    """Guest-side creation of the user identity."""
    return Action(
        "setup-user",
        command="useradd -m {user} && echo {user}:x | chpasswd -e",
        params={"user": username},
        outputs=("user_home",),
    )


@lru_cache(maxsize=64)
def experiment_dag(
    os: str = MANDRAKE_OS, username: str = "griduser"
) -> ConfigDAG:
    """Configuration DAG of the Section 4.2 creation experiments:
    install-os (cached) → configure-network → setup-user.

    Shared: every caller naming the same ``(os, username)`` holds the
    *same* instance (the experiments issue hundreds of identical
    creates, Section 4.2), so its order and fingerprint are computed
    once per configuration, not once per request.
    """
    return ConfigDAG.from_sequence(
        [
            install_os_action(os),
            configure_network_action(),
            setup_user_action(username),
        ]
    )


def golden_image(
    memory_mb: int,
    vm_type: str = "vmware",
    os: str = MANDRAKE_OS,
    image_id: Optional[str] = None,
    disk_gb: float = 4.0,
    checkpointed: Optional[bool] = None,
) -> GoldenImage:
    """A post-boot golden machine matching the paper's warehouse.

    VMware images are suspended (memory state ≈ guest memory); UML
    images by default boot from the CoW file system and carry no
    memory state — pass ``checkpointed=True`` for an SBUML-style
    snapshot that clones resume from without a full reboot (the
    "on-going experimental studies" of Section 4.3).  The virtual
    disk occupies 2 GB across 16 files.
    """
    if checkpointed is None:
        checkpointed = vm_type == "vmware"
    suffix = "-sbuml" if (checkpointed and vm_type == "uml") else ""
    return GoldenImage(
        image_id=image_id or f"{vm_type}-mandrake81-{memory_mb}mb{suffix}",
        vm_type=vm_type,
        os=os,
        hardware=HardwareSpec(memory_mb=memory_mb, disk_gb=disk_gb),
        performed=(install_os_action(os),),
        disk_state_mb=2048.0,
        disk_files=16,
        memory_state_mb=float(memory_mb) if checkpointed else 0.0,
        base_redo_mb=16.0,
        config_mb=0.1,
    )


def experiment_request(
    memory_mb: int,
    vm_type: Optional[str] = "vmware",
    os: str = MANDRAKE_OS,
    domain: str = "acis.ufl.edu",
    client_id: str = "invigo",
    username: str = "griduser",
) -> CreateRequest:
    """One Section 4.2 creation request."""
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=memory_mb),
        software=SoftwareSpec(os=os, dag=experiment_dag(os, username)),
        network=NetworkSpec(domain=domain),
        client_id=client_id,
        vm_type=vm_type,
    )


def request_stream(
    memory_mb: int,
    count: int,
    vm_type: Optional[str] = "vmware",
    domains: Sequence[str] = ("acis.ufl.edu",),
    os: str = MANDRAKE_OS,
) -> List[CreateRequest]:
    """A sequential request stream, round-robining client domains."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return [
        experiment_request(
            memory_mb,
            vm_type=vm_type,
            os=os,
            domain=domains[i % len(domains)],
            client_id=f"client-{domains[i % len(domains)]}",
        )
        for i in range(count)
    ]


def poisson_arrivals(
    rng,
    rate_per_s: float,
    count: int,
    stream: str = "arrivals",
) -> List[float]:
    """Absolute arrival times of a Poisson process.

    ``rng`` is an :class:`~repro.sim.rng.RngHub`; draws come from the
    named stream so arrival patterns are reproducible and independent
    of other randomness.  Open-loop experiments pair this with
    :func:`request_stream`::

        times = poisson_arrivals(bed.rng, rate_per_s=0.1, count=24)
        for t, request in zip(times, request_stream(64, 24)):
            env.process(arrive_at(t, request))
    """
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    times: List[float] = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(stream, rate_per_s)
        times.append(now)
    return times
