"""Machine specifications and service request objects.

A VM creation request (Section 3.1) carries three specifications:

* *hardware* — instruction set, memory, disk, CPUs; used by VMShop and
  the PPP to locate resources and golden images;
* *network* — the client's domain identity and VNET proxy endpoint,
  used for host-only network allocation and bridging (Section 3.3);
* *software* — the operating system plus the configuration DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.classad import ClassAd
from repro.core.dag import ConfigDAG

__all__ = [
    "HardwareSpec",
    "NetworkSpec",
    "SoftwareSpec",
    "CreateRequest",
    "QueryRequest",
    "DestroyRequest",
]


@dataclass(frozen=True, slots=True)
class HardwareSpec:
    """Hardware requirements for the virtual machine."""

    isa: str = "x86"
    memory_mb: int = 64
    disk_gb: float = 4.0
    cpus: int = 1

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if self.disk_gb <= 0:
            raise ValueError("disk_gb must be positive")
        if self.cpus <= 0:
            raise ValueError("cpus must be positive")

    def to_classad(self) -> ClassAd:
        """Classad form for matchmaking/bidding."""
        return ClassAd(
            {
                "isa": self.isa,
                "memory_mb": self.memory_mb,
                "disk_gb": self.disk_gb,
                "cpus": self.cpus,
            }
        )


@dataclass(frozen=True, slots=True)
class NetworkSpec:
    """Client network identity for VNET bridging."""

    #: The client's administrative domain (e.g. ``"ufl.edu"``).
    domain: str = "local"
    #: VNET proxy host:port in the client domain, if bridging is wanted.
    proxy_host: Optional[str] = None
    proxy_port: Optional[int] = None
    #: Credentials uniquely identifying the client domain.
    credentials: str = ""

    @property
    def wants_vnet(self) -> bool:
        """True when the client requested a VNET bridge."""
        return self.proxy_host is not None


@dataclass(frozen=True, slots=True)
class SoftwareSpec:
    """Operating system plus configuration DAG."""

    os: str = "linux-mandrake-8.1"
    dag: ConfigDAG = field(default_factory=ConfigDAG)

    def __post_init__(self) -> None:
        self.dag.validate()


@dataclass(frozen=True, slots=True)
class CreateRequest:
    """A Create-VM service request."""

    hardware: HardwareSpec
    software: SoftwareSpec
    network: NetworkSpec = field(default_factory=NetworkSpec)
    client_id: str = "anonymous"
    #: Preferred VM technology (``"vmware"``, ``"uml"``) or None = any.
    vm_type: Optional[str] = None
    #: Optional classad matchmaking expression evaluated against each
    #: plant's description ad (bound as ``other``); plants that do not
    #: satisfy it decline to bid.  Example:
    #: ``"other.networks_free >= 2 && other.active_vms < 8"``.
    requirements: Optional[str] = None
    #: Optional lease (seconds): the plant's reaper collects the VM
    #: automatically once the lease expires (Grid-service lifetime
    #: management).  None = run until explicitly destroyed.
    lease_s: Optional[float] = None
    #: What :meth:`to_classad` built, once asked; ``None`` until then.
    _classad_memo: Optional[ClassAd] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dag(self) -> ConfigDAG:
        """Shortcut to the configuration DAG."""
        return self.software.dag

    def to_classad(self) -> ClassAd:
        """The request as a matchmaking classad.

        Memoized: the dataclass is frozen, so the ad is built once and
        shared across every plant this request is bid against.
        Callers must treat it as read-only (``copy()`` to mutate);
        ``dataclasses.replace`` yields a new request with a fresh memo.
        """
        memo = self._classad_memo
        if memo is not None:
            return memo
        ad = self.hardware.to_classad()
        ad["client"] = self.client_id
        ad["domain"] = self.network.domain
        ad["os"] = self.software.os
        if self.vm_type is not None:
            ad["vm_type"] = self.vm_type
        if self.requirements is not None:
            ad.set_expression("requirements", self.requirements)
        object.__setattr__(self, "_classad_memo", ad)
        return ad


@dataclass(frozen=True)
class QueryRequest:
    """Query the classad of an active VM."""

    vmid: str
    #: Specific attributes to return; empty means the whole classad.
    attributes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DestroyRequest:
    """Destroy (collect) an active VM."""

    vmid: str
    #: Commit redo-log changes back to a new warehouse image?
    commit: bool = False
    #: Name under which to publish the committed image.
    publish_as: Optional[str] = None
