"""VMArchitect: virtual networks spanning distinct domains (§6).

The paper's future work proposes "a VMArchitect to instantiate
customized virtual machines with router and tunneling capabilities to
establish virtual networks that seamlessly span across distinct
domains".  This module implements it with the ordinary public API:

* for every participating site (plant), the architect *creates a
  router VM* through VMShop with a router configuration DAG
  (forwarding + tunnel endpoints) — it is a normal clone, matched,
  cloned and configured like any other machine;
* router VMs are joined by tunnels into a hub-free full mesh (the
  common case for a handful of sites) forming a named
  :class:`VirtualNetwork`;
* member VMs attach to the virtual network through their site's
  router; :meth:`VirtualNetwork.route` resolves the tunnel path
  between any two members.

The cross-domain isolation invariant still holds underneath: each
router lives in its own client domain's host-only network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.errors import VNetError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.workloads.requests import install_os_action

__all__ = ["RouterVM", "VirtualNetwork", "VMArchitect"]

ROUTER_OS = "linux-mandrake-8.1"


def router_dag(network_name: str, os: str = ROUTER_OS) -> ConfigDAG:
    """The configuration DAG for a router VM."""
    dag = ConfigDAG.from_sequence(
        [
            install_os_action(os),
            Action(
                "enable-forwarding",
                command="sysctl -w net.ipv4.ip_forward=1",
            ),
            Action(
                "configure-router-interface",
                command="ifconfig eth0 $VMPLANT_IP netmask 255.255.255.0",
                outputs=("ip",),
            ),
            Action(
                "start-tunnel-endpoint",
                command="vnetd --router --network {network}",
                params={"network": network_name},
                outputs=("tunnel_port",),
            ),
        ]
    )
    dag.validate()
    return dag


@dataclass(frozen=True)
class RouterVM:
    """One router instance anchoring a domain in a virtual network."""

    vmid: str
    domain: str
    plant: str
    ip: str
    tunnel_port: str


@dataclass
class VirtualNetwork:
    """A named cross-domain virtual network."""

    name: str
    routers: Dict[str, RouterVM] = field(default_factory=dict)
    #: Full-mesh tunnels as (domain_a, domain_b) with a < b.
    tunnels: List[Tuple[str, str]] = field(default_factory=list)
    #: member vmid → domain.
    members: Dict[str, str] = field(default_factory=dict)

    def domains(self) -> List[str]:
        """Participating domains, sorted."""
        return sorted(self.routers)

    def router_for(self, domain: str) -> RouterVM:
        """The router anchoring ``domain``."""
        try:
            return self.routers[domain]
        except KeyError:
            raise VNetError(
                f"domain {domain!r} is not part of network {self.name!r}"
            ) from None

    def attach_member(self, vmid: str, domain: str) -> RouterVM:
        """Join a VM to the network through its domain's router."""
        router = self.router_for(domain)
        if vmid in self.members:
            raise VNetError(f"{vmid!r} already attached to {self.name!r}")
        self.members[vmid] = domain
        return router

    def route(self, src_vmid: str, dst_vmid: str) -> List[str]:
        """Hop list (vmids) between two member VMs.

        Same domain: via the shared router.  Different domains: source
        router → tunnel → destination router.
        """
        for vmid in (src_vmid, dst_vmid):
            if vmid not in self.members:
                raise VNetError(
                    f"{vmid!r} is not attached to {self.name!r}"
                )
        src_dom = self.members[src_vmid]
        dst_dom = self.members[dst_vmid]
        src_router = self.routers[src_dom]
        if src_dom == dst_dom:
            return [src_vmid, src_router.vmid, dst_vmid]
        key = tuple(sorted((src_dom, dst_dom)))
        if key not in self.tunnels:
            raise VNetError(
                f"no tunnel between {src_dom!r} and {dst_dom!r}"
            )  # pragma: no cover - full mesh by construction
        dst_router = self.routers[dst_dom]
        return [src_vmid, src_router.vmid, dst_router.vmid, dst_vmid]

    def check_mesh(self) -> None:
        """Every domain pair must have exactly one tunnel."""
        expected = {
            tuple(sorted((a, b)))
            for a in self.routers
            for b in self.routers
            if a < b
        }
        if set(self.tunnels) != expected:
            raise VNetError(
                f"network {self.name!r}: tunnel mesh incomplete"
            )


class VMArchitect:
    """Builds and manages cross-domain virtual networks."""

    def __init__(self, shop, memory_mb: int = 32, os: str = ROUTER_OS):
        self.shop = shop
        self.memory_mb = memory_mb
        self.os = os
        self.networks: Dict[str, VirtualNetwork] = {}

    def _router_request(
        self, network_name: str, domain: str
    ) -> CreateRequest:
        return CreateRequest(
            hardware=HardwareSpec(memory_mb=self.memory_mb),
            software=SoftwareSpec(
                os=self.os, dag=router_dag(network_name, self.os)
            ),
            network=NetworkSpec(domain=domain),
            client_id=f"vmarchitect/{network_name}",
            vm_type="vmware",
        )

    def build_network(
        self, name: str, domains: List[str]
    ) -> Generator:
        """Instantiate routers for ``domains`` and mesh them.

        Returns the :class:`VirtualNetwork`.  Router creation goes
        through the ordinary shop path (bidding, matching, cloning);
        a failure surfaces after already-created routers are left
        running for the caller to collect.
        """
        if name in self.networks:
            raise VNetError(f"virtual network {name!r} already exists")
        if len(set(domains)) != len(domains) or not domains:
            raise VNetError("domains must be non-empty and unique")
        network = VirtualNetwork(name=name)
        for domain in domains:
            ad = yield self.shop.create(
                self._router_request(name, domain)
            )
            network.routers[domain] = RouterVM(
                vmid=str(ad["vmid"]),
                domain=domain,
                plant=str(ad["plant"]),
                ip=str(ad["ip"]),
                tunnel_port=str(ad["tunnel_port"]),
            )
        network.tunnels = [
            (a, b)
            for a in network.domains()
            for b in network.domains()
            if a < b
        ]
        network.check_mesh()
        self.networks[name] = network
        return network

    def teardown_network(self, name: str) -> Generator:
        """Collect all routers and forget the network."""
        network = self.networks.pop(name, None)
        if network is None:
            raise VNetError(f"no virtual network {name!r}")
        for router in network.routers.values():
            yield self.shop.destroy(router.vmid)
        return len(network.routers)
