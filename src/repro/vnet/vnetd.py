"""VNET servers, client proxies and bridge bookkeeping.

VNET (Sundararaj & Dinda, 2004) bridges a remote VM's host-only
network to the client's own network over a TCP/SSL tunnel operating at
the Ethernet layer.  A VNET server runs on each VMPlant host and on a
*proxy* host inside the client domain; when a VM is created for a
remote client, a *handler* (bridge) is set up between the plant's
server and the client's proxy, giving the VM an address and LAN
services from the client's domain.

This module keeps the control-plane bookkeeping of that design — the
servers, proxies and active bridges — so the reproduction can verify
setup/teardown ordering, per-domain isolation and the one-handler-per-
(plant, domain) economy the cost function assumes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.errors import VNetError

__all__ = ["VNetProxy", "VNetServer", "Bridge", "VirtualNetworkService"]


class VNetProxy(NamedTuple):
    """VNET endpoint inside a client domain."""

    domain: str
    host: str
    port: int
    credentials: str = ""


class VNetServer:
    """VNET endpoint on one VMPlant host."""

    def __init__(self, plant_name: str, host: str, port: int = 1087):
        self.plant_name = plant_name
        self.host = host
        self.port = port


class Bridge(NamedTuple):
    """An active Ethernet-layer bridge plant ↔ client proxy."""

    bridge_id: str
    plant_name: str
    network_id: str
    domain: str
    proxy: VNetProxy


class VirtualNetworkService:
    """Front-end service VMShop uses to set up and tear down bridges.

    One bridge exists per (plant, client domain) pair — matching the
    host-only network assignment — and is reference-counted by the
    VMs using it.
    """

    def __init__(self) -> None:
        self._servers: Dict[str, VNetServer] = {}
        self._bridges: Dict[Tuple[str, str], Bridge] = {}
        self._refcount: Dict[str, int] = {}
        self._seq = 0

    # -- registration -----------------------------------------------------
    def register_server(self, server: VNetServer) -> None:
        """Register the VNET server running on a plant."""
        if server.plant_name in self._servers:
            raise VNetError(
                f"plant {server.plant_name!r} already has a VNET server"
            )
        self._servers[server.plant_name] = server

    def server_for(self, plant_name: str) -> VNetServer:
        """Look up a plant's VNET server."""
        try:
            return self._servers[plant_name]
        except KeyError:
            raise VNetError(
                f"no VNET server registered for plant {plant_name!r}"
            ) from None

    # -- bridges -------------------------------------------------------------
    def setup_bridge(
        self,
        plant_name: str,
        network_id: str,
        proxy: VNetProxy,
    ) -> Bridge:
        """Ensure a bridge exists for (plant, proxy.domain); refcount it."""
        self.server_for(plant_name)
        key = (plant_name, proxy.domain)
        bridge = self._bridges.get(key)
        if bridge is not None:
            if bridge.network_id != network_id:
                raise VNetError(
                    f"domain {proxy.domain!r} already bridged to "
                    f"{bridge.network_id} on {plant_name!r}, "
                    f"not {network_id}"
                )
            self._refcount[bridge.bridge_id] += 1
            return bridge
        self._seq += 1
        bridge = Bridge(
            bridge_id=f"bridge-{self._seq}",
            plant_name=plant_name,
            network_id=network_id,
            domain=proxy.domain,
            proxy=proxy,
        )
        self._bridges[key] = bridge
        self._refcount[bridge.bridge_id] = 1
        return bridge

    def teardown_bridge(self, plant_name: str, domain: str) -> bool:
        """Drop one reference; returns True when the bridge was removed."""
        key = (plant_name, domain)
        bridge = self._bridges.get(key)
        if bridge is None:
            raise VNetError(
                f"no bridge for domain {domain!r} on plant {plant_name!r}"
            )
        self._refcount[bridge.bridge_id] -= 1
        if self._refcount[bridge.bridge_id] <= 0:
            del self._refcount[bridge.bridge_id]
            del self._bridges[key]
            return True
        return False

    def bridges(self, plant_name: Optional[str] = None) -> List[Bridge]:
        """Active bridges (optionally for one plant)."""
        return [
            b
            for b in self._bridges.values()
            if plant_name is None or b.plant_name == plant_name
        ]

    def check_isolation(self) -> None:
        """No host-only network may serve two domains (for tests)."""
        seen: Dict[Tuple[str, str], str] = {}
        for bridge in self._bridges.values():
            key = (bridge.plant_name, bridge.network_id)
            if key in seen and seen[key] != bridge.domain:
                raise VNetError(
                    f"network {bridge.network_id} bridged to both "
                    f"{seen[key]!r} and {bridge.domain!r}"
                )
            seen[key] = bridge.domain
