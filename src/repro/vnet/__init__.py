"""Virtual networking support (Section 3.3).

Models the Virtuoso/VNET integration: per-plant pools of *host-only
networks* (statically installed ``vmnet`` switches for VMware, ``tap``
devices for UML) dynamically assigned to client domains
(:mod:`repro.vnet.hostonly`), VNET server endpoints bridging a remote
VM to its client's network (:mod:`repro.vnet.vnetd`), and the
private-network deployment scenario with SSH tunnels through a
gateway (:mod:`repro.vnet.tunnels`).

The central invariant — VMs from different client domains are never
created inside the same host-only network — is enforced by the pool
and checked by property tests.
"""
