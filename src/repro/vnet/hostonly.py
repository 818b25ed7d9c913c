"""Host-only networks and their per-plant allocation pool.

Each VMPlant host carries a small, statically installed set of
host-only networks (``vmnet`` switches / ``tap`` devices).  Clones are
created inside a host-only network so they are isolated from other
hosts and from VMs of other clients; the pool dynamically assigns
networks to client domains under the invariant that **two different
client domains never share a host-only network** (Section 3.3).

Because the pool is small (4 per plant in the paper's illustration),
it is a scarce resource: the Section 3.4 cost function charges a
one-time "network cost" exactly when a request requires a fresh
allocation from this pool.

Every plant bid asks the pool whether a domain still fits, so the
queries are O(1) on maintained state: a switch is assigned iff its
domain is a key of the domain map, hence ``free_count`` is a
difference of two lengths.  Only a fresh allocation scans for the
first free switch.  A switch, once assigned, stays with its domain
(the paper's one-time network charge), so what a VM holds is one
lease — its switch and guest address — in one ``vmid`` table.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.errors import VNetError

__all__ = ["HostOnlyNetwork", "IPAllocator", "HostOnlyNetworkPool"]

#: The flat ``{SUBNET_BASE}.{100+i}`` subnets of a pool given no
#: explicit ``subnets``.
SUBNET_BASE = "192.168"


class HostOnlyNetwork:
    """One vmnet/tap switch, its assignment and its guest addresses."""

    def __init__(self, network_id: str, subnet: str):
        self.network_id = network_id
        self.subnet = subnet
        #: Client domain currently owning the switch (None = free).
        self.domain: Optional[str] = None
        #: Guest addresses of the subnet, handed out to its leases.
        self.addresses = IPAllocator(subnet)

    @property
    def is_free(self) -> bool:
        """True when unassigned."""
        return self.domain is None


class IPAllocator:
    """Sequential guest-IP assignment within one host-only subnet.

    Release/reuse is O(1): returned addresses go on a deque (FIFO, so
    reuse order matches the former ``list.pop(0)`` behaviour without
    its O(n) shift) with a membership set guarding against the same
    address being returned twice — a double release would otherwise
    hand one address to two guests and silently break the isolation
    story at federation scale.
    """

    def __init__(self, subnet: str, first_host: int = 2, last_host: int = 254):
        if not 0 < first_host <= last_host <= 254:
            raise ValueError("invalid host address range")
        self.subnet = subnet
        self._first = first_host
        self._next = first_host
        self._last = last_host
        self._released: "deque[int]" = deque()
        self._released_set: Set[int] = set()

    def allocate(self) -> str:
        """Next free address in the subnet."""
        if self._released:
            host = self._released.popleft()
            self._released_set.discard(host)
        elif self._next <= self._last:
            host = self._next
            self._next += 1
        else:
            raise VNetError(f"subnet {self.subnet} exhausted")
        return f"{self.subnet}.{host}"

    def release(self, address: str) -> None:
        """Return an address to the pool.

        Raises :class:`VNetError` for addresses outside the subnet,
        never handed out, or already released (double release).
        """
        prefix, _, host_s = address.rpartition(".")
        if prefix != self.subnet:
            raise VNetError(f"{address} not in subnet {self.subnet}")
        host = int(host_s)
        if not self._first <= host < self._next:
            raise VNetError(
                f"{address} was never allocated from {self.subnet}"
            )
        if host in self._released_set:
            raise VNetError(f"{address} released twice")
        self._released.append(host)
        self._released_set.add(host)


class NetworkAssignment(NamedTuple):
    """Result of attaching a VM: its switch and guest address."""

    network_id: str
    ip_address: str
    #: True when this attach consumed a previously free switch —
    #: the event that incurs the one-time network cost.
    fresh_allocation: bool


class HostOnlyNetworkPool:
    """The plant's pool of host-only networks.

    A domain's switch stays assigned once allocated (the paper's
    one-time-charge illustration): collecting a domain's last VM
    returns its address, not its switch.

    ``subnets`` assigns the switches *explicit* subnets instead of the
    flat ``{SUBNET_BASE}.{100+i}`` scheme — this is how a federated
    site's :class:`~repro.federation.addressing.SubnetBlock` hands
    each plant globally unique address space (site prefix → subnet
    block → host range) instead of every plant in the grid reusing
    the same four ``192.168.10x`` subnets.
    """

    def __init__(
        self,
        plant_name: str,
        count: int = 4,
        subnets: Optional[Sequence[str]] = None,
    ):
        if subnets is not None:
            subnets = list(subnets)
            if not subnets:
                raise ValueError("subnets must be non-empty when given")
            if len(set(subnets)) != len(subnets):
                raise ValueError("subnets must be distinct")
            count = len(subnets)
        if count <= 0:
            raise ValueError("count must be positive")
        self.plant_name = plant_name
        self.networks: List[HostOnlyNetwork] = [
            HostOnlyNetwork(
                network_id=f"{plant_name}/vmnet{i}",
                subnet=(
                    subnets[i]
                    if subnets is not None
                    else f"{SUBNET_BASE}.{100 + i}"
                ),
            )
            for i in range(count)
        ]
        #: domain -> its switch; holds exactly the assigned switches
        #: (:meth:`check_isolation` asserts it), which is what lets
        #: :attr:`free_count` answer without scanning them.
        self._by_domain: Dict[str, HostOnlyNetwork] = {}
        #: vmid -> (switch, guest address): the one record of a VM's
        #: attachment; read-only outside this class.
        self.leases: Dict[str, Tuple[HostOnlyNetwork, str]] = {}
        #: Monotonic mutation counter (memo invalidation in the plant's
        #: ``description_ad``, which publishes ``free_count``).
        self.version = 0

    # -- queries ------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Number of unassigned switches (O(1), no scan)."""
        return len(self.networks) - len(self._by_domain)

    def network_of(self, domain: str) -> Optional[HostOnlyNetwork]:
        """The switch currently assigned to ``domain``, if any."""
        return self._by_domain.get(domain)

    def has_capacity_for(self, domain: str) -> bool:
        """Can a VM of ``domain`` be attached (existing or fresh)?"""
        by_domain = self._by_domain
        return domain in by_domain or len(by_domain) < len(self.networks)

    def would_be_fresh(self, domain: str) -> bool:
        """Would attaching a VM of ``domain`` consume a free switch?"""
        return domain not in self._by_domain

    # -- allocation -----------------------------------------------------------
    def attach(self, domain: str, vmid: str) -> NetworkAssignment:
        """Attach a VM to its domain's switch, allocating if needed.

        Raises :class:`VNetError` when the pool is exhausted for a new
        domain.  The isolation invariant holds by construction: a
        switch is only ever handed to its assigned domain.
        """
        leases = self.leases
        if vmid in leases:
            raise VNetError(f"vm {vmid!r} already attached")
        net = self._by_domain.get(domain)
        fresh = net is None
        if net is None:
            net = next((n for n in self.networks if n.is_free), None)
            if net is None:
                raise VNetError(
                    f"plant {self.plant_name}: no free host-only network "
                    f"for domain {domain!r}"
                )
            net.domain = domain
            self._by_domain[domain] = net
        ip = net.addresses.allocate()
        leases[vmid] = (net, ip)
        self.version += 1
        return NetworkAssignment(
            network_id=net.network_id,
            ip_address=ip,
            fresh_allocation=fresh,
        )

    def rename(self, old_vmid: str, new_vmid: str) -> None:
        """Rekey an attached VM (pooled-VM adoption keeps its IP)."""
        leases = self.leases
        if old_vmid not in leases:
            raise VNetError(f"vm {old_vmid!r} not attached")
        if new_vmid in leases:
            raise VNetError(f"vm {new_vmid!r} already attached")
        leases[new_vmid] = leases.pop(old_vmid)
        self.version += 1

    def detach(self, vmid: str) -> bool:
        """Detach a collected VM, returning its address to its switch.

        Returns True when a lease was actually released (idempotent:
        unknown vmids are a no-op returning False).
        """
        lease = self.leases.pop(vmid, None)
        if lease is None:
            return False
        net, ip = lease
        net.addresses.release(ip)
        self.version += 1
        return True

    def attached_count(self) -> int:
        """VMs currently holding a lease (leak auditing)."""
        return len(self.leases)

    def check_isolation(self) -> None:
        """Assert the cross-domain isolation invariant (for tests).

        Also asserts what :attr:`free_count` rests on: the domain map
        holds exactly the assigned switches, each under its own domain;
        and that every lease is on an assigned switch, with an address
        of that switch's subnet that no other lease holds.
        """
        owners: Dict[str, str] = {}
        for domain, net in self._by_domain.items():
            if net.network_id in owners:
                raise VNetError(
                    f"switch {net.network_id} assigned to both "
                    f"{owners[net.network_id]!r} and {domain!r}"
                )
            owners[net.network_id] = domain
            if net.domain != domain:
                raise VNetError(
                    f"switch {net.network_id} is mapped to {domain!r} "
                    f"but records domain {net.domain!r}"
                )
        for net in self.networks:
            if not net.is_free and net.network_id not in owners:
                raise VNetError(
                    f"switch {net.network_id} is assigned to "
                    f"{net.domain!r} but missing from the domain map"
                )
        held: Set[str] = set()
        for vmid, (net, ip) in self.leases.items():
            if net.network_id not in owners:
                raise VNetError(
                    f"vm {vmid!r} leases unassigned switch {net.network_id}"
                )
            if ip in held or ip.rpartition(".")[0] != net.subnet:
                raise VNetError(
                    f"vm {vmid!r} leases {ip} on {net.network_id}, "
                    "outside its subnet or held twice"
                )
            held.add(ip)
