"""Hierarchical vnet address allocation: site → subnet block → host.

The single-site pool hands every plant the same flat
``192.168.{100+i}`` subnets: addresses are only unique *within* one
plant's host-only switch, and the whole flat ``/16`` tops out at 256
subnets — a hard ceiling of ~64 plants (4 nets each) and ~10k guest
addresses once VM density is realistic, the same IP-space wall that
caps vm5k-style Grid'5000 deployments.  Federation needs globally
unique guest addresses, so the space is split hierarchically:

* the **plan** owns one private ``/8`` (``base_octet``, default 10)
  holding 65536 ``/24`` subnets;
* each **site** gets a contiguous :class:`SubnetBlock` of
  ``subnets_per_site`` subnets (site prefix);
* each plant pool draws its switch subnets from its site's block
  (subnet block), and :class:`~repro.vnet.hostonly.IPAllocator`
  assigns the host range within each subnet as before.

Sixteen sites therefore get 4096 subnets (≈1M guest addresses) each
— past the 10k-plant / 100k-VM rung — while any two sites' address
spaces stay provably disjoint.  Block allocation mirrors the
IP-allocator discipline: sequential first, O(1) FIFO reuse of
released subnets, and a double-release guard.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

from repro.core.errors import VNetError

__all__ = ["SubnetBlock", "HierarchicalAddressPlan"]

#: ``/24`` subnets in one ``/8`` plan (256 * 256 second/third octets).
_TOTAL_SUBNETS = 256 * 256
#: Usable guest addresses per ``/24`` (hosts .2 — .254).
ADDRESSES_PER_SUBNET = 253


class SubnetBlock:
    """One site's contiguous range of ``/24`` subnets."""

    __slots__ = (
        "site",
        "base_octet",
        "start",
        "end",
        "_next",
        "_released",
        "_released_set",
    )

    def __init__(self, site: int, base_octet: int, start: int, count: int):
        if count <= 0:
            raise ValueError("subnet block must hold at least one subnet")
        if start < 0 or start + count > _TOTAL_SUBNETS:
            raise ValueError(
                f"subnet block [{start}, {start + count}) outside the "
                f"{_TOTAL_SUBNETS}-subnet plan"
            )
        self.site = site
        self.base_octet = base_octet
        self.start = start
        self.end = start + count
        self._next = start
        self._released: "deque[int]" = deque()
        self._released_set: Set[int] = set()

    def _subnet(self, index: int) -> str:
        return f"{self.base_octet}.{index >> 8}.{index & 0xFF}"

    def _index(self, subnet: str) -> int:
        parts = subnet.split(".")
        if len(parts) != 3 or parts[0] != str(self.base_octet):
            raise VNetError(
                f"subnet {subnet!r} not of this plan "
                f"(expected {self.base_octet}.x.y)"
            )
        try:
            second, third = int(parts[1]), int(parts[2])
        except ValueError:
            raise VNetError(f"malformed subnet {subnet!r}") from None
        if not (0 <= second <= 255 and 0 <= third <= 255):
            raise VNetError(f"malformed subnet {subnet!r}")
        return (second << 8) | third

    @property
    def size(self) -> int:
        """Subnets this block spans."""
        return self.end - self.start

    @property
    def allocated(self) -> int:
        """Subnets currently handed out."""
        return (self._next - self.start) - len(self._released)

    @property
    def remaining(self) -> int:
        """Subnets still allocatable."""
        return self.size - self.allocated

    def allocate(self) -> str:
        """Next free subnet in the block (``"base.x.y"``).

        Released subnets are reused FIFO before the sequential cursor
        moves; exhaustion raises :class:`VNetError`.
        """
        if self._released:
            index = self._released.popleft()
            self._released_set.discard(index)
        elif self._next < self.end:
            index = self._next
            self._next += 1
        else:
            raise VNetError(
                f"site {self.site} subnet block exhausted "
                f"({self.size} subnets)"
            )
        return self._subnet(index)

    def allocate_many(self, count: int) -> List[str]:
        """Allocate ``count`` subnets (e.g. one plant pool's worth)."""
        return [self.allocate() for _ in range(count)]

    def release(self, subnet: str) -> None:
        """Return a subnet to the block.

        Raises :class:`VNetError` for subnets outside the block, never
        allocated, or already released.
        """
        index = self._index(subnet)
        if not self.start <= index < self.end:
            raise VNetError(
                f"subnet {subnet} belongs to another site's block "
                f"(site {self.site} owns [{self._subnet(self.start)}, "
                f"{self._subnet(self.end - 1)}])"
            )
        if index >= self._next:
            raise VNetError(f"subnet {subnet} was never allocated")
        if index in self._released_set:
            raise VNetError(f"subnet {subnet} released twice")
        self._released.append(index)
        self._released_set.add(index)

    def __contains__(self, subnet: str) -> bool:
        try:
            index = self._index(subnet)
        except VNetError:
            return False
        return self.start <= index < self.end


class HierarchicalAddressPlan:
    """The grid-wide address hierarchy: one block per site.

    The plan is a pure function of ``(sites, base_octet,
    subnets_per_site)`` — every worker process rebuilding its own site
    derives the *same* disjoint block for it, so no allocation state
    ever crosses a process boundary.
    """

    def __init__(
        self,
        sites: int,
        base_octet: int = 10,
        subnets_per_site: int = 0,
    ):
        if sites <= 0:
            raise ValueError("sites must be positive")
        if not 0 < base_octet <= 255:
            raise ValueError("base_octet must be in [1, 255]")
        if subnets_per_site <= 0:
            subnets_per_site = _TOTAL_SUBNETS // sites
        if sites * subnets_per_site > _TOTAL_SUBNETS:
            raise ValueError(
                f"{sites} sites x {subnets_per_site} subnets exceed the "
                f"{_TOTAL_SUBNETS}-subnet plan"
            )
        if subnets_per_site <= 0:
            raise ValueError(
                f"{sites} sites leave no subnets per site"
            )
        self.sites = sites
        self.base_octet = base_octet
        self.subnets_per_site = subnets_per_site
        self._blocks: dict = {}

    def block(self, site: int) -> SubnetBlock:
        """The (cached) subnet block of ``site``."""
        if not 0 <= site < self.sites:
            raise ValueError(
                f"site {site} outside [0, {self.sites})"
            )
        blk = self._blocks.get(site)
        if blk is None:
            blk = SubnetBlock(
                site,
                self.base_octet,
                site * self.subnets_per_site,
                self.subnets_per_site,
            )
            self._blocks[site] = blk
        return blk

    def site_of(self, address: str) -> int:
        """Reverse lookup: which site's block holds this subnet/IP?"""
        parts = address.split(".")
        if len(parts) == 4:
            parts = parts[:3]
        index = SubnetBlock(0, self.base_octet, 0, 1)._index(
            ".".join(parts)
        )
        site = index // self.subnets_per_site
        if site >= self.sites:
            raise VNetError(
                f"{address} outside every site block of this plan"
            )
        return site

    @property
    def site_capacity(self) -> int:
        """Guest addresses one site's block can serve."""
        return self.subnets_per_site * ADDRESSES_PER_SUBNET

    @property
    def total_capacity(self) -> int:
        """Guest addresses across all site blocks."""
        return self.sites * self.site_capacity
