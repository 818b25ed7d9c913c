"""One federated site.

A :class:`FederatedSite` is the classic SC'04 testbed plus the three
federation layers: a rack-level :class:`~repro.shop.broker.VMBroker`
tier in front of the site shop (the shop bids against ~⌈plants/rack⌉
brokers instead of every plant), the site's
:class:`~repro.federation.addressing.SubnetBlock` feeding every plant
pool globally unique subnets, and a
:class:`~repro.federation.gateway.FederationGateway` deciding when a
request spills to another site.

The grid scenario (:mod:`repro.federation.scenario`) builds one site
per kernel :class:`~repro.sim.kernel.Environment`; cross-site traffic
rides :class:`~repro.sim.network.BoundaryLink`\\ s.  Several sites in
one process are the same scenario at one shard,
``ShardedTestbed(..., shards=1)``.
"""

from __future__ import annotations

from typing import Optional

from repro.federation.addressing import HierarchicalAddressPlan, SubnetBlock
from repro.federation.gateway import FederationGateway
from repro.sim.cluster import Testbed, build_testbed
from repro.sim.kernel import Environment
from repro.sim.shard.scenarios import site_seed

__all__ = ["FederatedSite", "build_federated_site"]

#: Default rack-broker width: 8 plants (one paper cluster) per rack.
DEFAULT_RACK_SIZE = 8


class FederatedSite:
    """Handle to one assembled site of the federation."""

    def __init__(
        self,
        site: int,
        bed: Testbed,
        gateway: FederationGateway,
        block: SubnetBlock,
    ):
        self.site = site
        self.bed = bed
        self.gateway = gateway
        self.block = block


def build_federated_site(
    site: int,
    sites: int,
    seed: int = 0,
    n_plants: int = 8,
    rack_size: Optional[int] = DEFAULT_RACK_SIZE,
    plan: Optional[HierarchicalAddressPlan] = None,
    spill_threshold: Optional[float] = None,
    env: Optional[Environment] = None,
    networks_per_plant: int = 4,
    **testbed_kw,
) -> FederatedSite:
    """Assemble site ``site`` of an ``sites``-site federation.

    The site seed, name prefix and subnet block are all pure
    functions of ``(seed, site, sites)`` so a forked worker rebuilds
    exactly the site the coordinator planned.  ``spill_threshold`` is
    the gateway's; extra keyword arguments pass through to
    :func:`~repro.sim.cluster.build_testbed`.
    """
    plan = plan or HierarchicalAddressPlan(sites)
    block = plan.block(site)
    needed = n_plants * networks_per_plant
    if needed > block.size:
        raise ValueError(
            f"site {site}: {n_plants} plants x {networks_per_plant} "
            f"subnets exceed the site block ({block.size} subnets); "
            f"use fewer sites or a larger subnets_per_site"
        )
    bed = build_testbed(
        seed=site_seed(seed, site),
        n_plants=n_plants,
        env=env,
        rack_size=rack_size,
        address_block=block,
        name_prefix=f"site{site}-",
        networks_per_plant=networks_per_plant,
        **testbed_kw,
    )
    gateway = FederationGateway(site, bed.shop, spill_threshold)
    return FederatedSite(site=site, bed=bed, gateway=gateway, block=block)
