"""Builder for the simulated SC'04 experimental testbed.

Section 4.2: an 8-node IBM e1350 cluster (dual 2.4 GHz P4, 1.5 GB RAM
per node), each node running a VMPlant with a VMware GSX production
line; the warehouse is NFS-mounted from a RAID5 storage server over
100 Mbit/s switched Ethernet; the VMShop runs on a cluster node.

:func:`build_testbed` assembles the whole site — hosts, shared NFS
path, warehouse with the paper's golden machines, plants, shop — and
returns a :class:`Testbed` handle the experiments drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cost.models import CostModel, MemoryAvailableCost
from repro.faults.recovery import RecoveryPolicy
from repro.plant.speculative import AdaptiveSpeculativePool
from repro.plant.vmplant import VMPlant
from repro.provisioning import ProvisioningConfig
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.shop.broker import VMBroker
from repro.shop.protocol import Transport
from repro.shop.registry import ServiceRegistry
from repro.shop.vmshop import VMShop
from repro.sim.host import HostStateCache, PhysicalHost
from repro.sim.hypervisor import CloneRecord, UMLLine, VMwareLine
from repro.sim.kernel import Environment
from repro.sim.latency import DEFAULT_LATENCY, LatencyModel
from repro.sim.network import FairShareLink
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer, ReplicatedWarehouseStorage
from repro.vnet.hostonly import HostOnlyNetworkPool
from repro.vnet.vnetd import VirtualNetworkService
from repro.workloads.requests import golden_image

__all__ = ["Testbed", "build_testbed", "run_process"]


def run_process(env: Environment, generator) -> object:
    """Drive one process generator to completion; return its value."""
    proc = env.process(generator)
    return env.run(until=proc)


@dataclass
class Testbed:
    """Handle to an assembled simulated site."""

    env: Environment
    rng: RngHub
    latency: LatencyModel
    shop: VMShop
    plants: List[VMPlant]
    hosts: List[PhysicalHost]
    nfs: NFSServer
    warehouse: VMWarehouse
    registry: ServiceRegistry
    vnet: VirtualNetworkService
    #: Gigabit inter-node network (used by VM migration).
    internode: FairShareLink = None
    lines: Dict[str, List[object]] = field(default_factory=dict)
    #: Provisioning-throughput switches this site was built with.
    provisioning: ProvisioningConfig = field(
        default_factory=ProvisioningConfig
    )
    #: Per-plant adaptive speculative pool managers (when enabled).
    pools: List[object] = field(default_factory=list)
    #: Peer distribution-tree planner (None unless enabled).
    distribution: Optional[object] = None
    #: Rack-level :class:`~repro.shop.broker.VMBroker` tier (empty
    #: unless built with ``rack_size``); when present the shop bids
    #: against these brokers, not the plants directly.
    racks: List[VMBroker] = field(default_factory=list)

    def run(self, generator) -> object:
        """Drive one process generator to completion on this env."""
        return run_process(self.env, generator)

    def attach_tracer(self, capacity: Optional[int] = None):
        """Attach (and return) a structured event tracer."""
        from repro.sim.trace import Tracer

        tracer = Tracer(capacity=capacity)
        self.env.tracer = tracer
        return tracer

    def clone_records(self, vm_type: Optional[str] = None) -> List[CloneRecord]:
        """All clone records across plants, in start order."""
        records: List[CloneRecord] = []
        for vt, line_list in self.lines.items():
            if vm_type is not None and vt != vm_type:
                continue
            for line in line_list:
                records.extend(line.clone_records)
        records.sort(key=lambda r: r.started_at)
        return records


def build_testbed(
    seed: int = 0,
    n_plants: int = 8,
    memory_sizes: Sequence[int] = (32, 64, 256),
    vm_types: Sequence[str] = ("vmware",),
    latency: LatencyModel = DEFAULT_LATENCY,
    cost_model: Optional[CostModel] = None,
    clone_failure_prob: float = 0.0,
    action_failure_prob: float = 0.0,
    host_memory_mb: float = 1536.0,
    networks_per_plant: int = 4,
    max_vms_per_plant: Optional[int] = None,
    extra_images: Sequence[GoldenImage] = (),
    retry_other_plants: bool = False,
    nfs_replicas: int = 1,
    provisioning: Optional[ProvisioningConfig] = None,
    recovery: Optional["RecoveryPolicy"] = None,
    env: Optional[Environment] = None,
    rack_size: Optional[int] = None,
    address_block: Optional[object] = None,
    name_prefix: str = "",
    site: int = 0,
):
    """Assemble the simulated site.

    The default arguments reproduce the paper's setup; experiments
    override ``clone_failure_prob`` (per-run), ``vm_types`` (the UML
    study) and the cost model (Section 3.4 illustration).
    ``provisioning`` switches on the throughput layer (host-side
    golden-state caches, transfer coalescing, speculative pools, peer
    distribution trees); omitted or
    defaulted it changes nothing.  ``recovery`` configures
    the shop's fault-recovery ladder (deadlines, backoff re-bids,
    plant quarantine); omitted, every knob is off.

    ``env`` lets a caller supply the environment the site lives in —
    the shard runner uses this to place each site in its own kernel.
    Several sites are a :class:`~repro.sim.shard.plan.ShardedTestbed`
    plan, built directly (see ``repro.sim.shard``).

    Federation knobs (all inert by default): ``rack_size`` inserts a
    rack-level :class:`~repro.shop.broker.VMBroker` tier — plants are
    grouped into brokers of that size and the shop bids against the
    brokers (one transport call per rack, not per plant), the §3.1
    "indirectly through VMBrokers" path.  ``address_block`` (a
    :class:`~repro.federation.addressing.SubnetBlock`) makes every
    plant pool draw its host-only subnets from the site's block of
    the grid address plan instead of the flat ``192.168/16`` default.
    ``name_prefix`` keeps service/host names grid-unique (a merged
    multi-site trace names them side by side); ``site`` tags the site index
    onto site-aware components (the distribution planner's peer
    stores).
    """
    if n_plants <= 0:
        raise ValueError("n_plants must be positive")
    if rack_size is not None and rack_size <= 0:
        raise ValueError("rack_size must be positive")
    prov = provisioning or ProvisioningConfig()
    if env is None:
        env = Environment()
    rng = RngHub(seed)
    registry = ServiceRegistry()
    vnet = VirtualNetworkService()
    if nfs_replicas < 1:
        raise ValueError("nfs_replicas must be >= 1")
    if nfs_replicas == 1:
        nfs = NFSServer(env, f"{name_prefix}nfs", latency=latency, rng=rng)
    else:
        nfs = ReplicatedWarehouseStorage(
            [
                NFSServer(
                    env, f"{name_prefix}nfs{i}", latency=latency, rng=rng
                )
                for i in range(nfs_replicas)
            ]
        )
    # The cluster nodes are interconnected by a gigabit switch
    # (Section 4.2); migrations move VM state across it.
    internode = FairShareLink(env, "internode", bandwidth_mbps=110.0)

    distribution = None
    if prov.distribution_tree:
        from repro.distribution.planner import DistributionPlanner

        distribution = DistributionPlanner(
            env,
            nfs,
            latency=latency,
            fanout=prov.tree_fanout,
            peer_bandwidth_mbps=prov.peer_bandwidth_mbps,
        )

    warehouse = VMWarehouse()
    for vm_type in vm_types:
        for memory in memory_sizes:
            warehouse.publish(golden_image(memory, vm_type=vm_type))
    for image in extra_images:
        warehouse.publish(image)

    transport = Transport(
        env, rng, latency_s=latency.transport_latency_s
    )
    shop = VMShop(
        env,
        f"{name_prefix}vmshop",
        transport=transport,
        rng=rng,
        registry=registry,
        retry_other_plants=retry_other_plants,
        recovery=recovery,
    )

    hosts: List[PhysicalHost] = []
    plants: List[VMPlant] = []
    lines_by_type: Dict[str, List[object]] = {vt: [] for vt in vm_types}
    pools: List[object] = []
    # The peer store serves from the host cache, so the tree layer
    # forces one into existence even when host_cache_mb is 0.
    cache_mb = prov.host_cache_mb
    if prov.distribution_tree:
        cache_mb = max(cache_mb, prov.peer_store_mb)
    for i in range(n_plants):
        host = PhysicalHost(
            env,
            f"{name_prefix}node{i}",
            memory_mb=host_memory_mb,
            latency=latency,
            state_cache=(
                HostStateCache(cache_mb) if cache_mb > 0 else None
            ),
        )
        hosts.append(host)
        if distribution is not None:
            distribution.register_host(host, site=site)
        lines = {}
        for vm_type in vm_types:
            line_cls = VMwareLine if vm_type == "vmware" else UMLLine
            line = line_cls(
                env,
                host,
                nfs,
                rng=rng,
                latency=latency,
                clone_failure_prob=clone_failure_prob,
                action_failure_prob=action_failure_prob,
                coalesce_transfers=prov.coalesce_transfers,
                distribution=distribution,
            )
            lines[vm_type] = line
            lines_by_type[vm_type].append(line)
        plant = VMPlant(
            env,
            f"{name_prefix}plant{i}",
            warehouse,
            lines,
            cost_model=cost_model or MemoryAvailableCost(),
            host_memory_mb=int(host_memory_mb),
            max_vms=max_vms_per_plant,
            network_pool=HostOnlyNetworkPool(
                f"{name_prefix}plant{i}",
                count=networks_per_plant,
                subnets=(
                    address_block.allocate_many(networks_per_plant)
                    if address_block is not None
                    else None
                ),
            ),
            vnet_service=vnet,
        )
        plants.append(plant)
        if rack_size is None:
            shop.register_plant(plant)
        else:
            # Plants stay discoverable, but the shop bids through the
            # rack broker tier built below.
            describe = getattr(plant, "description_ad", None)
            registry.publish(
                plant.name,
                "vmplant",
                plant,
                description=describe() if describe else None,
            )
        if prov.speculative_pools:
            manager = AdaptiveSpeculativePool(
                plant,
                target_hit_rate=prov.pool_target_hit_rate,
                min_target=prov.pool_min_target,
                max_target=prov.pool_max_target,
                window=prov.pool_window,
                lead_time_s=prov.pool_lead_time_s,
                bid_discount=prov.pool_bid_discount,
            )
            plant.attach_speculative(manager)
            pools.append(manager)

    racks: List[VMBroker] = []
    if rack_size is not None:
        for j in range(0, n_plants, rack_size):
            rack = VMBroker(
                f"{name_prefix}rack{j // rack_size}",
                plants[j : j + rack_size],
            )
            racks.append(rack)
            shop.bidders.append(rack)
            registry.publish(rack.name, "vmbroker", rack)

    return Testbed(
        env=env,
        rng=rng,
        latency=latency,
        shop=shop,
        plants=plants,
        hosts=hosts,
        nfs=nfs,
        warehouse=warehouse,
        registry=registry,
        vnet=vnet,
        internode=internode,
        lines=lines_by_type,
        provisioning=prov,
        pools=pools,
        distribution=distribution,
        racks=racks,
    )
