"""Provisioning-throughput feature switches.

The paper's clone-time breakdown (Section 5, Tables 2-3) shows the
NFS transfer of the golden machine's suspended state dominating
creation time, and warm NFS caches cutting it dramatically.  Four
optional mechanisms model (and go beyond) that effect under heavy
concurrent traffic:

* **host-side golden-state cache** — each
  :class:`~repro.sim.host.PhysicalHost` keeps an LRU replica of
  recently cloned per-clone state on its local disk, bounded by
  ``host_cache_mb``; repeat clones of a cached image skip the shared
  NFS link and pay only local-copy latency (the warm-cache effect);
* **in-flight transfer coalescing** — concurrent clones of the same
  image onto the same host share one
  :class:`~repro.sim.network.FairShareLink` transfer instead of N
  contending flows;
* **adaptive speculative pools** — each plant pre-creates clones
  sized to its observed arrival rate and serves requests by extending
  a pooled VM, quoting a discounted bid when one is available (see
  :class:`~repro.plant.speculative.AdaptiveSpeculativePool`);
* **peer distribution trees** — golden-image delivery becomes a k-ary
  broadcast tree over per-host cluster uplinks instead of N pulls on
  the one warehouse link (see :mod:`repro.distribution`).

Everything defaults to **off**: a testbed built without an explicit
:class:`ProvisioningConfig` (or with the default one) reproduces the
seed golden trajectories bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProvisioningConfig", "FULL_PROVISIONING"]


@dataclass(frozen=True)
class ProvisioningConfig:
    """Switches and tunables of the provisioning-throughput layer."""

    #: Host golden-state cache budget (MB); 0 disables the cache.
    host_cache_mb: float = 0.0
    #: Share in-flight warehouse transfers per (host, image)?
    coalesce_transfers: bool = False
    #: Attach an adaptive speculative pool manager to every plant?
    speculative_pools: bool = False

    # -- adaptive pool tunables -------------------------------------------
    #: Hit-rate the pool sizes itself toward.
    pool_target_hit_rate: float = 0.9
    pool_min_target: int = 0
    pool_max_target: int = 4
    #: Arrivals remembered per (image, domain) for rate estimation.
    pool_window: int = 8
    #: Assumed lead time (s) to fill one clone; scales pool depth.
    pool_lead_time_s: float = 45.0
    #: Bid multiplier quoted when a pooled VM can serve the request.
    pool_bid_discount: float = 0.25

    # -- peer distribution trees -------------------------------------------
    #: Deliver LINK clone state over peer broadcast trees?
    distribution_tree: bool = False
    #: Concurrent peer serves per source host (1 = chained, 2 = binary).
    tree_fanout: int = 2
    #: Must be ``False`` (there is no replica placer); the field stays
    #: because recorded configurations spell it out.
    replica_placement: bool = False

    def __post_init__(self) -> None:
        if self.host_cache_mb < 0:
            raise ValueError("host_cache_mb must be non-negative")
        if not 0.0 < self.pool_target_hit_rate <= 1.0:
            raise ValueError("pool_target_hit_rate must be in (0, 1]")
        if self.pool_min_target < 0 or self.pool_max_target < 0:
            raise ValueError("pool targets must be non-negative")
        if self.pool_min_target > self.pool_max_target:
            raise ValueError("pool_min_target exceeds pool_max_target")
        if self.pool_window < 2:
            raise ValueError("pool_window must be at least 2")
        if self.pool_lead_time_s <= 0:
            raise ValueError("pool_lead_time_s must be positive")
        if not 0.0 < self.pool_bid_discount <= 1.0:
            raise ValueError("pool_bid_discount must be in (0, 1]")
        if self.tree_fanout < 1:
            raise ValueError("tree_fanout must be at least 1")
        if self.replica_placement:
            raise ValueError(
                "replica_placement: the popularity-driven replica placer "
                "(ReplicaPlacer) was removed; only False is accepted"
            )


#: Everything on, with a cache budget that comfortably holds the
#: paper warehouse's per-clone state (three images, ≤ 272 MB each).
FULL_PROVISIONING = ProvisioningConfig(
    host_cache_mb=1024.0,
    coalesce_transfers=True,
    speculative_pools=True,
    distribution_tree=True,
)
