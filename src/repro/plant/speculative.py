"""Speculative pre-creation of VM clones (Section 6, future work).

The paper suggests hiding instantiation latency by cloning golden
machines *before* requests arrive.  :class:`SpeculativeClonePool`
implements that on top of the ordinary plant services: it pre-creates
clones of a prototype request whose DAG is exactly the golden image's
performed prefix (so no configuration work happens at fill time), and
serves later requests by *extending* a pooled VM with the request's
residual actions — paying only the configuration cost at request time.

Pooled VMs are domain-bound (they were attached to the prototype
domain's host-only network at fill time), so a pool serves one client
domain; acquire falls back to ``None`` on any mismatch and the caller
creates normally.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.core.classad import ClassAd
from repro.core.dag import ConfigDAG
from repro.core.errors import PlantError, ReproError
from repro.core.spec import CreateRequest, SoftwareSpec
from repro.plant.vmplant import VMPlant

__all__ = ["SpeculativeClonePool", "AdaptiveSpeculativePool"]


class SpeculativeClonePool:
    """Pre-warmed clones for one (plant, image, domain) combination."""

    def __init__(
        self,
        plant: VMPlant,
        prototype: CreateRequest,
        target: int = 2,
        vmid_prefix: str = "spec",
    ):
        if target < 0:
            raise ValueError("target must be non-negative")
        base_dag = self._base_dag(plant, prototype)
        self.plant = plant
        self.prototype = prototype
        self.base_request = CreateRequest(
            hardware=prototype.hardware,
            software=SoftwareSpec(os=prototype.software.os, dag=base_dag),
            network=prototype.network,
            client_id=f"{prototype.client_id}-speculative",
            vm_type=prototype.vm_type,
        )
        self.target = target
        self.vmid_prefix = vmid_prefix
        self._seq = 0
        self._pool: List[str] = []
        #: Pool statistics for the ablation benches.
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _base_dag(plant: VMPlant, prototype: CreateRequest) -> ConfigDAG:
        """DAG covering exactly the matched golden image's prefix."""
        image, result = plant.warehouse.select(
            prototype.dag,
            prototype.hardware,
            prototype.software.os,
            prototype.vm_type,
        )
        if image is None or result is None:
            raise PlantError(
                "no golden image matches the speculative prototype"
            )
        return prototype.dag.subdag(result.satisfied)

    # -- pool management -----------------------------------------------------
    @property
    def size(self) -> int:
        """Clones currently idling in the pool."""
        return len(self._pool)

    def fill(self) -> Generator:
        """Pre-create clones until the pool holds ``target`` VMs.

        Returns the number of clones created.  Intended to run in the
        background (e.g. ``env.process(pool.fill())``) between
        requests.
        """
        created = 0
        while len(self._pool) < self.target:
            self._seq += 1
            vmid = f"{self.vmid_prefix}-{self.plant.name}-{self._seq}"
            yield self.plant.create(self.base_request, vmid)
            self._pool.append(vmid)
            created += 1
        return created

    def _compatible(self, request: CreateRequest) -> bool:
        proto = self.prototype
        return (
            request.network.domain == proto.network.domain
            and request.hardware == proto.hardware
            and request.software.os == proto.software.os
            and request.vm_type == proto.vm_type
        )

    def acquire(
        self, request: CreateRequest, vmid: Optional[str] = None
    ) -> Generator:
        """Serve ``request`` from the pool; returns a classad or None.

        On a hit the pooled clone is extended with the request's
        residual configuration — the client-visible latency is just
        that configuration time.  With ``vmid`` given (the shop
        assigns ids) the pooled clone is first *adopted* under that
        id, so the client sees an ordinary machine.  On a miss (empty
        pool or incompatible request) the caller should fall back to a
        normal ``create``.
        """
        if not self._pool or not self._compatible(request):
            self.misses += 1
            return None
        pooled = self._pool.pop(0)
        serving = pooled
        if vmid is not None:
            self.plant.rename_vm(pooled, vmid)
            serving = vmid
        try:
            ad: ClassAd = yield self.plant.extend(
                serving, request.dag, {"client": request.client_id}
            )
        except PlantError:
            # Extension mismatch: the clone stays usable for others.
            if vmid is not None:
                self.plant.rename_vm(vmid, pooled)
            self._pool.insert(0, pooled)
            self.misses += 1
            return None
        self.plant.infosys.update(serving, {"client": request.client_id})
        self.hits += 1
        ad["speculative"] = True
        ad["client"] = request.client_id
        return ad

    def invalidate(self) -> int:
        """Forget all idle pooled clones without collecting them.

        Crash path: the host already killed the VMs, so the pool just
        drops its slots.  Returns the number of slots dropped.
        """
        dropped = len(self._pool)
        self._pool.clear()
        return dropped

    def drain(self) -> Generator:
        """Collect all idle pooled clones (shutdown path)."""
        drained = 0
        while self._pool:
            vmid = self._pool.pop()
            yield self.plant.destroy(vmid)
            drained += 1
        return drained


#: Pool identity: one pool per (domain, OS, hardware, vm_type), the
#: hardware spec as its four fields (same equality; hashing the key
#: stays out of the dataclass's Python ``__hash__``).
PoolKey = Tuple[str, str, str, int, float, int, Optional[str]]


class AdaptiveSpeculativePool:
    """Demand-sized speculative pools for one plant.

    Lazily opens a :class:`SpeculativeClonePool` per (domain, OS,
    hardware, vm_type) combination it sees traffic for, remembers the
    last ``window`` arrival times per pool, and resizes each pool
    toward ``target_hit_rate`` of the arrivals expected within one
    clone ``lead_time_s``.  Refills run as background processes so
    pre-creation stays off the request critical path; the plant quotes
    ``bid_discount`` × its normal cost while a pooled VM can serve the
    request (an extend is far cheaper than a full clone).
    """

    def __init__(
        self,
        plant: VMPlant,
        target_hit_rate: float = 0.9,
        min_target: int = 0,
        max_target: int = 4,
        window: int = 8,
        lead_time_s: float = 45.0,
        bid_discount: float = 0.25,
    ):
        if not 0.0 < target_hit_rate <= 1.0:
            raise ValueError("target_hit_rate must be in (0, 1]")
        if min_target < 0 or max_target < min_target:
            raise ValueError("need 0 <= min_target <= max_target")
        if window < 2:
            raise ValueError("window must be at least 2")
        if lead_time_s <= 0:
            raise ValueError("lead_time_s must be positive")
        if not 0.0 < bid_discount <= 1.0:
            raise ValueError("bid_discount must be in (0, 1]")
        #: Weak (here and in every pool opened from here): the plant
        #: owns its manager, ``VMPlant.speculative``.
        self.plant = weakref.proxy(plant)
        self.env = plant.env
        self.target_hit_rate = target_hit_rate
        self.min_target = min_target
        self.max_target = max_target
        self.window = window
        self.lead_time_s = lead_time_s
        self.bid_discount = bid_discount
        self._pools: Dict[PoolKey, SpeculativeClonePool] = {}
        self._arrivals: Dict[PoolKey, Deque[float]] = {}
        #: Keys whose pool is unusable (no matching golden image).
        self._dead: Set[PoolKey] = set()
        self._refilling: Set[PoolKey] = set()
        #: Set by the first :meth:`shutdown`; no refill is armed after.
        self._shut_down = False
        self.hits = 0
        self.misses = 0
        self.refills_started = 0

    @staticmethod
    def _key(request: CreateRequest) -> PoolKey:
        hardware = request.hardware
        return (
            request.network.domain,
            request.software.os,
            hardware.isa,
            hardware.memory_mb,
            hardware.disk_gb,
            hardware.cpus,
            request.vm_type,
        )

    @property
    def pooled_vms(self) -> int:
        """Idle clones across all pools."""
        return sum(p.size for p in self._pools.values())

    # -- sizing --------------------------------------------------------------
    def _observe(self, key: PoolKey) -> None:
        arrivals = self._arrivals.get(key)
        if arrivals is None:
            arrivals = deque(maxlen=self.window)
            self._arrivals[key] = arrivals
        arrivals.append(self.env.now)

    def _desired_target(self, key: PoolKey) -> int:
        """Pool depth to cover ``lead_time_s`` of observed demand."""
        arrivals = self._arrivals.get(key)
        if not arrivals:
            return self.min_target
        if len(arrivals) < 2:
            want = 1
        else:
            span = arrivals[-1] - arrivals[0]
            if span <= 0.0:
                want = self.max_target
            else:
                rate = (len(arrivals) - 1) / span
                want = math.ceil(
                    rate * self.lead_time_s * self.target_hit_rate
                )
        return max(self.min_target, min(self.max_target, want))

    # -- pool plumbing -------------------------------------------------------
    def _pool_for(
        self, key: PoolKey, request: CreateRequest
    ) -> Optional[SpeculativeClonePool]:
        if key in self._dead:
            return None
        pool = self._pools.get(key)
        if pool is None:
            try:
                pool = SpeculativeClonePool(
                    self.plant,
                    request,
                    target=0,
                    vmid_prefix=f"spec{len(self._pools)}",
                )
            except PlantError:
                # No golden image matches: never poolable.
                self._dead.add(key)
                return None
            self._pools[key] = pool
        return pool

    def _schedule_refill(self, key: PoolKey, pool: SpeculativeClonePool) -> None:
        if self._shut_down:
            return
        pool.target = self._desired_target(key)
        if pool.size >= pool.target or key in self._refilling:
            return
        self._refilling.add(key)
        self.refills_started += 1
        self.env.process(self._refill(key, pool))

    def _refill(self, key: PoolKey, pool: SpeculativeClonePool) -> Generator:
        try:
            yield pool.fill()
        except ReproError:
            pass  # plant at capacity / network exhausted: retry later
        finally:
            self._refilling.discard(key)

    # -- request path --------------------------------------------------------
    def available(self, request: CreateRequest) -> bool:
        """Could ``request`` be served from an idle pooled clone now?

        One call per bid: :meth:`_key` and the pool's ``size`` are
        written out here.  The pool key covers exactly the
        ``_compatible`` fields, so the lookup already implies
        compatibility — no per-bid recheck needed.
        """
        if request.client_id.endswith("-speculative"):
            return False  # a pool's own fill traffic
        hardware = request.hardware
        pool = self._pools.get(
            (
                request.network.domain,
                request.software.os,
                hardware.isa,
                hardware.memory_mb,
                hardware.disk_gb,
                hardware.cpus,
                request.vm_type,
            )
        )
        return pool is not None and len(pool._pool) > 0

    def acquire(
        self, request: CreateRequest, vmid: Optional[str] = None
    ) -> Generator:
        """Serve from a pool if possible; returns a classad or None.

        Always observes the arrival and (re)sizes the matching pool,
        so misses teach the manager to pre-create for next time.
        """
        if request.client_id.endswith("-speculative"):
            return None  # a pool's own fill traffic is not demand
        key = self._key(request)
        self._observe(key)
        pool = self._pool_for(key, request)
        if pool is None:
            self.misses += 1
            return None
        ad = yield pool.acquire(request, vmid)
        if ad is not None:
            self.hits += 1
        else:
            self.misses += 1
        self._schedule_refill(key, pool)
        return ad

    def invalidate(self) -> int:
        """Drop every idle pooled slot (host crash path)."""
        return sum(pool.invalidate() for pool in self._pools.values())

    def drain(self) -> Generator:
        """Collect every idle pooled clone (shutdown path)."""
        drained = 0
        for pool in self._pools.values():
            pool.target = 0
            count = yield pool.drain()
            drained += count
        return drained

    def shutdown(self) -> Generator:
        """Drain until empty *and* no refill is in flight.

        ``drain`` alone can race a refill: the clone being created
        when targets are zeroed still lands in its pool afterwards.
        Shutdown keeps draining until the refill processes settle, so
        nothing idle survives it — the end-of-run leak audit relies
        on this.

        Shutdown is final: a request that reaches the plant afterwards
        (a spill served once the site's own arrivals have drained) is
        still answered by :meth:`acquire` — with nothing pooled that
        is a miss, and the plant creates normally — but it no longer
        re-arms a refill whose clones nobody would collect.
        """
        self._shut_down = True
        drained = 0
        while True:
            count = yield self.drain()
            drained += count
            if not self._refilling and self.pooled_vms == 0:
                return drained
            yield 1.0
