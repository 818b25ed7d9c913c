"""Cost models behind the VMShop bidding protocol.

The bidding protocol represents creation costs "generically as
numbers" (Section 3.1); a plant declines a request by returning no bid
(``None`` here).  Two concrete models from the paper:

* :class:`NetworkComputeCost` — Section 3.4: a one-time *network cost*
  charged only when the request's client domain needs a fresh
  host-only network, plus a *compute-cycles cost* proportional to the
  number of VMs already operating on the plant.  With the paper's
  parameters (network 50, compute 4/VM) the shop keeps choosing the
  same plant for one domain until its 13th VM, when the accumulated
  compute cost finally exceeds a competitor's network cost.
* :class:`MemoryAvailableCost` — Section 4.1's prototype model, based
  on the amount of host memory still available for cloned VMs; the
  emptier plant bids lower, producing load balancing.

A model only prices.  Admission — a free VM slot, a switch for the
request's domain — is the plant's decision, made before its model is
asked.  Models are stateless and read a plant's load where it is kept:
``host_memory_mb`` on the plant, the registered VMs (``vms``) and their
``guest_memory_mb`` on its information system (``infosys``), and
whether a domain needs a fresh switch from its ``network_pool``.  So
the same model instance can serve many plants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

from repro.core.spec import CreateRequest

__all__ = [
    "CostModel",
    "NetworkComputeCost",
    "MemoryAvailableCost",
    "CompositeCost",
]


class CostModel(ABC):
    """Maps (plant load, request) to a bid."""

    @abstractmethod
    def estimate(self, plant: Any, request: CreateRequest) -> Optional[float]:
        """The plant's price for the request; None = cannot host."""


class NetworkComputeCost(CostModel):
    """Section 3.4: one-time network cost + per-VM compute cost."""

    def __init__(
        self, network_cost: float = 50.0, compute_cost_per_vm: float = 4.0
    ):
        if network_cost < 0 or compute_cost_per_vm < 0:
            raise ValueError("costs must be non-negative")
        self.network_cost = network_cost
        self.compute_cost_per_vm = compute_cost_per_vm

    def estimate(self, plant: Any, request: CreateRequest) -> Optional[float]:
        cost = self.compute_cost_per_vm * len(plant.infosys.vms)
        if plant.network_pool.would_be_fresh(request.network.domain):
            cost += self.network_cost
        return cost


class MemoryAvailableCost(CostModel):
    """Section 4.1 prototype: bid by host-memory headroom.

    The bid is the fraction of host memory that would be committed
    after hosting the request, scaled to ``scale``.  Hosted VMs may
    *overcommit* host memory — the paper's 64 MB experiment runs 16
    clones (>1 GB of guest memory) per 1.5 GB host, paying for it with
    longer cloning times — so a plant only declines beyond the
    ``overcommit`` factor.
    """

    def __init__(
        self,
        scale: float = 100.0,
        reserve_mb: int = 256,
        overcommit: float = 2.0,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if reserve_mb < 0:
            raise ValueError("reserve_mb must be non-negative")
        if overcommit < 1.0:
            raise ValueError("overcommit must be >= 1.0")
        self.scale = scale
        #: Memory reserved for the host OS and the VMM itself.
        self.reserve_mb = reserve_mb
        self.overcommit = overcommit

    def estimate(self, plant: Any, request: CreateRequest) -> Optional[float]:
        usable = plant.host_memory_mb - self.reserve_mb
        if usable <= 0:
            return None
        after = plant.infosys.guest_memory_mb + request.hardware.memory_mb
        if after > self.overcommit * usable:
            return None
        return self.scale * after / usable


class CompositeCost(CostModel):
    """Weighted sum of component models (None from any ⇒ no bid)."""

    def __init__(
        self,
        models: Sequence[CostModel],
        weights: Optional[Sequence[float]] = None,
    ):
        if not models:
            raise ValueError("at least one component model is required")
        self.models = list(models)
        self.weights = (
            list(weights) if weights is not None else [1.0] * len(models)
        )
        if len(self.weights) != len(self.models):
            raise ValueError("weights must match models")

    def estimate(self, plant: Any, request: CreateRequest) -> Optional[float]:
        total = 0.0
        for model, weight in zip(self.models, self.weights):
            bid = model.estimate(plant, request)
            if bid is None:
                return None
            total += weight * bid
        return total
