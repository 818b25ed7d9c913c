"""The Section 3.4 cost-function illustration.

Two VMPlants A and B, each with 4 host-only networks and room for at
most 32 client VMs; network cost 50, compute-cycles cost 4 × (VMs on
the plant).  One client domain keeps requesting VMs:

* request 1 — both plants bid 50 (network cost); the shop picks one at
  random, say A;
* requests 2..13 — A bids ``4·k`` (its network is already allocated),
  B still bids 50; A keeps winning while ``4·k < 50``, i.e. through
  its 13th VM (cost 48 at the 13th request);
* request 14 — A's compute cost (52) finally exceeds B's network cost
  (50); the shop picks B, allocating a second host-only network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Tuple

from repro.analysis.tables import render_table
from repro.cost.models import NetworkComputeCost
from repro.sim.cluster import Testbed, build_testbed
from repro.workloads.requests import experiment_request

__all__ = ["CostFnResult", "run_costfn"]


@dataclass
class CostFnResult:
    """Reproduced illustration data."""

    #: (sequence, winning plant, winning bid, all bids) per request.
    decisions: List[Tuple[int, str, float, Dict[str, float]]]
    testbed: Testbed

    @property
    def first_plant(self) -> str:
        """Plant chosen for the first request."""
        return self.decisions[0][1]

    @property
    def crossover(self) -> int:
        """1-based sequence number of the first switch to a new plant."""
        first = self.first_plant
        for seq, plant, _, _ in self.decisions:
            if plant != first:
                return seq
        return 0

    def render(self) -> str:
        """Per-request decision table."""
        names = sorted(self.decisions[0][3])
        return render_table(
            "Section 3.4 cost-function illustration "
            "(network cost 50, compute cost 4/VM)",
            {
                "request": ">8d", "bid A": ">8.0f", "bid B": ">8.0f",
                "chosen": ">8",
            },
            [
                (seq, *(bids.get(n, float("nan")) for n in names), plant)
                for seq, plant, _, bids in self.decisions
            ],
            [
                f"crossover to the second plant at request {self.crossover} "
                "(paper: 14th request, after 13 VMs on one plant)"
            ],
        )


def run_costfn(
    seed: int = 2004,
    requests: int = 16,
) -> CostFnResult:
    """Run the two-plant illustration."""
    bed = build_testbed(
        seed=seed,
        n_plants=2,
        memory_sizes=(32,),
        cost_model=NetworkComputeCost(),
        networks_per_plant=4,
        max_vms_per_plant=32,
    )
    result = CostFnResult(decisions=[], testbed=bed)

    def client() -> Generator:
        for seq in range(1, requests + 1):
            request = experiment_request(32, domain="client.example.org")
            bids = yield bed.shop.estimate(request)
            bid_map = {b.bidder_name: b.cost for b in bids}
            ad = yield bed.shop.create(request, bids=bids)
            plant = str(ad["plant"])
            result.decisions.append(
                (seq, plant, bid_map.get(plant, float("nan")), bid_map)
            )

    bed.run(client())
    return result
