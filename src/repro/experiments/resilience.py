"""Extension experiment: resilience to plant-side failures.

Section 3.1 designs the shop to be resilient — it holds no VM state
and can re-try other bidders.  This experiment injects clone (resume)
failures at a configurable rate and compares two shop policies:

* **surface** (the default, and what the paper's experiments report):
  a failed creation is returned to the client — the 121/128-style
  success counts;
* **retry** — the shop falls through to the next-best bid, turning
  plant-level failures into (slightly slower) successes.

Also exercises shop *restart* recovery under load: mid-stream, the
shop loses all soft state and rebuilds routing from the plants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.tables import render_table
from repro.experiments.runner import run_requests
from repro.sim.cluster import build_testbed
from repro.workloads.requests import experiment_request

__all__ = ["ResilienceResult", "run_resilience"]


@dataclass
class ResilienceResult:
    """Failure handling under both shop policies."""

    failure_prob: float
    requests: int
    #: policy → (successes, mean latency of successes).
    outcomes: Dict[str, tuple]
    #: VMs recovered by the shop-restart drill.
    recovered: int

    def render(self) -> str:
        return render_table(
            "Extension: shop resilience "
            f"({self.requests} requests, {self.failure_prob:.0%} clone-"
            "failure injection, 4 plants)",
            {
                "policy": ">10", "successes": ">10",
                "mean latency (s)": ">17.1f",
            },
            [
                # The total is padded so that the slashes line up.
                (policy, f"{ok}/{self.requests:<3d}", latency)
                for policy, (ok, latency) in self.outcomes.items()
            ],
            [
                f"shop restart drill: routing for {self.recovered} active "
                "VMs rebuilt from plant information systems"
            ],
        )


def run_resilience(
    seed: int = 2004,
    requests: int = 24,
    failure_prob: float = 0.25,
) -> ResilienceResult:
    """Run the failure-injection comparison plus the restart drill."""
    outcomes: Dict[str, tuple] = {}
    recovered = 0
    for policy, retry in (("surface", False), ("retry", True)):
        bed = build_testbed(
            seed=seed,
            n_plants=4,
            clone_failure_prob=failure_prob,
            retry_other_plants=retry,
        )
        batch = [experiment_request(32) for _ in range(requests)]
        # The retry policy's restart drill follows the middle request.
        split = requests // 2 + 1 if retry else requests
        latencies = run_requests(bed, batch[:split]).creation_latencies
        if retry:
            recovered = bed.shop.recover()
        latencies += run_requests(bed, batch[split:]).creation_latencies
        mean = float(np.mean(latencies)) if latencies else float("nan")
        outcomes[policy] = (len(latencies), mean)
    return ResilienceResult(
        failure_prob=failure_prob,
        requests=requests,
        outcomes=outcomes,
        recovered=recovered,
    )
