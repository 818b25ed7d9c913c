"""Ablations of the design choices DESIGN.md calls out.

* **Clone mode** — link-based cloning (non-persistent disks + redo
  logs) vs. explicit full-disk copy: the mechanism behind the paper's
  210 s-vs-52 s comparison, measured end to end.
* **Partial matching** — matching a deep cached prefix vs. only a
  bare-OS image for the In-VIGO workspace DAG: how many residual
  actions run and what that costs.
* **Speculative pre-creation** — the future-work latency-hiding
  optimization: request-visible latency with a pre-warmed clone pool
  vs. on-demand cloning.
* **Cost model** — Section 3.4's network+compute model vs. the
  prototype's memory-headroom model under a multi-domain workload:
  how many scarce host-only networks each consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

import numpy as np

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import render_table
from repro.core.spec import CreateRequest, HardwareSpec, NetworkSpec, SoftwareSpec
from repro.cost.models import (
    CostModel,
    MemoryAvailableCost,
    NetworkComputeCost,
)
from repro.experiments.runner import run_creation_experiment, run_requests
from repro.plant.production import CloneMode
from repro.plant.speculative import SpeculativeClonePool
from repro.plant.warehouse import GoldenImage
from repro.provisioning import ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.workloads.invigo import invigo_cached_prefix, invigo_workspace_dag
from repro.workloads.requests import experiment_request

__all__ = [
    "CloneModeAblation",
    "MatchingAblation",
    "SpeculativeAblation",
    "CostModelAblation",
    "run_clone_mode_ablation",
    "run_state_cache_ablation",
    "StateCacheAblation",
    "run_matching_ablation",
    "run_speculative_ablation",
    "run_cost_model_ablation",
    "ABLATIONS",
    "run_all_ablations",
]

REDHAT_OS = "linux-redhat-8.0"


# ---------------------------------------------------------------------------
# Clone mode
# ---------------------------------------------------------------------------


@dataclass
class CloneModeAblation:
    """LINK vs. COPY cloning for the 256 MB golden machine."""

    link_clone: Summary
    copy_clone: Summary
    link_creation: Summary
    copy_creation: Summary

    @property
    def speedup(self) -> float:
        """Mean COPY clone time over mean LINK clone time."""
        return self.copy_clone.mean / self.link_clone.mean

    def render(self) -> str:
        return render_table(
            "Ablation: clone mode (256 MB golden machine)",
            {
                "mode": ">8", "clone mean (s)": ">16.1f",
                "creation mean (s)": ">19.1f",
            },
            [
                ("link", self.link_clone.mean, self.link_creation.mean),
                ("copy", self.copy_clone.mean, self.copy_creation.mean),
            ],
            [
                f"link cloning is {self.speedup:.1f}x faster "
                "(paper: around 4x)"
            ],
        )


def run_clone_mode_ablation(
    seed: int = 2004, count: int = 8, memory_mb: int = 256
) -> CloneModeAblation:
    """Measure both clone modes on fresh testbeds."""
    link = run_creation_experiment(
        memory_mb, count, seed=seed, clone_mode=CloneMode.LINK
    )
    copy = run_creation_experiment(
        memory_mb, count, seed=seed, clone_mode=CloneMode.COPY
    )
    return CloneModeAblation(
        link_clone=summarize(link.clone_times),
        copy_clone=summarize(copy.clone_times),
        link_creation=summarize(link.creation_latencies),
        copy_creation=summarize(copy.creation_latencies),
    )


# ---------------------------------------------------------------------------
# Partial matching
# ---------------------------------------------------------------------------


@dataclass
class MatchingAblation:
    """Deep cached prefix vs. bare-OS image for the In-VIGO DAG."""

    with_matching: Summary
    without_matching: Summary
    residual_with: int
    residual_without: int

    def render(self) -> str:
        return render_table(
            "Ablation: partial DAG matching (In-VIGO workspace DAG, "
            "9 actions)",
            {
                "warehouse": ">22", "residual actions": ">17d",
                "creation mean (s)": ">19.1f",
            },
            [
                ("cached prefix (A-C)", self.residual_with,
                 self.with_matching.mean),
                ("bare-OS image only", self.residual_without,
                 self.without_matching.mean),
            ],
        )


def _invigo_image(performed, image_id: str) -> GoldenImage:
    return GoldenImage(
        image_id=image_id,
        vm_type="vmware",
        os=REDHAT_OS,
        hardware=HardwareSpec(memory_mb=32, disk_gb=4.0),
        performed=tuple(performed),
        memory_state_mb=32.0,
    )


def _invigo_request(username: str = "arijit") -> CreateRequest:
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=32),
        software=SoftwareSpec(
            os=REDHAT_OS, dag=invigo_workspace_dag(username)
        ),
        network=NetworkSpec(domain="acis.ufl.edu"),
        client_id="invigo",
        vm_type="vmware",
    )


def run_matching_ablation(
    seed: int = 2004, count: int = 8
) -> MatchingAblation:
    """Compare warehouses with and without the workspace prefix image."""
    results: Dict[str, List[float]] = {}
    residuals: Dict[str, int] = {}
    for label, images in (
        (
            "with",
            [_invigo_image(invigo_cached_prefix(), "workspace-prefix")],
        ),
        ("without", [_invigo_image((), "bare-os")]),
    ):
        bed = build_testbed(
            seed=seed, n_plants=2, memory_sizes=(), extra_images=images
        )
        run = run_requests(bed, [_invigo_request() for _ in range(count)])
        results[label] = run.creation_latencies
        residuals[label] = int(run.classads[-1]["actions_executed"])
    return MatchingAblation(
        with_matching=summarize(results["with"]),
        without_matching=summarize(results["without"]),
        residual_with=residuals["with"],
        residual_without=residuals["without"],
    )


# ---------------------------------------------------------------------------
# Speculative pre-creation
# ---------------------------------------------------------------------------


@dataclass
class SpeculativeAblation:
    """Pre-warmed clone pool vs. on-demand creation."""

    on_demand: Summary
    speculative: Summary
    pool_hits: int

    @property
    def latency_hidden(self) -> float:
        """Fraction of on-demand latency hidden by pre-creation."""
        return 1.0 - self.speculative.mean / self.on_demand.mean

    def render(self) -> str:
        return render_table(
            "Ablation: speculative pre-creation of VM clones "
            "(32 MB, future-work feature)",
            {"strategy": ">14", "request latency mean (s)": ">26.1f"},
            [
                ("on-demand", self.on_demand.mean),
                ("speculative", self.speculative.mean),
            ],
            [
                f"{self.latency_hidden:.0%} of client-visible latency "
                f"hidden ({self.pool_hits} pool hits)"
            ],
        )


def run_speculative_ablation(
    seed: int = 2004, count: int = 8, memory_mb: int = 32
) -> SpeculativeAblation:
    """Serve a request burst from a pre-warmed pool vs. on demand."""
    on_demand = run_creation_experiment(
        memory_mb, count, seed=seed, n_plants=1
    )

    bed = build_testbed(seed=seed, n_plants=1)
    plant = bed.plants[0]
    prototype = experiment_request(memory_mb)
    pool = SpeculativeClonePool(plant, prototype, target=count)
    latencies: List[float] = []

    def warm_and_serve() -> Generator:
        yield pool.fill()
        for i in range(count):
            request = experiment_request(memory_mb)
            start = bed.env.now
            ad = yield pool.acquire(request)
            if ad is None:  # pool exhausted — fall back
                ad = yield plant.create(
                    request, f"fallback-{i}"
                )
            latencies.append(bed.env.now - start)

    bed.run(warm_and_serve())
    return SpeculativeAblation(
        on_demand=summarize(on_demand.creation_latencies),
        speculative=summarize(latencies),
        pool_hits=pool.hits,
    )


# ---------------------------------------------------------------------------
# Golden-state local caching
# ---------------------------------------------------------------------------


@dataclass
class StateCacheAblation:
    """Per-clone NFS copies vs. node-local golden-state replicas."""

    nfs_every_time: Summary
    local_cache: Summary

    @property
    def steady_state_speedup(self) -> float:
        """Mean clone-time improvement once the replica is warm."""
        return self.nfs_every_time.mean / self.local_cache.mean

    def render(self) -> str:
        return render_table(
            "Ablation: golden-state caching (256 MB, two plants, "
            "sequential clones)",
            {
                "strategy": ">20", "clone mean (s)": ">16.1f",
                "clone max (s)": ">15.1f",
            },
            [
                ("NFS every clone", self.nfs_every_time.mean,
                 self.nfs_every_time.maximum),
                ("node-local replica", self.local_cache.mean,
                 self.local_cache.maximum),
            ],
            [
                f"{self.steady_state_speedup:.1f}x mean speedup once "
                "the replica is warm (first clone still pays NFS)"
            ],
        )


def run_state_cache_ablation(
    seed: int = 2004, count: int = 8, memory_mb: int = 256
) -> StateCacheAblation:
    """Clone the same golden machine repeatedly, cache off vs. on.

    Two plants keep hosts out of the memory-pressure regime so the
    measurement isolates the state-transfer path.
    """
    summaries = {}
    for cached in (False, True):
        bed = build_testbed(
            seed=seed,
            n_plants=2,
            provisioning=(
                ProvisioningConfig(host_cache_mb=1024.0) if cached else None
            ),
        )
        run = run_creation_experiment(
            memory_mb, count, seed=seed, testbed=bed
        )
        summaries[cached] = summarize(run.clone_times)
    return StateCacheAblation(
        nfs_every_time=summaries[False], local_cache=summaries[True]
    )


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass
class CostModelAblation:
    """Host-only network consumption under the two cost models."""

    #: model label → number of fresh host-only network allocations.
    fresh_networks: Dict[str, int]
    #: model label → standard deviation of per-plant VM counts.
    load_imbalance: Dict[str, float]

    def render(self) -> str:
        return render_table(
            "Ablation: cost model vs. host-only network consumption "
            "(4 domains x 8 VMs, 4 plants)",
            {
                "cost model": ">20", "fresh networks": ">15d",
                "load stddev": ">12.2f",
            },
            [
                (label, fresh, self.load_imbalance[label])
                for label, fresh in self.fresh_networks.items()
            ],
        )


def run_cost_model_ablation(
    seed: int = 2004,
    domains: int = 4,
    vms_per_domain: int = 8,
) -> CostModelAblation:
    """Multi-domain workload under both Section 3.4 and 4.1 models."""
    fresh: Dict[str, int] = {}
    imbalance: Dict[str, float] = {}
    models: Dict[str, CostModel] = {
        "network+compute": NetworkComputeCost(),
        "memory-headroom": MemoryAvailableCost(),
    }
    for label, model in models.items():
        bed = build_testbed(
            seed=seed,
            n_plants=4,
            memory_sizes=(32,),
            cost_model=model,
            networks_per_plant=4,
        )
        ads = run_requests(
            bed,
            [
                experiment_request(32, domain=f"domain{d}.example.org")
                for _ in range(vms_per_domain)
                for d in range(domains)
            ],
        ).classads
        fresh[label] = sum(ad["network_fresh"] is True for ad in ads)
        created = [str(ad["plant"]) for ad in ads]
        counts = [created.count(p.name) for p in bed.plants]
        imbalance[label] = float(np.std(counts))
    return CostModelAblation(
        fresh_networks=fresh, load_imbalance=imbalance
    )


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

#: Name → driver for every ablation above.  Each driver builds its own
#: seeded testbed(s).
ABLATIONS: Dict[str, object] = {
    "clone_mode": run_clone_mode_ablation,
    "matching": run_matching_ablation,
    "speculative": run_speculative_ablation,
    "state_cache": run_state_cache_ablation,
    "cost_model": run_cost_model_ablation,
}


def run_all_ablations(seed: int = 2004) -> Dict[str, object]:
    """Run every ablation, in :data:`ABLATIONS` order."""
    return {name: fn(seed=seed) for name, fn in ABLATIONS.items()}
