"""Federation sweep: control-plane throughput vs grid size.

Runs the ``federation`` scenario — N federated sites, each a full
paper testbed behind rack brokers and a spill gateway, one site per
kernel shard — across a grid of (site count × cross-site traffic
fraction) and reports the control-plane numbers the federation story
hangs on:

* ``goodput/cpu-s`` — successful creates per CPU-second summed over
  the workers: the service the control plane delivered per unit of
  host work.  Registries, brokers and vnet blocks are all site-local,
  so it should hold as sites are added (the sharded-control-plane
  claim); what it loses is what synchronization costs.  Wall-clock
  and summed CPU stand beside it (:mod:`repro.experiments.shardcost`).
* ``rounds/ok`` — bid-collection rounds per successful create.  §3.1
  spends one round per request; anything above 1 is repeated (or
  failed) bidding.
* ``bids`` — individual bids gathered.  A count of *work*, not of
  service: a control plane that bids twice per request doubles it.
* ``create p95`` — 95th-percentile request completion latency
  (simulated seconds), local and spilled placements together, read
  from the merged per-site sketches; the price of crossing a WAN
  boundary shows up here as the cross-site fraction grows.

The determinism recheck pins the merged-trace fingerprint of the
largest swept grid at 1 shard vs one-shard-per-site vs a repeat.

Scaling rungs (sites × plants/site × requests/site)::

    vmplants federation                              # 1/4/16 sites, smoke
    vmplants federation --sites 16 --plants 625 \\
        --requests-per-site 160 --spill-deadline 2500   # 10k plants
    vmplants federation --sites 64 --requests-per-site 15625
                                                     # 1M requests

(At 625-plant sites the arrival burst pushes create latency near 700
simulated seconds, so the spill deadline — a policy knob defaulting
to 400 — must be raised for cross-site acks to beat it.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import find_point, render_table
from repro.experiments import shardcost
from repro.experiments.recheck import (
    DeterminismRecheck,
    recheck_determinism,
)
from repro.sim.shard import ShardedTestbed
from repro.workloads.megaload import merged_summary

__all__ = [
    "FederationPoint",
    "FederationResult",
    "run_federation",
]


@dataclass(frozen=True)
class FederationPoint:
    """One timed run at a given (sites, cross_fraction)."""

    sites: int
    cross_fraction: float
    plants: int
    events: int
    #: :func:`repro.experiments.shardcost.shard_cost` of the run.
    cost: Dict[str, Any] = field(metadata={"splice": True})
    bids: int
    bid_rounds: int
    #: Bid rounds per successful create (0.0 when nothing succeeded).
    bid_rounds_per_ok: float = field(metadata={"round": 3})
    created: int
    destroyed: int
    failed: int
    spills_sent: int
    spilled_ok: int
    spill_timeout: int
    p50_latency_s: float = field(metadata={"round": 2})
    p95_latency_s: float = field(metadata={"round": 2})


@dataclass
class FederationResult:
    """Full sweep plus the determinism recheck."""

    seed: int
    site_counts: Tuple[int, ...]
    cross_fractions: Tuple[float, ...]
    params: Dict[str, Any]
    points: List[FederationPoint] = field(default_factory=list)
    #: The largest swept grid, small, at 1 shard, one shard per site
    #: and a repeat.
    recheck: DeterminismRecheck = field(default_factory=DeterminismRecheck)

    def point(
        self, sites: int, cross_fraction: float
    ) -> FederationPoint:
        return find_point(
            self.points, sites=sites, cross_fraction=cross_fraction
        )

    def render(self) -> str:
        prm = self.params
        banner = shardcost.overload_banner(
            (p.sites * prm["requests"], p.created) for p in self.points
        )
        table = render_table(
            "Extension: federated multi-site control plane "
            f"({prm['plants']} plants/site x {prm['requests']} "
            f"requests/site, rate {prm['rate_per_s']:.1f}/s, "
            f"rack size {prm['rack_size']}, "
            f"WAN lookahead {prm['link_latency_s']:.0f}s)",
            {
                "sites": ">5d", "cross": ">6.2f", "plants": ">6d",
                "created": ">8d", "failed": ">7d", "spilled": ">8d",
                **shardcost.COST_COLUMNS,
                "rounds/ok": ">10.2f", "bids": ">8d", "p95 (s)": ">8.1f",
            },
            [
                (
                    p.sites, p.cross_fraction, p.plants, p.created,
                    p.failed, p.spilled_ok, *shardcost.cost_cells(p.cost),
                    p.bid_rounds_per_ok, p.bids, p.p95_latency_s,
                )
                for p in self.points
            ],
            shardcost.cost_notes(
                self.points,
                [f"cross {p.cross_fraction:.2f}, " for p in self.points],
            )
            + [self.recheck.line()],
        )
        return "\n".join(banner + [table])

    def to_record(self) -> dict:
        return shardcost.sweep_record(
            self,
            site_counts=list(self.site_counts),
            cross_fractions=list(self.cross_fractions),
        )


def run_federation(
    seed: int = 2004,
    site_counts: Sequence[int] = (1, 4, 16),
    cross_fractions: Sequence[float] = (0.0, 0.1, 0.3),
    plants_per_site: int = 8,
    requests_per_site: int = 160,
    params: Optional[Dict[str, Any]] = None,
    determinism_requests: int = 20,
    deadline_s: Optional[float] = 600.0,
) -> FederationResult:
    """Sweep (site count × cross-site fraction); recheck determinism.

    Every timing run uses one shard per site (``shards = sites``) and
    disables tracing; the determinism recheck reruns the largest grid
    small at 1 shard, ``sites`` shards and a repeat with fingerprints
    on.

    :param site_counts: site counts to sweep (include 1 for the
        one-site base)
    :param cross_fractions: cross-site traffic fractions to sweep
    :param plants_per_site: plants per site (16 sites x 625 = the
        10k-plant rung; raise the spill deadline when large sites push
        create latency past it)
    :param requests_per_site: VM creation requests per site per sweep
        point
    :param deadline_s: wall-clock abort deadline per sharded run
        (seconds)
    """
    site_counts = tuple(site_counts)
    cross_fractions = tuple(cross_fractions)
    if not site_counts or min(site_counts) < 1:
        raise ValueError("site_counts must be positive")
    prm: Dict[str, Any] = {
        "plants": plants_per_site,
        "requests": requests_per_site,
    }
    prm.update(params or {})

    result = FederationResult(
        seed=seed,
        site_counts=site_counts,
        cross_fractions=cross_fractions,
        params={},
    )
    for sites in site_counts:
        for cf in cross_fractions:
            run_prm = dict(prm)
            run_prm["cross_fraction"] = cf
            plan = ShardedTestbed(
                seed=seed,
                sites=sites,
                shards=sites,
                scenario="federation",
            )
            run = plan.run(
                params=run_prm, collect=None, deadline_s=deadline_s
            )
            result.params = run.params
            stats = run.combined_stats()
            latency = merged_summary(run).overall()
            created = stats["created"]
            bid_rounds = stats["bid_rounds"]
            result.points.append(
                FederationPoint(
                    sites=sites,
                    cross_fraction=cf,
                    plants=sites * run.params["plants"],
                    events=run.total_events,
                    cost=shardcost.shard_cost(run, created),
                    bids=stats["bids_collected"],
                    bid_rounds=bid_rounds,
                    bid_rounds_per_ok=(
                        bid_rounds / created if created else 0.0
                    ),
                    created=created,
                    destroyed=stats["destroyed"],
                    failed=stats["failed"],
                    spills_sent=stats["spills_sent"],
                    spilled_ok=stats["spilled_ok"],
                    spill_timeout=stats["spill_timeout"],
                    p50_latency_s=latency.quantile(0.50),
                    p95_latency_s=latency.quantile(0.95),
                )
            )

    det_sites = max(site_counts)
    result.recheck = recheck_determinism(
        seed,
        det_sites,
        "federation",
        {
            **prm,
            "requests": min(determinism_requests, requests_per_site),
            "cross_fraction": cross_fractions[-1] if cross_fractions else 0.1,
        },
        (1, det_sites),
        deadline_s=deadline_s,
    )
    return result
