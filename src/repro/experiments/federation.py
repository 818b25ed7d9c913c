"""Federation sweep: control-plane throughput vs grid size.

Runs the ``federation`` scenario — N federated sites, each a full
paper testbed behind rack brokers and a spill gateway, one site per
kernel shard — across a grid of (site count × cross-site traffic
fraction) and reports the control-plane numbers the federation story
hangs on:

* ``agg creates/s`` — successful creates per shard CPU-second, summed
  over shards: the service the control plane delivered per unit of
  host work.  Registries, brokers and vnet blocks are all site-local,
  so this scales with the site count (the sharded-control-plane
  claim) regardless of how many cores the host happens to have free.
* ``rounds/ok`` — bid-collection rounds per successful create.  §3.1
  spends one round per request; anything above 1 is repeated (or
  failed) bidding.
* ``agg bids/s`` — individual bids gathered per shard CPU-second, same
  aggregation.  A count of *work*, not of service: a control plane
  that bids twice per request doubles it, so it is only comparable
  between runs with the same ``rounds/ok`` (the cross-site speedup
  column, within one sweep).
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
    shards: int
    cross_fraction: float
    plants: int
    events: int
    wall_s: float
    cpu_s: float
    agg_events_per_sec: float
    bids: int
    agg_bids_per_sec: float
    bid_rounds: int
    #: Bid rounds per successful create (0.0 when nothing succeeded).
    bid_rounds_per_ok: float
    #: Successful creates per shard CPU-second, summed over shards.
    agg_creates_per_sec: float
    created: int
    destroyed: int
    failed: int
    spills_sent: int
    spilled_ok: int
    spill_timeout: int
    p50_latency_s: float
    p95_latency_s: float

    def as_dict(self) -> dict:
        return {
            "sites": self.sites,
            "shards": self.shards,
            "cross_fraction": self.cross_fraction,
            "plants": self.plants,
            "events": self.events,
            "wall_s": round(self.wall_s, 4),
            "cpu_s": round(self.cpu_s, 4),
            "agg_events_per_sec": round(self.agg_events_per_sec, 1),
            "bids": self.bids,
            "agg_bids_per_sec": round(self.agg_bids_per_sec, 2),
            "bid_rounds": self.bid_rounds,
            "bid_rounds_per_ok": round(self.bid_rounds_per_ok, 3),
            "agg_creates_per_sec": round(self.agg_creates_per_sec, 2),
            "created": self.created,
            "destroyed": self.destroyed,
            "failed": self.failed,
            "spills_sent": self.spills_sent,
            "spilled_ok": self.spilled_ok,
            "spill_timeout": self.spill_timeout,
            "p50_latency_s": round(self.p50_latency_s, 2),
            "p95_latency_s": round(self.p95_latency_s, 2),
        }


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
        for p in self.points:
            if p.sites == sites and p.cross_fraction == cross_fraction:
                return p
        raise KeyError(
            f"no point for sites={sites} cross={cross_fraction}"
        )

    def bids_speedup(
        self, sites: int, cross_fraction: Optional[float] = None
    ) -> float:
        """Aggregate bids/sec ratio vs the 1-site run (same fraction)."""
        cf = (
            cross_fraction
            if cross_fraction is not None
            else self.cross_fractions[0]
        )
        base = self.point(1, cf).agg_bids_per_sec if 1 in self.site_counts \
            else 0.0
        return (
            self.point(sites, cf).agg_bids_per_sec / base if base else 0.0
        )

    def render(self) -> str:
        prm = self.params
        lines = [
            "Extension: federated multi-site control plane "
            f"({prm['plants']} plants/site x {prm['requests']} "
            f"requests/site, rate {prm['rate_per_s']:.1f}/s, "
            f"rack size {prm['rack_size']}, "
            f"WAN lookahead {prm['link_latency_s']:.0f}s)",
            "",
            f"{'sites':>5} {'cross':>6} {'plants':>6} {'created':>8} "
            f"{'spilled':>8} {'agg creates/s':>14} {'rounds/ok':>10} "
            f"{'bids':>8} {'agg bids/s':>11} "
            f"{'speedup':>8} {'p95 (s)':>8}",
            "-" * 103,
        ]
        for p in self.points:
            lines.append(
                f"{p.sites:>5d} {p.cross_fraction:>6.2f} "
                f"{p.plants:>6d} {p.created:>8d} {p.spilled_ok:>8d} "
                f"{p.agg_creates_per_sec:>14.1f} "
                f"{p.bid_rounds_per_ok:>10.2f} "
                f"{p.bids:>8d} {p.agg_bids_per_sec:>11.0f} "
                f"{self.bids_speedup(p.sites, p.cross_fraction):>7.2f}x "
                f"{p.p95_latency_s:>8.1f}"
            )
        lines.append("-" * 103)
        lines.append(self.recheck.line())
        return "\n".join(lines)

    def to_record(self) -> dict:
        return {
            "seed": self.seed,
            "site_counts": list(self.site_counts),
            "cross_fractions": list(self.cross_fractions),
            "params": {k: v for k, v in sorted(self.params.items())},
            "points": [p.as_dict() for p in self.points],
            "bids_speedups": {
                f"{s}x{cf:g}": round(self.bids_speedup(s, cf), 2)
                for s in self.site_counts
                for cf in self.cross_fractions
            },
            "deterministic": self.recheck.ok,
            "fingerprint": self.recheck.fingerprint,
        }


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

    Every timing run uses one shard per site (``shards = sites``) so
    the aggregate creates/sec and bids/sec measure per-site
    control-plane rate summed across shards, not core count.  Timing
    runs disable tracing; the determinism recheck reruns the largest
    grid small at 1 shard, ``sites`` shards and a repeat with
    fingerprints on.
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
            created = int(stats.get("created", 0))
            bid_rounds = int(stats.get("bid_rounds", 0))
            result.points.append(
                FederationPoint(
                    sites=sites,
                    shards=sites,
                    cross_fraction=cf,
                    plants=sites * run.params["plants"],
                    events=run.total_events,
                    wall_s=run.wall_s,
                    cpu_s=sum(
                        s["cpu_s"] for s in run.shard_results
                    ),
                    agg_events_per_sec=run.agg_events_per_sec,
                    bids=int(stats.get("bids_collected", 0)),
                    agg_bids_per_sec=run.agg_per_cpu_sec(
                        "bids_collected"
                    ),
                    bid_rounds=bid_rounds,
                    bid_rounds_per_ok=(
                        bid_rounds / created if created else 0.0
                    ),
                    agg_creates_per_sec=run.agg_per_cpu_sec("created"),
                    created=created,
                    destroyed=int(stats.get("destroyed", 0)),
                    failed=int(stats.get("failed", 0)),
                    spills_sent=int(stats.get("spills_sent", 0)),
                    spilled_ok=int(stats.get("spilled_ok", 0)),
                    spill_timeout=int(stats.get("spill_timeout", 0)),
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
