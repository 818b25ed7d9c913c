"""Kernel-sharding benchmark: throughput sweep across shard counts.

Runs the ``kernelbench`` scenario — eight independent paper testbeds
under open-loop Poisson load, spilling work around a WAN ring — at a
sweep of shard counts, and cross-checks the determinism contract:
the merged-trace fingerprint must be identical for every shard count
and stable across repeats of the same (seed, partition).

Every shard count reports what was measured (see
:mod:`repro.experiments.shardcost`): wall-clock, CPU-seconds summed
over workers, that sum against the one-shard run's (``sync cpu``),
the wall-clock speedup, and goodput — successful creates — per summed
CPU-second.

The same scenario scales to the million-request load-test rung::

    vmplants kernelbench --sites 64 --shards 8 --requests-per-site 15625

(64 sites x 15625 requests = 1,000,000 VM creations per sweep point.)
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

__all__ = [
    "KernelBenchPoint",
    "KernelBenchResult",
    "run_kernelbench",
]


@dataclass(frozen=True)
class KernelBenchPoint:
    """One timed run at a given shard count."""

    shards: int
    sites: int
    events: int
    #: :func:`repro.experiments.shardcost.shard_cost` of the run.
    cost: Dict[str, Any] = field(metadata={"splice": True})
    created: int
    spills: int
    failed: int


@dataclass
class KernelBenchResult:
    """Full sweep plus the determinism cross-check."""

    seed: int
    sites: int
    shard_counts: Tuple[int, ...]
    params: Dict[str, Any]
    points: List[KernelBenchPoint] = field(default_factory=list)
    #: Small traced reruns at 1 shard, the highest swept count, a repeat.
    recheck: DeterminismRecheck = field(default_factory=DeterminismRecheck)

    def point(self, shards: int) -> KernelBenchPoint:
        return find_point(self.points, shards=shards)

    def render(self) -> str:
        arrivals = self.sites * self.params["requests"]
        banner = shardcost.overload_banner(
            (arrivals, p.created) for p in self.points
        )
        table = render_table(
            "Extension: sharded parallel DES kernel "
            f"({self.sites} sites x {self.params['requests']} requests, "
            f"rate {self.params['rate_per_s']:.1f}/s, "
            f"lookahead {self.params['link_latency_s']:.0f}s)",
            {
                "shards": ">6d", "events": ">9d", "failed": ">7d",
                **shardcost.COST_COLUMNS,
            },
            [
                (p.shards, p.events, p.failed, *shardcost.cost_cells(p.cost))
                for p in self.points
            ],
            shardcost.cost_notes(self.points) + [self.recheck.line()],
        )
        return "\n".join(banner + [table])

    def to_record(self) -> dict:
        return shardcost.sweep_record(
            self, sites=self.sites, shard_counts=list(self.shard_counts)
        )


def run_kernelbench(
    seed: int = 2004,
    sites: int = 8,
    shard_counts: Sequence[int] = (1, 4, 8),
    requests_per_site: int = 160,
    params: Optional[Dict[str, Any]] = None,
    determinism_requests: int = 20,
    deadline_s: Optional[float] = 600.0,
) -> KernelBenchResult:
    """Sweep shard counts; cross-check the determinism contract.

    Timing runs disable tracing (``collect=None``) so the hot loop is
    undisturbed; the determinism cross-check uses smaller runs with
    fingerprint collection at 1 shard, the highest swept count, and a
    repeat of the latter.

    :param sites: independent testbed sites on the WAN ring
    :param shard_counts: shard counts to sweep (must include 1)
    :param requests_per_site: VM creation requests per site per sweep
        point
    """
    shard_counts = tuple(shard_counts)
    for s in shard_counts:
        if not 1 <= s <= sites:
            raise ValueError(
                f"shard count {s} outside [1, sites={sites}]"
            )
    if 1 not in shard_counts:
        raise ValueError("shard_counts must include 1 (the baseline)")
    prm: Dict[str, Any] = {"requests": requests_per_site}
    prm.update(params or {})

    result = KernelBenchResult(
        seed=seed,
        sites=sites,
        shard_counts=shard_counts,
        params={},
    )
    for shards in shard_counts:
        plan = ShardedTestbed(seed=seed, sites=sites, shards=shards)
        run = plan.run(params=prm, collect=None, deadline_s=deadline_s)
        result.params = run.params
        stats = run.combined_stats()
        created = int(stats.get("created", 0))
        result.points.append(
            KernelBenchPoint(
                shards=shards,
                sites=sites,
                events=run.total_events,
                cost=shardcost.shard_cost(run, created, result.points),
                created=created,
                spills=int(stats.get("spills_recv", 0)),
                failed=int(
                    stats.get("failed", 0)
                    + stats.get("spill_failed", 0)
                ),
            )
        )

    result.recheck = recheck_determinism(
        seed,
        sites,
        "kernelbench",
        {**prm, "requests": min(determinism_requests, requests_per_site)},
        (1, max(shard_counts)),
        deadline_s=deadline_s,
    )
    return result
