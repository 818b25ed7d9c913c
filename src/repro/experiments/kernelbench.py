"""Kernel-sharding benchmark: throughput sweep across shard counts.

Runs the ``kernelbench`` scenario — eight independent paper testbeds
under open-loop Poisson load, spilling work around a WAN ring — at a
sweep of shard counts, and cross-checks the determinism contract:
the merged-trace fingerprint must be identical for every shard count
and stable across repeats of the same (seed, partition).

Two throughput numbers are reported per shard count:

* ``wall ev/s`` — total kernel events over coordinator wall-clock;
  this is what speeds up on a machine with free cores.
* ``agg ev/s`` — sum over shards of (events / shard CPU-seconds);
  the per-core delivery rate net of synchronization overhead, which
  is comparable across machines regardless of how many cores happen
  to be free (on an idle N-core host the two coincide).

The same scenario scales to the million-request load-test rung::

    vmplants kernelbench --sites 64 --shards 8 --requests-per-site 15625

(64 sites x 15625 requests = 1,000,000 VM creations per sweep point.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    wall_s: float
    cpu_s: float
    wall_events_per_sec: float
    agg_events_per_sec: float
    #: Goodput on the same aggregation (sum over shards of creates per
    #: CPU-second): unlike events/s it does not fall when a create
    #: comes to need fewer events.
    agg_creates_per_sec: float
    created: int
    spills: int
    failed: int

    def as_dict(self) -> dict:
        return {
            "shards": self.shards,
            "sites": self.sites,
            "events": self.events,
            "wall_s": round(self.wall_s, 4),
            "cpu_s": round(self.cpu_s, 4),
            "wall_events_per_sec": round(self.wall_events_per_sec, 1),
            "agg_events_per_sec": round(self.agg_events_per_sec, 1),
            "agg_creates_per_sec": round(self.agg_creates_per_sec, 1),
            "created": self.created,
            "spills": self.spills,
            "failed": self.failed,
        }


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
        for p in self.points:
            if p.shards == shards:
                return p
        raise KeyError(f"no point for {shards} shards")

    def agg_speedup(self, shards: int) -> float:
        """Aggregate-throughput ratio vs the single-shard run."""
        base = self.point(1).agg_events_per_sec
        return self.point(shards).agg_events_per_sec / base if base else 0.0

    def wall_speedup(self, shards: int) -> float:
        base = self.point(1).wall_events_per_sec
        return (
            self.point(shards).wall_events_per_sec / base if base else 0.0
        )

    def render(self) -> str:
        lines = [
            "Extension: sharded parallel DES kernel "
            f"({self.sites} sites x {self.params['requests']} requests, "
            f"rate {self.params['rate_per_s']:.1f}/s, "
            f"lookahead {self.params['link_latency_s']:.0f}s)",
            "",
            f"{'shards':>6} {'events':>9} {'wall (s)':>9} "
            f"{'wall ev/s':>10} {'agg ev/s':>10} {'agg speedup':>12}",
            "-" * 62,
        ]
        for p in self.points:
            lines.append(
                f"{p.shards:>6d} {p.events:>9d} {p.wall_s:>9.2f} "
                f"{p.wall_events_per_sec:>10.0f} "
                f"{p.agg_events_per_sec:>10.0f} "
                f"{self.agg_speedup(p.shards):>11.2f}x"
            )
        lines.append("-" * 62)
        lines.append(self.recheck.line())
        return "\n".join(lines)

    def to_record(self) -> dict:
        return {
            "seed": self.seed,
            "sites": self.sites,
            "shard_counts": list(self.shard_counts),
            "params": {
                k: v for k, v in sorted(self.params.items())
            },
            "points": [p.as_dict() for p in self.points],
            "agg_speedups": {
                str(s): round(self.agg_speedup(s), 2)
                for s in self.shard_counts
            },
            "wall_speedups": {
                str(s): round(self.wall_speedup(s), 2)
                for s in self.shard_counts
            },
            "deterministic": self.recheck.ok,
            "fingerprint": self.recheck.fingerprint,
        }


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
        result.points.append(
            KernelBenchPoint(
                shards=shards,
                sites=sites,
                events=run.total_events,
                wall_s=run.wall_s,
                cpu_s=sum(s["cpu_s"] for s in run.shard_results),
                wall_events_per_sec=run.wall_events_per_sec,
                agg_events_per_sec=run.agg_events_per_sec,
                agg_creates_per_sec=run.agg_per_cpu_sec("created"),
                created=int(stats.get("created", 0)),
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
