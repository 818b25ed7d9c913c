"""Megaload sweep: trace-driven sites, streaming metrics, any scale.

Runs the ``megaload`` scenario — one federated site per kernel shard
under the lazy multi-tenant arrival streams of
:mod:`repro.workloads.traces` — across shard counts, and measures the
control-plane rate the million-request rung hangs on:

* ``goodput/cpu-s`` — successful requests per CPU-second summed over
  the workers, beside wall-clock, summed CPU, their ratios to the
  one-shard run and the failed count (``experiments/shardcost.py``).
* latency quantiles from the merged per-site
  :class:`~repro.analysis.streaming.WorkloadSummary` sketches — never
  from stored samples; the coordinator merges per-shard partials
  first, then across shards, exactly as a distributed collector
  would.
* ``peak RSS`` — the largest worker's peak resident set, the bound
  that makes the 1M-request run fit a developer machine.

Two invariants are asserted on every sweep and reported:

* **fingerprints** — merged-trace fingerprints at 1 shard vs
  ``max(shard_counts)`` vs a repeat are identical (the PR 6 / PR 8
  determinism contract, rechecked under bounded tracers);
* **sketches** — the merged summary state is bit-identical at every
  shard count (the exact-merge contract of
  :mod:`repro.analysis.streaming`).

Scaling rungs::

    vmplants megaload                                   # smoke
    vmplants megaload --sites 8 --shards 1 4 8 \\
        --requests-per-site 2000                        # 16k requests
    vmplants megaload --sites 16 --shards 16 \\
        --requests-per-site 62500                       # 1M requests
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.experiments import shardcost
from repro.experiments.recheck import (
    DeterminismRecheck,
    recheck_determinism,
)
from repro.sim.shard import ShardedTestbed
from repro.workloads.megaload import merged_summary

__all__ = ["MegaLoadPoint", "MegaLoadResult", "run_megaload"]


@dataclass(frozen=True)
class MegaLoadPoint:
    """One timed megaload run at a given shard count."""

    shards: int
    sites: int
    requests: int
    arrivals: int
    ok: int
    failed: int
    deadline_miss: int
    spilled_ok: int
    events: int
    #: :func:`repro.experiments.shardcost.shard_cost` of the run.
    cost: Dict[str, Any] = field(metadata={"splice": True})
    peak_rss_mb: float = field(metadata={"round": 1})
    p50_latency_s: float = field(metadata={"round": 3})
    p95_latency_s: float = field(metadata={"round": 3})
    p99_latency_s: float = field(metadata={"round": 3})
    mean_latency_s: float = field(metadata={"round": 3})
    summary_signature: str


@dataclass
class MegaLoadResult:
    """Full sweep plus the determinism and exact-merge rechecks."""

    seed: int
    sites: int
    shard_counts: Tuple[int, ...]
    params: Dict[str, Any]
    points: List[MegaLoadPoint] = field(default_factory=list)
    #: (tenant, ok, failed, misses, p95) from the largest run.
    tenant_rows: List[Tuple[str, int, int, int, float]] = field(
        default_factory=list
    )
    #: A shortened trace at 1 shard, ``max(shard_counts)`` and a
    #: repeat, tracers bounded to ``trace_capacity`` events per site.
    recheck: DeterminismRecheck = field(default_factory=DeterminismRecheck)
    trace_capacity: Optional[int] = None

    @property
    def sketch_equal(self) -> bool:
        """Merged summary state bit-identical at every shard count."""
        sigs = {p.summary_signature for p in self.points}
        return len(sigs) == 1

    def render(self) -> str:
        prm = self.params
        total = self.sites * prm["requests"]
        banner = shardcost.overload_banner(
            (p.arrivals, p.ok) for p in self.points
        )
        if not self.points:
            sketches = []
        elif self.sketch_equal:
            sketches = [
                "sketches: merged summary state bit-identical at "
                f"shard counts {[p.shards for p in self.points]} "
                f"({self.points[0].summary_signature[:16]})"
            ]
        else:
            signatures = {
                p.shards: p.summary_signature[:16] for p in self.points
            }
            sketches = [f"sketches: MERGE MISMATCH — {signatures}"]
        tail = sketches + [self.recheck.line()]
        if self.tenant_rows:
            tail = [
                render_table(
                    "",
                    {
                        "tenant": ">12", "ok": ">9d", "failed": ">7d",
                        "miss": ">6d", "p95 (s)": ">8.1f",
                    },
                    self.tenant_rows,
                    tail,
                )
            ]
        table = render_table(
            "Extension: trace-driven megaload "
            f"({self.sites} sites x {prm['requests']} requests/site "
            f"= {total} requests; {prm['plants']} plants/site, "
            f"mix {prm['interactive_fraction']:.0%} interactive / "
            f"{prm['batch_fraction']:.0%} batch / flash remainder)",
            {
                "shards": ">6d", "ok": ">9d", "failed": ">9d", "miss": ">6d",
                **shardcost.COST_COLUMNS,
                "p50 (s)": ">8.1f", "p95 (s)": ">8.1f", "p99 (s)": ">8.1f",
                "RSS MB": ">7.0f",
            },
            [
                (
                    p.shards, p.ok, p.failed, p.deadline_miss,
                    *shardcost.cost_cells(p.cost), p.p50_latency_s,
                    p.p95_latency_s, p.p99_latency_s, p.peak_rss_mb,
                )
                for p in self.points
            ],
            shardcost.cost_notes(self.points) + tail,
        )
        return "\n".join(banner + [table])

    def to_record(self) -> dict:
        return {
            **shardcost.sweep_record(
                self, sites=self.sites, shard_counts=list(self.shard_counts)
            ),
            "tenants": [
                {
                    "tenant": t,
                    "ok": ok,
                    "failed": failed,
                    "deadline_miss": miss,
                    "p95_latency_s": round(p95, 3),
                }
                for t, ok, failed, miss, p95 in self.tenant_rows
            ],
            "peak_rss_mb": max(
                (p.peak_rss_mb for p in self.points), default=0.0
            ),
            "sketch_equal": self.sketch_equal,
            "deterministic": self.recheck.ok and self.sketch_equal,
            "trace_capacity": self.trace_capacity,
            "trace_dropped": self.recheck.trace_dropped,
        }


def run_megaload(
    seed: int = 2004,
    sites: int = 4,
    shard_counts: Sequence[int] = (1, 2, 4),
    requests_per_site: int = 250,
    params: Optional[Dict[str, Any]] = None,
    determinism_requests: int = 40,
    deadline_s: Optional[float] = 1800.0,
    trace_capacity: Optional[int] = 100_000,
) -> MegaLoadResult:
    """Sweep shard counts over one trace; recheck both contracts.

    Timing runs disable tracing entirely (streaming summaries carry
    the metrics); the determinism recheck reruns a shortened trace at
    1 shard, ``max(shard_counts)`` shards and a repeat with tracing
    bounded to ``trace_capacity`` events per site — at megaload scale
    an unbounded tracer would be the only unbounded memory left.

    :param sites: federated sites (one kernel shard per site at the max)
    :param shard_counts: shard counts to sweep (none above --sites)
    :param requests_per_site: requests per site (16 sites x 62500 =
        the 1M-request rung)
    :param deadline_s: wall-clock abort deadline per sharded run
        (seconds)
    :param trace_capacity: bounded tracer size per site in the
        determinism recheck (dropped events are reported)
    """
    shard_counts = tuple(shard_counts)
    if not shard_counts or min(shard_counts) < 1:
        raise ValueError("shard_counts must be positive")
    if max(shard_counts) > sites:
        raise ValueError("shard_counts cannot exceed sites")
    prm: Dict[str, Any] = {"requests": requests_per_site}
    prm.update(params or {})

    result = MegaLoadResult(
        seed=seed,
        sites=sites,
        shard_counts=shard_counts,
        params={},
        trace_capacity=trace_capacity,
    )
    for shards in shard_counts:
        plan = ShardedTestbed(
            seed=seed, sites=sites, shards=shards, scenario="megaload"
        )
        run = plan.run(
            params=prm, collect=None, deadline_s=deadline_s
        )
        result.params = run.params
        merged = merged_summary(run)
        overall = merged.overall()
        stats = run.combined_stats()
        ok = merged.total("ok")
        result.points.append(
            MegaLoadPoint(
                shards=shards,
                sites=sites,
                requests=sites * run.params["requests"],
                arrivals=stats["arrivals"],
                ok=ok,
                failed=merged.total("failed"),
                deadline_miss=merged.total("deadline_miss"),
                spilled_ok=stats["spilled_ok"],
                events=run.total_events,
                cost=shardcost.shard_cost(run, ok, result.points),
                peak_rss_mb=run.peak_rss_kb / 1024.0,
                p50_latency_s=overall.quantile(0.50),
                p95_latency_s=overall.quantile(0.95),
                p99_latency_s=overall.quantile(0.99),
                mean_latency_s=overall.mean,
                summary_signature=merged.state_signature(),
            )
        )
        result.tenant_rows = merged.tenant_rows()

    result.recheck = recheck_determinism(
        seed,
        sites,
        "megaload",
        {**prm, "requests": min(determinism_requests, requests_per_site)},
        (1, max(shard_counts)),
        deadline_s=deadline_s,
        trace_capacity=trace_capacity,
    )
    return result
