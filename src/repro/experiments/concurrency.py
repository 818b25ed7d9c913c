"""Extension experiment: concurrent creation requests.

The paper's Section 4.2 methodology is strictly sequential ("a series
of requests, in sequence"); production-grade problem-solving
environments issue requests concurrently.  This experiment measures
what happens when up to ``k`` creations are in flight at once:

* per-VM cloning gets **slower** — all clones pull their memory state
  across the same 100 Mbit/s NFS path (the fair-share link), so the
  copy phase contends;
* total **makespan drops** — the fixed resume/configuration costs
  overlap across plants.

This exercises the substrate's contention machinery end to end and
quantifies a deployment question the paper leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import render_table
from repro.experiments.runner import CreationSample, serve
from repro.sim.cluster import build_testbed
from repro.workloads.requests import request_stream

__all__ = [
    "ConcurrencyResult",
    "ReplicaResult",
    "run_concurrency",
    "run_warehouse_replicas",
]


@dataclass
class ConcurrencyResult:
    """Sweep over in-flight request limits."""

    memory_mb: int
    requests: int
    #: concurrency level → summary of per-VM creation latency.
    latency: Dict[int, Summary]
    #: concurrency level → summary of per-VM cloning time.
    cloning: Dict[int, Summary]
    #: concurrency level → total time to finish all requests.
    makespan: Dict[int, float]

    def render(self) -> str:
        return render_table(
            f"Extension: request concurrency "
            f"({self.requests} x {self.memory_mb} MB VMs, 8 plants, "
            "shared NFS path)",
            {
                "in-flight": ">10d", "clone mean (s)": ">15.1f",
                "creation mean (s)": ">18.1f", "makespan (s)": ">13.1f",
            },
            [
                (
                    k, self.cloning[k].mean, self.latency[k].mean,
                    self.makespan[k],
                )
                for k in sorted(self.latency)
            ],
            [
                "concurrency slows individual clones (NFS contention) but "
                "shrinks the makespan"
            ],
        )


@dataclass
class ReplicaResult:
    """Warehouse replication under a fixed concurrency level."""

    level: int
    memory_mb: int
    requests: int
    #: replica count → summary of per-VM cloning time.
    cloning: Dict[int, Summary]
    #: replica count → makespan.
    makespan: Dict[int, float]

    def render(self) -> str:
        return render_table(
            "Extension: replicated VM warehouse "
            f"({self.requests} x {self.memory_mb} MB VMs, "
            f"{self.level} in flight)",
            {
                "replicas": ">9d", "clone mean (s)": ">15.1f",
                "makespan (s)": ">13.1f",
            },
            [
                (n, self.cloning[n].mean, self.makespan[n])
                for n in sorted(self.cloning)
            ],
            ["replicas relieve the NFS bottleneck concurrency exposes"],
        )


def _batch(
    seed: int, memory_mb: int, requests: int, level: int, **bed_kw
) -> Tuple[List[CreationSample], float, Summary]:
    """One request batch, at most ``level`` in flight: the samples,
    the makespan and the summary of per-VM cloning time."""
    bed = build_testbed(seed=seed, n_plants=8, **bed_kw)
    samples = serve(bed, request_stream(memory_mb, requests), in_flight=level)
    cloning = summarize([r.total_time for r in bed.clone_records()])
    return samples, bed.env.now, cloning


def run_warehouse_replicas(
    seed: int = 2004,
    memory_mb: int = 64,
    requests: int = 24,
    level: int = 8,
    replica_counts: tuple = (1, 2, 4),
) -> ReplicaResult:
    """Sweep warehouse replica counts at a fixed concurrency level."""
    cloning: Dict[int, Summary] = {}
    makespan: Dict[int, float] = {}
    for replicas in replica_counts:
        _, makespan[replicas], cloning[replicas] = _batch(
            seed, memory_mb, requests, level, nfs_replicas=replicas
        )
    return ReplicaResult(
        level=level,
        memory_mb=memory_mb,
        requests=requests,
        cloning=cloning,
        makespan=makespan,
    )


def run_concurrency(
    seed: int = 2004,
    memory_mb: int = 64,
    requests: int = 24,
    levels: tuple = (1, 4, 8),
) -> ConcurrencyResult:
    """Run the same request batch at several in-flight limits."""
    latency: Dict[int, Summary] = {}
    cloning: Dict[int, Summary] = {}
    makespan: Dict[int, float] = {}
    for level in levels:
        samples, makespan[level], cloning[level] = _batch(
            seed, memory_mb, requests, level
        )
        latency[level] = summarize([s.latency for s in samples if s.ok])
    return ConcurrencyResult(
        memory_mb=memory_mb,
        requests=requests,
        latency=latency,
        cloning=cloning,
        makespan=makespan,
    )
