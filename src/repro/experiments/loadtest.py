"""Load-driven provisioning-throughput experiment.

The paper measures creation latency one request at a time; a grid
portal in production sees an *arrival stream*.  This experiment
drives the simulated site open-loop — Poisson arrivals at a swept
rate, every request timed individually, finished VMs collected after
a hold period — and compares provisioning feature stacks:

* ``baseline`` — the paper's site, every clone pays the NFS path;
* ``cache`` — host-side golden-state LRU caches;
* ``cache+coalesce`` — plus in-flight transfer coalescing;
* ``cache+coalesce+pool`` — plus adaptive speculative pools.

Arrival times come from one named RNG stream, so every variant faces
bit-identical demand; only the provisioning machinery differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.stats import latency_fingerprint
from repro.analysis.tables import find_point, render_table
from repro.experiments.runner import serve
from repro.provisioning import ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.workloads.requests import poisson_arrivals, request_stream

__all__ = [
    "VARIANTS",
    "LoadPoint",
    "LoadTestResult",
    "run_loadtest",
]


def _variant_configs(cache_mb: float) -> Dict[str, ProvisioningConfig]:
    return {
        "baseline": ProvisioningConfig(),
        "cache": ProvisioningConfig(host_cache_mb=cache_mb),
        "cache+coalesce": ProvisioningConfig(
            host_cache_mb=cache_mb, coalesce_transfers=True
        ),
        "cache+coalesce+pool": ProvisioningConfig(
            host_cache_mb=cache_mb,
            coalesce_transfers=True,
            speculative_pools=True,
        ),
    }


#: Feature stacks compared, in ablation order.
VARIANTS: Tuple[str, ...] = tuple(_variant_configs(512.0))


@dataclass(frozen=True)
class LoadPoint:
    """One (variant, arrival rate) measurement."""

    variant: str
    rate_per_s: float
    requests: int
    ok: int
    failed: int
    p50_s: float
    p95_s: float
    mean_s: float
    makespan_s: float
    creates_per_s: float
    nfs_mb: float
    cache_hits: int
    coalesced: int
    pool_hits: int
    #: SHA-256 over the per-request latencies (determinism checks).
    fingerprint: str


@dataclass
class LoadTestResult:
    """Full sweep: variant → points in increasing arrival rate."""

    seed: int
    memory_mb: int
    requests: int
    rates: Tuple[float, ...]
    cache_mb: float
    n_plants: int = 8
    points: Dict[str, List[LoadPoint]] = field(default_factory=dict)

    def point(self, variant: str, rate: float) -> LoadPoint:
        """The measurement for one (variant, rate) combination."""
        return find_point(self.points[variant], rate_per_s=rate)

    def speedup_at(self, rate: float) -> float:
        """Sustained-throughput ratio, full stack over baseline."""
        base = self.point("baseline", rate)
        full = self.point("cache+coalesce+pool", rate)
        return full.creates_per_s / base.creates_per_s

    def p95_improvement_at(self, rate: float) -> float:
        """p95 creation-latency ratio, baseline over full stack."""
        base = self.point("baseline", rate)
        full = self.point("cache+coalesce+pool", rate)
        return base.p95_s / full.p95_s

    def render(self) -> str:
        top = max(self.rates)
        return render_table(
            "Extension: provisioning throughput under load "
            f"({self.requests} x {self.memory_mb} MB VMs, "
            f"{self.n_plants} plants, "
            f"Poisson arrivals, cache {self.cache_mb:.0f} MB/host)",
            {
                "variant": "<20", "rate/s": ">7.2f", "ok": ">4d",
                "p50 (s)": ">8.1f", "p95 (s)": ">8.1f", "creates/s": ">10.3f",
                "NFS MB": ">8.0f", "hits": ">5d", "coal": ">5d", "pool": ">5d",
            },
            [
                (
                    variant, p.rate_per_s, p.ok, p.p50_s, p.p95_s,
                    p.creates_per_s, p.nfs_mb, p.cache_hits, p.coalesced,
                    p.pool_hits,
                )
                for variant, pts in self.points.items()
                for p in pts
            ],
            [
                f"at {top:.2f} req/s the full stack sustains "
                f"{self.speedup_at(top):.1f}x the baseline creates/sec at "
                f"{self.p95_improvement_at(top):.1f}x lower p95 latency"
            ],
        )


def _run_point(
    variant: str,
    config: ProvisioningConfig,
    seed: int,
    memory_mb: int,
    requests: int,
    rate: float,
    hold_s: float,
    n_plants: int,
) -> LoadPoint:
    bed = build_testbed(seed=seed, n_plants=n_plants, provisioning=config)
    stream = request_stream(memory_mb, requests)
    # One shared stream name: every variant sees identical arrivals.
    times = poisson_arrivals(
        bed.rng, rate, requests, stream=f"loadtest/{rate}"
    )
    start = bed.env.now
    samples = serve(bed, stream, times=times, hold_s=hold_s)
    makespan = bed.env.now - start
    latencies = [s.latency for s in samples if s.ok]
    sample = np.asarray(latencies, dtype=float)
    ok = int(sample.size)
    p50 = float(np.percentile(sample, 50)) if ok else float("nan")
    p95 = float(np.percentile(sample, 95)) if ok else float("nan")
    mean = float(sample.mean()) if ok else float("nan")
    return LoadPoint(
        variant=variant,
        rate_per_s=rate,
        requests=requests,
        ok=ok,
        failed=requests - ok,
        p50_s=p50,
        p95_s=p95,
        mean_s=mean,
        makespan_s=makespan,
        creates_per_s=ok / makespan if makespan > 0 else 0.0,
        nfs_mb=float(bed.nfs.mb_served),
        cache_hits=sum(
            h.state_cache.hits for h in bed.hosts if h.state_cache
        ),
        coalesced=bed.nfs.coalescer.requests_coalesced,
        pool_hits=sum(p.hits for p in bed.pools),
        fingerprint=latency_fingerprint(latencies),
    )


def run_loadtest(
    seed: int = 2004,
    memory_mb: int = 64,
    requests: int = 64,
    rates: Sequence[float] = (0.05, 0.2, 1.2),
    cache_mb: float = 512.0,
    hold_s: float = 90.0,
    n_plants: int = 8,
) -> LoadTestResult:
    """Sweep arrival rates across provisioning feature stacks.

    :param requests: Poisson arrivals per sweep point
    :param rates: arrival rates to sweep (requests per simulated second)
    :param cache_mb: per-host golden-state cache budget
    """
    if requests <= 0:
        raise ValueError("requests must be positive")
    result = LoadTestResult(
        seed=seed,
        memory_mb=memory_mb,
        requests=requests,
        rates=tuple(rates),
        cache_mb=cache_mb,
        n_plants=n_plants,
    )
    for variant, config in _variant_configs(cache_mb).items():
        result.points[variant] = [
            _run_point(
                variant,
                config,
                seed,
                memory_mb,
                requests,
                rate,
                hold_s,
                n_plants,
            )
            for rate in rates
        ]
    return result
