"""Image-distribution scale ladder: NFS star vs. peer broadcast tree.

The paper's testbed delivers every clone's golden state over one
shared NFS path, so a same-image burst across N hosts serializes on
that link and creation p95 grows linearly with the fleet.  This
experiment sweeps the fleet size (8 → 512 hosts by default) and
measures the same one-VM-per-host broadcast burst under two wirings:

* ``nfs-star`` — the all-off baseline, every host pulls from the
  warehouse;
* ``tree`` — the :mod:`repro.distribution` planner, where the first
  NFS fetch seeds a k-ary peer tree and every later host copies from
  an already-seeded peer.

The headline figure is *p95 flatness*: the tree's creation p95 at the
top of the ladder divided by its value at the bottom.  Tree delivery
grows with depth (O(log N)), so the ratio stays near 1 while the star
baseline's grows roughly like N.

Plants are driven directly (no shop bidding): the point is the
delivery fabric, and an N-plant bidding round is O(N) messages per
request, which at 512 hosts would swamp the thing being measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.stats import latency_fingerprint
from repro.analysis.tables import find_point, point_record, render_table
from repro.experiments.runner import serve
from repro.provisioning import ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.workloads.requests import experiment_request

__all__ = [
    "VARIANTS",
    "DistPoint",
    "DistTreeResult",
    "run_disttree",
]

#: Delivery wirings compared at every ladder rung.
VARIANTS: Tuple[str, ...] = ("nfs-star", "tree")


def _variant_config(variant: str, fanout: int) -> ProvisioningConfig:
    if variant == "nfs-star":
        return ProvisioningConfig()
    if variant == "tree":
        return ProvisioningConfig(distribution_tree=True, tree_fanout=fanout)
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class DistPoint:
    """One (variant, fleet size) broadcast-burst measurement."""

    variant: str
    hosts: int
    ok: int
    failed: int
    p50_s: float
    p95_s: float
    mean_s: float
    max_s: float
    makespan_s: float
    nfs_mb: float
    #: Planner counters (zero for the star variant).
    peer_hops: int
    attaches: int
    fallbacks: int
    nfs_seeds: int
    #: SHA-256 over the per-host latencies (determinism checks).
    fingerprint: str


@dataclass
class DistTreeResult:
    """Full ladder: variant → points in increasing fleet size."""

    seed: int
    memory_mb: int
    hosts: Tuple[int, ...]
    fanout: int
    points: Dict[str, List[DistPoint]] = field(default_factory=dict)

    def point(self, variant: str, hosts: int) -> DistPoint:
        """The measurement for one (variant, fleet size) rung."""
        return find_point(self.points[variant], hosts=hosts)

    def p95_growth(self, variant: str) -> float:
        """p95 at the top of the ladder over p95 at the bottom."""
        lo = self.point(variant, min(self.hosts))
        hi = self.point(variant, max(self.hosts))
        return hi.p95_s / lo.p95_s

    def to_record(self) -> dict:
        """JSON-ready report: per-rung points and their fingerprints."""
        return {
            "seed": self.seed,
            "memory_mb": self.memory_mb,
            "hosts": list(self.hosts),
            "fanout": self.fanout,
            "points": [
                point_record(p) for pts in self.points.values() for p in pts
            ],
        }

    def render(self) -> str:
        return render_table(
            "Extension: golden-image distribution at scale "
            f"(one {self.memory_mb} MB VM per host, same-image burst, "
            f"tree fan-out {self.fanout})",
            {
                "variant": "<10", "hosts": ">5d", "ok": ">4d",
                "p50 (s)": ">8.1f", "p95 (s)": ">8.1f", "max (s)": ">8.1f",
                "NFS MB": ">9.0f", "hops": ">5d", "attach": ">6d",
                "fall": ">4d",
            },
            [
                (
                    variant, p.hosts, p.ok, p.p50_s, p.p95_s, p.max_s,
                    p.nfs_mb, p.peer_hops, p.attaches, p.fallbacks,
                )
                for variant, pts in self.points.items()
                for p in pts
            ],
            [
                f"{min(self.hosts)}->{max(self.hosts)} hosts: tree p95 "
                f"grows {self.p95_growth('tree'):.2f}x while the NFS star "
                f"grows {self.p95_growth('nfs-star'):.1f}x"
            ],
        )


def _run_point(
    variant: str,
    config: ProvisioningConfig,
    seed: int,
    memory_mb: int,
    hosts: int,
) -> DistPoint:
    bed = build_testbed(seed=seed, n_plants=hosts, provisioning=config)
    start = bed.env.now
    samples = serve(
        bed,
        [experiment_request(memory_mb)] * hosts,
        create=lambda i, request: bed.plants[i].create(request, f"dist-{i}"),
    )
    makespan = bed.env.now - start
    latencies = [s.latency for s in samples if s.ok]
    sample = np.asarray(latencies, dtype=float)
    ok = int(sample.size)
    planner = bed.distribution
    return DistPoint(
        variant=variant,
        hosts=hosts,
        ok=ok,
        failed=hosts - ok,
        p50_s=float(np.percentile(sample, 50)) if ok else float("nan"),
        p95_s=float(np.percentile(sample, 95)) if ok else float("nan"),
        mean_s=float(sample.mean()) if ok else float("nan"),
        max_s=float(sample.max()) if ok else float("nan"),
        makespan_s=makespan,
        nfs_mb=float(bed.nfs.mb_served),
        peer_hops=planner.peer_hops if planner else 0,
        attaches=planner.attaches if planner else 0,
        fallbacks=planner.fallbacks if planner else 0,
        nfs_seeds=planner.nfs_seeds if planner else 0,
        fingerprint=latency_fingerprint(latencies),
    )


def run_disttree(
    seed: int = 2004,
    memory_mb: int = 64,
    hosts: Sequence[int] = (8, 32, 128, 512),
    fanout: int = 2,
) -> DistTreeResult:
    """Sweep fleet sizes across delivery wirings (same-image burst).

    :param hosts: fleet sizes to sweep (one VM per host)
    :param fanout: concurrent peer serves per source (1=chain, 2=binary)
    """
    if not hosts or any(h <= 0 for h in hosts):
        raise ValueError("hosts must be positive")
    result = DistTreeResult(
        seed=seed,
        memory_mb=memory_mb,
        hosts=tuple(hosts),
        fanout=fanout,
    )
    for variant in VARIANTS:
        config = _variant_config(variant, fanout)
        result.points[variant] = [
            _run_point(variant, config, seed, memory_mb, n)
            for n in hosts
        ]
    return result
