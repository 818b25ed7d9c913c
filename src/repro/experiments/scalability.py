"""Extension experiment: bidding scalability and VMBroker trees.

The paper claims "composition of services to support large number of
VM plants" (Section 6).  This experiment measures the message cost of
plant selection as the site grows:

* **flat** — the shop collects a bid from every plant per creation:
  shop-side message count grows linearly with the plant count;
* **brokered** — plants are grouped behind VMBrokers (~√N groups);
  the shop only talks to the brokers, so its message count grows with
  the number of groups while placement quality is preserved (each
  broker answers with its best plant's bid).

A second variant, :func:`run_matching_scalability`, grows the *golden
warehouse* instead of the plant count: the site's eight plants bid on
identical creations while the warehouse is padded with distinct
(unmatchable) image profiles.  With the indexed + memoized matching
path the per-site DAG-test work stays flat — every plant after the
first hits the shared memo, and the index's prefix trie tests only the
profiles on the request's matching path: each filler hangs off an edge
the walk refuses and is never reached.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.tables import render_table
from repro.core.actions import Action
from repro.core.spec import HardwareSpec
from repro.experiments.runner import run_requests
from repro.plant.warehouse import GoldenImage
from repro.sim.cluster import build_testbed
from repro.workloads.requests import (
    MANDRAKE_OS,
    experiment_request,
    install_os_action,
)

__all__ = [
    "ScalabilityResult",
    "run_scalability",
    "MatchingScalabilityResult",
    "run_matching_scalability",
]


@dataclass
class ScalabilityResult:
    """Flat vs. brokered bidding across site sizes."""

    #: site size → (flat shop calls/create, brokered shop calls/create)
    calls_per_create: Dict[int, Tuple[float, float]]
    #: site size → (flat, brokered) mean creation latency.
    latency: Dict[int, Tuple[float, float]]
    requests: int

    def render(self) -> str:
        return render_table(
            "Extension: bidding scalability — flat vs. brokered "
            f"({self.requests} x 32 MB creations per point)",
            {
                "plants": ">8d", "flat msgs/create": ">17.1f",
                "brokered msgs/create": ">21.1f", "flat lat (s)": ">13.1f",
                "brokered lat (s)": ">17.1f",
            },
            [
                (n, *self.calls_per_create[n], *self.latency[n])
                for n in sorted(self.calls_per_create)
            ],
            [
                "shop-side message cost grows ~linearly when flat, "
                "~sqrt(N) when brokered"
            ],
        )


def _run_one(
    seed: int, n_plants: int, requests: int, brokered: bool
) -> Tuple[float, float]:
    bed = build_testbed(
        seed=seed,
        n_plants=n_plants,
        rack_size=max(2, int(math.sqrt(n_plants))) if brokered else None,
    )
    calls_before = bed.shop.transport.calls
    latencies = run_requests(
        bed, [experiment_request(32) for _ in range(requests)]
    ).creation_latencies
    calls = (bed.shop.transport.calls - calls_before) / requests
    return calls, float(sum(latencies) / len(latencies))


@dataclass
class MatchingScalabilityResult:
    """Warehouse-size sweep of the indexed/memoized matching path."""

    #: extra filler images → per-run counters.  ``profiles_tested``
    #: (the "profiles tested" column) counts the profiles whose trie
    #: node an index query reached, i.e. that the request matches;
    #: profiles in pruned subtrees are not tested and not counted.
    points: Dict[int, Dict[str, float]]
    requests: int

    def render(self) -> str:
        return render_table(
            "Extension: matching scalability — warehouse size vs. "
            f"matching work ({self.requests} x 32 MB creations per "
            "point, 8 plants bidding)",
            {
                "images": ">8.0f", "selects": ">9.0f", "memo hits": ">10.0f",
                "hit %": ">7.1f", "profiles tested": ">16.0f",
                "selects/s": ">11.0f",
            },
            [
                (
                    p["images"], p["selects"], p["memo_hits"], p["hit_pct"],
                    p["profiles_tested"], p["selects_per_sec"],
                )
                for _, p in sorted(self.points.items())
            ],
            [
                "every plant after the first answers from the shared memo; "
                "profiles tested = profiles the index's trie walk reached "
                "(pruned subtrees are never tested)"
            ],
        )


def _matching_fillers(n: int) -> List[GoldenImage]:
    """Distinct-profile images in the hot bucket, none matchable.

    Each filler shares the query's bucket (vm_type/os/isa/memory) so
    the index cannot discard it wholesale, but carries a site-local
    package action foreign to the request DAG, so the subset test
    rejects it — a distinct profile the index has to rule out.
    """
    base = install_os_action(MANDRAKE_OS)
    return [
        GoldenImage(
            image_id=f"site-{i:05d}",
            vm_type="vmware",
            os=MANDRAKE_OS,
            hardware=HardwareSpec(memory_mb=32),
            performed=(
                base,
                Action(f"site-pkg-{i}", command=f"rpm -i pkg{i}.rpm"),
            ),
            memory_state_mb=32.0,
        )
        for i in range(n)
    ]


def _run_matching_one(
    seed: int, extra: int, requests: int
) -> Dict[str, float]:
    bed = build_testbed(seed=seed, extra_images=_matching_fillers(extra))
    t0 = time.perf_counter()
    run_requests(bed, [experiment_request(32) for _ in range(requests)])
    wall = time.perf_counter() - t0
    stats = bed.warehouse.match_stats
    selects = stats["queries"]
    return {
        "images": float(len(bed.warehouse)),
        "selects": float(selects),
        "memo_hits": float(stats["memo_hits"]),
        "hit_pct": 100.0 * stats["memo_hits"] / selects if selects else 0.0,
        "profiles_tested": float(
            bed.warehouse.index_stats["profiles_tested"]
        ),
        "selects_per_sec": selects / wall if wall > 0 else float("inf"),
    }


def run_matching_scalability(
    seed: int = 2004,
    sizes: Tuple[int, ...] = (10, 100, 1000),
    requests: int = 6,
) -> MatchingScalabilityResult:
    """Sweep warehouse sizes; counters are deterministic per seed."""
    points = {
        extra: _run_matching_one(seed, extra, requests)
        for extra in sizes
    }
    return MatchingScalabilityResult(points=points, requests=requests)


def run_scalability(
    seed: int = 2004,
    sizes: Tuple[int, ...] = (4, 16, 32),
    requests: int = 8,
) -> ScalabilityResult:
    """Sweep site sizes for both topologies."""
    calls_per_create: Dict[int, Tuple[float, float]] = {}
    latency: Dict[int, Tuple[float, float]] = {}
    for n in sizes:
        flat_calls, flat_lat = _run_one(seed, n, requests, False)
        brok_calls, brok_lat = _run_one(seed, n, requests, True)
        calls_per_create[n] = (flat_calls, brok_calls)
        latency[n] = (flat_lat, brok_lat)
    return ScalabilityResult(
        calls_per_create=calls_per_create,
        latency=latency,
        requests=requests,
    )
