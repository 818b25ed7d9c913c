"""Distribution-tree smoke: small ladder, flatness + determinism.

Same spirit as ``test_perf_smoke``: relative, same-run guardrails
sized for noisy shared CI hardware, plus a trajectory check that the
recorded paper-scale ladder keeps meeting the ISSUE 7 acceptance bar
(tree p95 at 512 hosts ≤ 1.5x its 8-host value, NFS star ≥ 5x).
"""

from __future__ import annotations

import pytest

from benchmarks.perf.distribution_bench import (
    DISTRIBUTION_BENCH_PATH,
    SMALL_PARAMS,
)
from benchmarks.perf.trajectory import load_trajectory
from repro.experiments.disttree import run_disttree

#: Small-ladder flatness ceiling: 8 -> 64 hosts adds ~3 tree levels,
#: so the tree's p95 must stay near-flat while the star scales ~8x.
_SMALL_TREE_CEILING = 1.4
_SMALL_STAR_FLOOR = 2.5


def test_tree_flat_while_star_grows_at_smoke_scale():
    result = run_disttree(seed=2004, **SMALL_PARAMS)
    tree = result.p95_growth("tree")
    star = result.p95_growth("nfs-star")
    assert tree <= _SMALL_TREE_CEILING, (
        f"tree p95 grew {tree:.2f}x over the small ladder "
        f"(ceiling {_SMALL_TREE_CEILING}x)"
    )
    assert star >= _SMALL_STAR_FLOOR, (
        f"NFS star only grew {star:.2f}x — the bottleneck the tree "
        f"removes is not being reproduced"
    )
    # The tree must actually shed warehouse traffic: one seed transfer
    # per rung, not one per host.
    for point in result.points["tree"]:
        assert point.nfs_seeds < point.hosts
        assert point.peer_hops >= point.hosts - point.nfs_seeds
        assert point.failed == 0


def test_disttree_fingerprints_deterministic():
    top = max(SMALL_PARAMS["hosts"])
    first = run_disttree(seed=2004, hosts=(top,))
    again = run_disttree(seed=2004, hosts=(top,))
    for variant in ("nfs-star", "tree"):
        assert (
            first.point(variant, top).fingerprint
            == again.point(variant, top).fingerprint
        )


def test_distribution_regression_vs_trajectory():
    """Recorded paper-scale ladder must keep meeting the acceptance bar."""
    records = [
        rec
        for rec in load_trajectory(DISTRIBUTION_BENCH_PATH)
        if rec.get("workload") == "paper"
    ]
    if not records:
        pytest.skip("no recorded paper-workload distribution trajectory")
    latest = records[-1]
    assert latest["tree_p95_growth"] <= 1.5
    assert latest["star_p95_growth"] >= 5.0
    assert latest["determinism_ok"] is True
