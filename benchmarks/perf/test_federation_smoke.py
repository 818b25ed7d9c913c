"""Perf smoke for the federated control plane: scaling + determinism.

Same philosophy as :mod:`benchmarks.perf.test_kernel_smoke`: same-run
assertions are relative (multi-site vs single-site in the same
process on the same host) with flake-safe thresholds; absolute
numbers are only checked against the recorded trajectory, and skipped
when no trajectory exists yet.
"""

from __future__ import annotations

import pytest

from benchmarks.perf.federation_bench import FEDERATION_BENCH_PATH
from benchmarks.perf.trajectory import latest_record, load_trajectory
from repro.experiments.federation import run_federation

#: Small same-run sweep: 4 sites, one worker per site, few enough
#: requests to finish in seconds on a loaded CI runner.
_SMOKE = dict(
    seed=7,
    site_counts=(1, 4),
    cross_fractions=(0.0, 0.2),
    plants_per_site=4,
    requests_per_site=24,
    determinism_requests=12,
    deadline_s=180.0,
)


@pytest.fixture(scope="module")
def smoke_sweep():
    return run_federation(**_SMOKE)


def test_federated_bids_scale_with_sites(smoke_sweep):
    """Aggregate bids/sec must scale with the site count.

    The acceptance record (paper workload) shows >=2x at 4 sites; the
    smoke workload is smaller so per-shard CPU measurements are
    noisier — 1.5x is the flake-safe floor.  Bids/sec sums each
    shard's site-local bids over its own CPU-seconds, so the bound
    holds even on a single-core runner.
    """
    speedup = smoke_sweep.bids_speedup(4, 0.0)
    assert speedup >= 1.5, (
        f"4-site aggregate bid rate only {speedup:.2f}x the "
        f"single-site control plane at smoke scale"
    )


def test_federation_run_is_deterministic(smoke_sweep):
    """Merged-trace fingerprints must agree across shard counts and
    reproduce across repeats of the same (seed, partition)."""
    assert smoke_sweep.recheck.ok, smoke_sweep.recheck.line()


def test_cross_site_traffic_actually_crosses(smoke_sweep):
    """The cross-fraction sweep must exercise the spill-over path —
    spills sent, acknowledged, and completed within the deadline —
    while the zero-fraction run stays entirely site-local."""
    crossing = smoke_sweep.point(4, 0.2)
    assert crossing.spills_sent > 0
    assert crossing.spilled_ok > 0
    assert crossing.spill_timeout == 0
    local_only = smoke_sweep.point(4, 0.0)
    assert local_only.spills_sent == 0
    assert local_only.created == 4 * _SMOKE["requests_per_site"]


def test_one_bid_round_per_successful_create(smoke_sweep):
    """§3.1: one round per request.  Local placements dispatch from
    the round that decided them and a spilled request is bid once, at
    the site that serves it — so every point sits at exactly 1."""
    for point in smoke_sweep.points:
        assert point.failed == 0
        assert point.bid_rounds == point.created
        assert point.bid_rounds_per_ok == 1.0
        assert point.agg_creates_per_sec > 0


def test_latest_small_record_holds_the_floors():
    """What ``federation_bench --small`` just recorded (CI runs it
    first): 4 independent per-site control planes deliver well above
    one site's bid rate per CPU-second, cross-site spills complete,
    and nothing fails or times out."""
    latest = latest_record(FEDERATION_BENCH_PATH, "small")
    if latest is None:
        pytest.skip("no small federation-bench record")
    assert latest["bids_speedups"]["4x0"] >= 1.5, latest["bids_speedups"]
    crossing = [
        p
        for p in latest["points"]
        if p["sites"] == 4 and p["cross_fraction"] > 0
    ]
    assert any(p["spilled_ok"] for p in crossing), crossing
    for p in latest["points"]:
        assert not p["failed"] and not p["spill_timeout"], p


def test_federation_regression_vs_trajectory(smoke_sweep):
    """Recorded sweeps must keep meeting the acceptance bar.

    Every recorded run must have passed its determinism recheck,
    paper-workload records must hold the 2x 4-site bids/sec speedup
    from the acceptance criteria, and the same-run single-site
    service rate — successful creates per shard CPU-second — must stay
    within 2x of the recorded best.  The floor is on creates, not
    bids: bids/sec falls when duplicate bid rounds are removed while
    the control plane got faster.  Records from before
    ``agg_creates_per_sec`` existed are skipped, not failed.
    """
    records = load_trajectory(FEDERATION_BENCH_PATH)
    if not records:
        pytest.skip("no recorded federation-bench trajectory")
    for rec in records:
        assert rec["deterministic"] is True, (
            f"recorded sweep at {rec.get('timestamp')} failed its "
            f"determinism recheck"
        )
    paper = [rec for rec in records if rec.get("workload") == "paper"]
    if paper:
        latest = paper[-1]
        assert latest["bids_speedups"]["4x0"] >= 2.0
    best = max(
        (
            point["agg_creates_per_sec"]
            for rec in records
            for point in rec.get("points", [])
            if point.get("sites") == 1
            and point.get("cross_fraction") == 0.0
            and "agg_creates_per_sec" in point
        ),
        default=0.0,
    )
    if best:
        cps = smoke_sweep.point(1, 0.0).agg_creates_per_sec
        assert cps > best / 2.0, (
            f"single-site control plane {cps:.1f} creates/s is <half "
            f"the recorded best ({best:.1f} creates/s)"
        )
