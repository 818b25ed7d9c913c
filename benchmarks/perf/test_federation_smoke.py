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


def test_per_cpu_service_rate_holds_as_sites_are_added(smoke_sweep):
    """Four sites on four workers deliver, per summed CPU-second, at
    least 3/8 of what one site does: registries, brokers and address
    blocks are site-local, so all that more sites can cost a create
    is synchronization.  CPU-seconds, not wall-clock: the bound holds
    on a runner with fewer cores than sites."""
    one = smoke_sweep.point(1, 0.0).cost["goodput_per_cpu_s"]
    four = smoke_sweep.point(4, 0.0).cost["goodput_per_cpu_s"]
    assert four >= 0.375 * one, (one, four)


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
        assert point.cost["goodput_per_cpu_s"] > 0


def _local_rate_by_sites(record: dict) -> dict:
    """sites -> creates per CPU-second at cross 0 (none: old record)."""
    return {
        p["sites"]: p["goodput_per_cpu_s"]
        for p in record["points"]
        if p["cross_fraction"] == 0.0 and "goodput_per_cpu_s" in p
    }


def test_latest_small_record_holds_the_floors():
    """What ``federation_bench --small`` just recorded (CI runs it
    first): 4 sites keep 3/8 of one site's creates per CPU-second,
    cross-site spills complete, and nothing fails or times out."""
    latest = latest_record(FEDERATION_BENCH_PATH, "small")
    if latest is None:
        pytest.skip("no small federation-bench record")
    rate = _local_rate_by_sites(latest)
    assert rate[4] >= 0.375 * rate[1], rate
    crossing = [
        p
        for p in latest["points"]
        if p["sites"] == 4 and p["cross_fraction"] > 0
    ]
    assert any(p["spilled_ok"] for p in crossing), crossing
    for p in latest["points"]:
        assert not p["failed"] and not p["spill_timeout"], p


def test_federation_regression_vs_trajectory():
    """Recorded sweeps must keep meeting the acceptance bar.

    Every recorded run must have passed its determinism recheck, and
    the latest paper-workload record must keep half of one site's
    creates per CPU-second at 4 sites.  On creates, not bids: removing
    duplicate bid rounds lowers a bid rate while the control plane gets
    faster.  Records from before ``goodput_per_cpu_s`` existed are
    skipped, not failed.  This run's creates per CPU-second are not
    held to a recorded best: a 24-request point on a busy runner
    against a sweep recorded on an idle one is host noise, and what a
    create costs is pinned by counts (``py_calls_per_request``, the
    tier-1 call budgets).
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
    rate = _local_rate_by_sites(paper[-1]) if paper else {}
    if rate:
        assert rate[4] >= 0.5 * rate[1], rate
