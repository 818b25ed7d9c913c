"""Perf smoke for the sharded kernel: sync-cost + determinism guardrails.

Same philosophy as :mod:`benchmarks.perf.test_perf_smoke`: the
same-run assertions are relative (sharded vs single-shard in the same
process on the same host), with thresholds conservative enough for
noisy shared CI runners; absolute numbers are only checked against
the recorded trajectory, and skipped when no trajectory exists yet.
"""

from __future__ import annotations

import pytest

from benchmarks.perf.kernel_bench import KERNEL_BENCH_PATH
from benchmarks.perf.trajectory import latest_record, load_trajectory
from repro.experiments.kernelbench import run_kernelbench

#: Small same-run sweep: 4 sites so a 4-shard run is one site per
#: worker, few enough requests to finish in seconds.
_SMOKE = dict(
    seed=7,
    sites=4,
    shard_counts=(1, 4),
    requests_per_site=24,
    determinism_requests=12,
    deadline_s=120.0,
)


@pytest.fixture(scope="module")
def smoke_sweep():
    return run_kernelbench(**_SMOKE)


def test_sync_overhead_stays_bounded(smoke_sweep):
    """Four shards may burn at most 2.67x the one-shard run's CPU (the
    recorded paper sweep reads 1.3-1.4x; sync waves weigh more at
    smoke scale).  CPU-seconds, not wall-clock: a shared runner says
    nothing about what four cores would deliver, so ``wall_speedup``
    is printed and recorded but never gated."""
    four = smoke_sweep.point(4).cost
    assert four["sync_cpu_ratio"] <= 2.67, four
    assert four["projected"] == (4 > four["usable_cores"])


def test_one_shard_goodput_is_creates_over_that_workers_cpu(smoke_sweep):
    """What older records called the aggregate, at one shard: so
    one-shard floors compare across the rename."""
    one = smoke_sweep.point(1)
    assert len(one.cost["sync"]) == 1
    assert one.cost["goodput_per_cpu_s"] == round(
        one.created / one.cost["cpu_s"], 2
    )


def test_sharded_run_is_deterministic(smoke_sweep):
    """Merged-trace fingerprints must agree across shard counts and
    reproduce across repeats of the same (seed, partition)."""
    assert smoke_sweep.recheck.ok, smoke_sweep.recheck.line()
    assert smoke_sweep.point(1).events > 1000, (
        "smoke workload too small to exercise the kernel"
    )


def test_latest_small_record_holds_the_floors():
    """What ``kernel_bench --small`` just recorded (CI runs it first)."""
    latest = latest_record(KERNEL_BENCH_PATH, "small")
    if latest is None:
        pytest.skip("no small kernel-bench record")
    for point in latest["points"]:
        # Generous absolute floor (a local single-shard baseline runs
        # ~1,300 creates per CPU-second, the 4-shard run ~900):
        # catches order-of-magnitude kernel regressions without
        # flaking on slow shared runners.  On creates, not events: a
        # create that needs fewer events lowers events/s, not this.
        assert point["goodput_per_cpu_s"] >= 150, point
        assert point["sync_cpu_ratio"] <= 2.67, point


def test_kernel_regression_vs_trajectory(smoke_sweep):
    """Recorded sweeps must keep meeting the acceptance bar.

    Every recorded run must have passed its determinism cross-check,
    the latest paper-workload record must hold 4 shards to 1.6x the
    one-shard CPU, and the same-run smoke single-shard creates per
    CPU-second must stay within 2x of the recorded best.  Records
    from before ``goodput_per_cpu_s`` existed are skipped.
    """
    records = load_trajectory(KERNEL_BENCH_PATH)
    if not records:
        pytest.skip("no recorded kernel-bench trajectory")
    for rec in records:
        assert rec["deterministic"] is True, (
            f"recorded sweep at {rec.get('timestamp')} failed its "
            f"determinism cross-check"
        )
    paper = [rec for rec in records if rec.get("workload") == "paper"]
    for point in paper[-1]["points"] if paper else ():
        if point["shards"] == 4 and "sync_cpu_ratio" in point:
            assert point["sync_cpu_ratio"] <= 1.6, point
    best = max(
        (
            point["goodput_per_cpu_s"]
            for rec in records
            for point in rec.get("points", [])
            if point.get("shards") == 1 and "goodput_per_cpu_s" in point
        ),
        default=0.0,
    )
    if best:
        cps = smoke_sweep.point(1).cost["goodput_per_cpu_s"]
        assert cps > best / 2.0, (
            f"single-shard kernel {cps:.0f} creates/s is <half the "
            f"recorded best ({best:.0f} creates/s)"
        )
