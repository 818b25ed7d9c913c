"""Perf smoke for the sharded kernel: speedup + determinism guardrails.

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


def test_sharded_agg_throughput_beats_single_shard(smoke_sweep):
    """Aggregate (per-CPU-second) throughput must scale with shards.

    The acceptance record (paper workload) shows >2.5x at 4 shards;
    the smoke workload is smaller so sync waves weigh more — 1.5x is
    the flake-safe floor.  ``agg ev/s`` sums events per CPU-second
    over shards, so it holds even on a single-core runner where
    wall-clock cannot speed up.
    """
    speedup = smoke_sweep.agg_speedup(4)
    assert speedup >= 1.5, (
        f"4-shard aggregate throughput only {speedup:.2f}x the "
        f"single-shard kernel at smoke scale"
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
        if "agg_creates_per_sec" not in point:
            pytest.skip("record predates agg_creates_per_sec")
        # Generous absolute floor (a local single-shard baseline runs
        # ~1,300 creates/s): catches order-of-magnitude kernel
        # regressions without flaking on slow shared runners.  On
        # creates, not events: a create that comes to need fewer
        # events lowers events/s while the run gets shorter.
        assert point["agg_creates_per_sec"] >= 150, point
    top = max(latest["agg_speedups"], key=int)
    assert latest["agg_speedups"][top] >= 1.5, latest["agg_speedups"]


def test_kernel_regression_vs_trajectory(smoke_sweep):
    """Recorded sweeps must keep meeting the acceptance bar.

    Every recorded run must have passed its determinism cross-check,
    paper-workload records must hold the 2.5x 4-shard aggregate
    speedup from the acceptance criteria, and the same-run smoke
    single-shard creates/sec must stay within 2x of the recorded best
    for comparable (single-core-normalized) throughput.  Records from
    before ``agg_creates_per_sec`` existed do not enter the best.
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
    if paper:
        latest = paper[-1]
        assert latest["agg_speedups"]["4"] >= 2.5
    best = max(
        (
            point["agg_creates_per_sec"]
            for rec in records
            for point in rec.get("points", [])
            if point.get("shards") == 1 and "agg_creates_per_sec" in point
        ),
        default=0.0,
    )
    if best:
        cps = smoke_sweep.point(1).agg_creates_per_sec
        assert cps > best / 2.0, (
            f"single-shard kernel {cps:.0f} creates/s is <half the "
            f"recorded best ({best:.0f} creates/s)"
        )
