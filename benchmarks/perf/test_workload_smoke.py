"""Perf smoke for the trace-driven workload engine.

Same philosophy as :mod:`benchmarks.perf.test_federation_smoke`:
same-run assertions are relative with flake-safe thresholds; absolute
numbers are only checked against the recorded trajectory, and skipped
when no trajectory exists yet.
"""

from __future__ import annotations

import pytest

from benchmarks.perf.trajectory import latest_record, load_trajectory
from benchmarks.perf.workload_bench import WORKLOAD_BENCH_PATH
from repro.experiments.megaload import run_megaload

#: Small same-run sweep: finishes in seconds on a loaded CI runner.
_SMOKE = dict(
    seed=7,
    sites=2,
    shard_counts=(1, 2),
    requests_per_site=40,
    determinism_requests=16,
    deadline_s=300.0,
    trace_capacity=20_000,
)


@pytest.fixture(scope="module")
def smoke_sweep():
    return run_megaload(**_SMOKE)


def test_megaload_run_is_deterministic(smoke_sweep):
    """Merged-trace fingerprints must agree across shard counts and
    reproduce across repeats, under bounded tracers."""
    assert smoke_sweep.recheck.ok, smoke_sweep.recheck.line()
    assert smoke_sweep.recheck.trace_dropped == 0


def test_sketches_merge_exactly_across_shard_counts(smoke_sweep):
    """The merged per-site summary state must be bit-identical at
    every shard count — the exact-merge contract."""
    assert smoke_sweep.sketch_equal, {
        p.shards: p.summary_signature for p in smoke_sweep.points
    }


def test_all_arrivals_accounted(smoke_sweep):
    """Every trace arrival ends as ok or failed — none lost."""
    expected = _SMOKE["sites"] * _SMOKE["requests_per_site"]
    for p in smoke_sweep.points:
        assert p.arrivals == expected
        assert p.ok + p.failed == p.arrivals
        assert p.ok > 0


def test_quantiles_ordered_and_rss_bounded(smoke_sweep):
    """Sketch quantiles are monotone and peak RSS is recorded."""
    for p in smoke_sweep.points:
        assert p.p50_latency_s <= p.p95_latency_s <= p.p99_latency_s
        assert p.peak_rss_mb > 0
        # A smoke run must not approach developer-machine limits.
        assert p.peak_rss_mb < 2048


def test_latest_small_record_holds_the_floors():
    """What ``workload_bench --small`` just recorded (CI runs it first)."""
    latest = latest_record(WORKLOAD_BENCH_PATH, "small")
    if latest is None:
        pytest.skip("no small workload-bench record")
    for point in latest["points"]:
        # Generous absolute floor (a local single-shard baseline
        # sustains ~1,500 successful requests per CPU-second): catches
        # order-of-magnitude regressions, no flakes on slow runners.
        assert point["goodput_per_cpu_s"] >= 100, point
        assert point["ok"] + point["failed"] == point["arrivals"], point


def test_workload_regression_vs_trajectory(smoke_sweep):
    """Recorded sweeps must keep meeting the acceptance bar.

    Every recorded run must have passed both the determinism and
    exact-merge rechecks, million-rung records must have completed
    the full 1,000,000 requests within developer-machine memory, and
    the same-run single-shard goodput — successful requests per
    CPU-second — must stay within 2x of the recorded best.  Records
    from before ``goodput_per_cpu_s`` existed do not enter the best.
    """
    records = load_trajectory(WORKLOAD_BENCH_PATH)
    if not records:
        pytest.skip("no recorded workload-bench trajectory")
    for rec in records:
        assert rec["deterministic"] is True, (
            f"recorded sweep at {rec.get('timestamp')} failed its "
            f"determinism recheck"
        )
        assert rec["sketch_equal"] is True
    million = [
        rec for rec in records if rec.get("workload") == "million"
    ]
    for rec in million:
        total = sum(p["ok"] + p["failed"] for p in rec["points"]) / len(
            rec["points"]
        )
        assert total == 1_000_000
        assert rec["peak_rss_mb"] < 8192
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
        rps = smoke_sweep.point(1).cost["goodput_per_cpu_s"]
        assert rps > best / 2.0, (
            f"single-shard megaload {rps:.0f} ok per CPU-second is "
            f"<half the recorded best ({best:.0f})"
        )
