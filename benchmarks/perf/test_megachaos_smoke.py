"""Perf smoke for the grid resilience ladder.

Same philosophy as :mod:`benchmarks.perf.test_workload_smoke`:
same-run assertions are structural (monotone ladder, exact
accounting, zero leaks, shard-invariant fingerprints); absolute
numbers are only checked against the recorded trajectory, and
skipped when no trajectory exists yet.
"""

from __future__ import annotations

import pytest

from benchmarks.perf.megachaos_bench import MEGACHAOS_BENCH_PATH
from benchmarks.perf.trajectory import load_trajectory
from repro.experiments.megachaos import run_megachaos

#: Small same-run ladder: finishes in seconds on a loaded CI runner.
_SMOKE = dict(
    seed=7,
    sites=2,
    shards=2,
    requests_per_site=60,
    blackout_at=40.0,
    blackout_s=40.0,
    shed_depth=64,
    preempt_depth=48,
    det_shard_counts=(1, 2),
    determinism_requests=24,
    deadline_s=300.0,
)


@pytest.fixture(scope="module")
def ladder():
    return run_megachaos(**_SMOKE)


def test_ladder_is_monotone_over_faulted_rungs(ladder):
    """Each compensation layer may only improve availability."""
    assert ladder.ladder_monotone, ladder.availability_ladder()


def test_faults_actually_fire(ladder):
    assert ladder.point("none").faults_applied == 0
    for rung in ("faults", "failover", "admission"):
        assert ladder.point(rung).faults_applied >= 1, rung


def test_every_arrival_accounted_on_every_rung(ladder):
    """arrivals == ok + failed + shed, exactly, per rung."""
    expected = _SMOKE["sites"] * _SMOKE["requests_per_site"]
    for p in ladder.points:
        assert p.arrivals == expected
        assert p.accounted, (p.rung, p.arrivals, p.ok, p.failed, p.shed)


def test_zero_leaks_at_grid_scope(ladder):
    """The six-dimension audit must be all-zero after drain."""
    for p in ladder.points:
        assert not p.leaked, (p.rung, p.leaks)


def test_deterministic_under_faults_and_admission(ladder):
    """Fingerprints and merged summary signatures identical across
    shard counts with every chaos knob enabled."""
    assert ladder.recheck.ok, ladder.recheck.line()
    assert set(ladder.recheck.signatures) == {1, 2}


def test_megachaos_regression_vs_trajectory(ladder):
    """Recorded ladders must keep meeting the acceptance bar:
    monotone, deterministic, leak-free, and — for the paper rung —
    grid availability >= 0.9 with failover + admission on."""
    records = load_trajectory(MEGACHAOS_BENCH_PATH)
    if not records:
        pytest.skip("no recorded megachaos-bench trajectory")
    for rec in records:
        assert rec["ladder_monotone"] is True, rec.get("timestamp")
        assert rec["deterministic"] is True, rec.get("timestamp")
        assert rec["leaked"] is False, rec.get("timestamp")
        if rec.get("workload") == "paper":
            final = [
                p for p in rec["points"] if p["rung"] == "admission"
            ]
            assert final and final[0]["availability"] >= 0.9
