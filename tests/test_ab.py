"""The verdict logic of ``benchmarks/perf/ab.py`` on synthetic samples,
and the environment a sample's child gets.

No child process runs here: :func:`verdicts` and :func:`compare` are
pure functions of the paired samples a comparison collects.
"""

from __future__ import annotations

import json
import subprocess
from argparse import Namespace
from pathlib import Path

import pytest

from benchmarks.perf import ab
from benchmarks.perf.ab import (
    METRICS,
    MIN_PAIRS,
    Refused,
    compare,
    event_counts,
    sign_test,
    sim_mismatch,
    verdicts,
)

SIM = {
    "events_per_request": 43.658, "create_p50_sim_s": 57.5952, "ok_frac": 1.0,
}


#: A parent whose own runs spread 0.02 s between quartiles.
PARENT_CPU = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02]
PARENT_RSS = [38.5, 38.4, 38.5, 38.6, 38.5, 38.5, 38.4, 38.5, 38.6, 38.5]
#: Fresh-interpreter set-up times, mostly import and compile.
PARENT_SETUP = [0.28, 0.29, 0.27, 0.30, 0.28, 0.26, 0.29, 0.28, 0.31, 0.28]


def samples(cpu, rss, sim=SIM, setup=PARENT_SETUP):
    return [
        {"cpu_s": c, "peak_rss_mb": r, "setup_s": s, "sim": dict(sim)}
        for c, r, s in zip(cpu, rss, setup)
    ]


def test_every_host_metric_gets_a_verdict():
    assert METRICS == ("cpu_s", "peak_rss_mb", "setup_s")
    result = verdicts(
        samples(PARENT_CPU, PARENT_RSS), samples(PARENT_CPU, PARENT_RSS)
    )
    assert sorted(result) == sorted(METRICS)
    assert {r["verdict"] for r in result.values()} == {"unresolved"}


def test_a_lighter_setup_is_claimed_on_setup_s_alone():
    # A change that loads fewer modules: set-up ~20 % lower in every
    # pair, while the timed run and its memory read the same.
    change_setup = [s * 0.8 for s in PARENT_SETUP]
    result = verdicts(
        samples(PARENT_CPU, PARENT_RSS),
        samples(PARENT_CPU, PARENT_RSS, setup=change_setup),
    )
    setup = result["setup_s"]
    assert (setup["wins"], setup["losses"]) == (10, 0)
    assert setup["ratio"] == pytest.approx(0.8)
    assert setup["verdict"] == "claimed"
    assert result["cpu_s"]["verdict"] == "unresolved"
    assert result["peak_rss_mb"]["verdict"] == "unresolved"
    # The same gain in only eight pairs of ten resolves nothing.
    mixed = [s if i < 2 else c for i, (s, c) in
             enumerate(zip(PARENT_SETUP, change_setup))]
    assert compare(PARENT_SETUP, mixed)["verdict"] == "unresolved"


def test_ten_wins_with_a_gap_above_the_parent_iqr_is_claimed():
    change_rss = [r - 2.8 for r in PARENT_RSS]
    result = verdicts(
        samples(PARENT_CPU, PARENT_RSS), samples(PARENT_CPU, change_rss)
    )
    rss = result["peak_rss_mb"]
    assert (rss["wins"], rss["ties"], rss["losses"]) == (10, 0, 0)
    gap = rss["a"]["median"] - rss["b"]["median"]
    assert gap > rss["a"]["q3"] - rss["a"]["q1"]
    assert rss["verdict"] == "claimed"
    assert rss["sign_p"] == pytest.approx(2 / 1024)
    assert rss["ratio"] == pytest.approx(35.7 / 38.5, rel=1e-3)
    # Identical CPU samples: ten ties resolve nothing.
    cpu = result["cpu_s"]
    assert (cpu["wins"], cpu["ties"], cpu["losses"]) == (0, 10, 0)
    assert cpu["verdict"] == "unresolved"


def test_six_wins_of_ten_is_unresolved():
    change = [c - 0.5 if i < 6 else c + 0.5 for i, c in enumerate(PARENT_CPU)]
    result = compare(PARENT_CPU, change)
    assert (result["wins"], result["losses"]) == (6, 4)
    assert result["verdict"] == "unresolved"


def test_ten_wins_inside_the_parent_iqr_is_unresolved():
    # Every pair won, but by less than the parent's own spread.
    result = compare(PARENT_CPU, [c - 0.001 for c in PARENT_CPU])
    assert result["wins"] == 10
    assert result["verdict"] == "unresolved"


def test_a_planted_regression_is_worse():
    result = compare(PARENT_CPU, [c * 1.05 for c in PARENT_CPU])
    assert result["losses"] == 10
    assert result["verdict"] == "worse"
    assert result["ratio"] == pytest.approx(1.05)


def test_fewer_than_ten_pairs_never_resolve():
    a, b = PARENT_CPU[: MIN_PAIRS - 1], [c * 0.5 for c in PARENT_CPU]
    assert compare(a, b[: MIN_PAIRS - 1])["verdict"] == "unresolved"
    assert compare(PARENT_CPU[:2], PARENT_CPU[:2])["verdict"] == "unresolved"


def test_a_sim_side_mismatch_is_refused():
    # Between the sides: a sim-clock metric.
    a = samples(PARENT_CPU, PARENT_RSS)
    b = samples(PARENT_CPU, PARENT_RSS, sim={**SIM, "create_p50_sim_s": 57.6})
    with pytest.raises(Refused, match="create_p50_sim_s"):
        verdicts(a, b)
    assert sim_mismatch([s["sim"] for s in a + b]) == ["create_p50_sim_s"]
    # Within one side: anything, an event count included.
    b = samples(PARENT_CPU, PARENT_RSS)
    b[3]["sim"] = {**SIM, "events_per_request": 43.659}
    with pytest.raises(Refused, match="of B differs in .'events_per_request'"):
        verdicts(a, b)


def test_an_event_count_alone_differing_between_the_sides_is_reported():
    # A kernel that queues fewer events does the same simulated work:
    # the counts are a row per side, and the verdicts stand.
    a = samples(PARENT_CPU, PARENT_RSS, sim={**SIM, "events": 43658})
    fewer = {**SIM, "events_per_request": 33.54, "events": 33540}
    b = samples(PARENT_CPU, PARENT_RSS, sim=fewer)
    result = verdicts(a, b)
    assert {r["verdict"] for r in result.values()} == {"unresolved"}
    assert event_counts(a, b) == {
        "events": (43658, 33540),
        "events_per_request": (43.658, 33.54),
    }


def test_sim_values_compare_by_repr():
    # Two NaNs from two runs are two objects, and NaN != NaN.
    nans = [{"p99": float("nan")}, {"p99": float("nan")}]
    assert sim_mismatch(nans) == []
    assert sim_mismatch([{"x": 0.1 + 0.2}, {"x": 0.3}]) == ["x"]
    assert sim_mismatch([{"x": 1.0}, {}]) == ["x"]


def test_sign_test():
    assert sign_test(0, 0) == 1.0
    assert sign_test(5, 5) == 1.0
    assert sign_test(10, 0) == sign_test(0, 10) == pytest.approx(2 / 1024)
    assert sign_test(9, 1) == pytest.approx(22 / 1024)


def test_a_sample_sets_its_own_bytecode_state(monkeypatch, tmp_path):
    # Whatever the caller's environment says about bytecode, a side's
    # samples read and write it under that side's own prefix.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    seen = []

    def run(command, **kwargs):
        seen.append(kwargs["env"])
        return subprocess.CompletedProcess(command, 0, json.dumps({}), "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    args = Namespace(workload="paper_seq", seed=1, reps=1, scale=0.1)
    ab._sample(Path("side"), args, 0, tmp_path / "pycache-0")
    (env,) = seen
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pycache-0")
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert "PYTHONPATH" not in env
    assert "PYTHONPYCACHEPREFIX" in ab.BYTECODE_STATE


def test_the_report_prints_the_load_average_at_both_ends(
    monkeypatch, capsys
):
    # A neighbour busy during the run shows as a load average that
    # moved; the verdicts are those of the samples alone.
    readings = iter([(0.5, 0.25, 0.75), (2.0, 1.5, 1.0)])
    monkeypatch.setattr(ab.os, "getloadavg", lambda: next(readings))
    monkeypatch.setattr(ab, "_describe", lambda rev: rev)
    monkeypatch.setattr(ab, "snapshot", lambda rev, scratch: Path(rev))
    sim = {**SIM, "events": 43658}
    drawn = {side: iter(samples(PARENT_CPU, PARENT_RSS, sim=sim))
             for side in ("a", "b")}

    def sample(side, args, core, pycache):
        # The first sample a side draws is the untimed warm-up.
        return next(drawn[str(side)])

    monkeypatch.setattr(ab, "_sample", sample)
    assert ab.main(["a", "b", "--workload", "paper_seq", "--pairs", "3"]) == 0
    out = capsys.readouterr().out
    assert "load average at the start (1, 5, 15 min): 0.50 0.25 0.75" in out
    assert "load average at the end (1, 5, 15 min): 2.00 1.50 1.00" in out
    assert out.count("verdict ") == len(METRICS)
