#!/usr/bin/env python3
"""Compare two sets of benchmark records against the per-metric bounds.

    python3 benchmarks/e2e/compare.py A B

``A`` (baseline) and ``B`` (candidate) are each a record file written
by ``run.py --out`` or a directory of such files; traced records are
ignored (their end-to-end numbers are context, not measurements).
Prints one row per (workload, metric):

``same``        inside the bound;
``better``      B beats A by more than the run-to-run spread, or every
                run of B beats every run of A;
``worse``       B's median is worse than A's by more than the bound;
``unresolved``  the spread is wider than the bound (host clock), or
                the two sets share no seed (sim clock and counts).

Host-clock metrics compare medians over the runs of a set.  Sim-clock
metrics and counts compare seed by seed, rounded to 9 significant
digits: for a fixed seed they repeat exactly, so any difference is a
change of the program, and one beyond the bound (0 for the modelled
system's own numbers) is ``worse``.  Exits non-zero on a ``worse`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import spec  # noqa: E402

__all__ = ["load", "compare", "main"]


def load(path) -> list:
    """Untraced records under ``path`` (a record file or a directory)."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file) as fh:
            record = json.load(fh)
        if record.get("benchmark") == "e2e" and not record["trace"]:
            records.append(record)
    if not records:
        raise SystemExit(f"compare: no untraced e2e records in {path}")
    return records


def _round9(value: float) -> float:
    return float(f"{value:.9g}")


def _worsening(metric: spec.Metric, a: float, b: float) -> float:
    """Signed share of ``|a|`` by which ``b`` is worse (negative = better)."""
    delta = (b - a) if metric.better == "lower" else (a - b)
    if delta == 0:
        return 0.0
    return delta / abs(a) if a else float("inf") * delta


def _spread(runs: list, name: str) -> float:
    """Inter-quartile distance: across runs, or inside the only run."""
    if len(runs) >= 2:
        q1, _, q3 = statistics.quantiles(
            [r["end_to_end"][name]["value"] for r in runs], n=4
        )
        return q3 - q1
    entry = runs[0]["end_to_end"][name]
    return entry.get("q3", 0.0) - entry.get("q1", 0.0)


def _host_row(metric: spec.Metric, a_runs: list, b_runs: list):
    a_vals = [r["end_to_end"][metric.name]["value"] for r in a_runs]
    b_vals = [r["end_to_end"][metric.name]["value"] for r in b_runs]
    a_med, b_med = statistics.median(a_vals), statistics.median(b_vals)
    worse_by = _worsening(metric, a_med, b_med)
    spread = max(
        _spread(a_runs, metric.name), _spread(b_runs, metric.name)
    ) / abs(a_med)
    if metric.better == "lower":
        all_better = max(b_vals) < min(a_vals)
    else:
        all_better = min(b_vals) > max(a_vals)
    if all_better and len(a_vals) >= 2 and len(b_vals) >= 2:
        verdict = "better"
    elif spread > metric.bound:
        verdict = "unresolved"
    elif worse_by > metric.bound:
        verdict = "worse"
    elif -worse_by > spread:
        verdict = "better"
    else:
        verdict = "same"
    note = f"{-worse_by:+.1%} spread {spread:.1%} bound {metric.bound:.0%}"
    return verdict, a_med, b_med, note


def _exact_row(metric: spec.Metric, a_runs: list, b_runs: list):
    a_by_seed, b_by_seed = (
        {
            r["seed"]: _round9(r["end_to_end"][metric.name]["value"])
            for r in runs
        }
        for runs in (a_runs, b_runs)
    )
    seeds = sorted(set(a_by_seed) & set(b_by_seed))
    if not seeds:
        a_med = statistics.median(a_by_seed.values())
        b_med = statistics.median(b_by_seed.values())
        return "unresolved", a_med, b_med, "no seed in common"
    changes = [
        _worsening(metric, a_by_seed[s], b_by_seed[s]) for s in seeds
    ]
    a_med = statistics.median(a_by_seed[s] for s in seeds)
    b_med = statistics.median(b_by_seed[s] for s in seeds)
    moved = sum(1 for c in changes if c)
    note = (
        f"moved on {moved} of {len(seeds)} seed(s), worst "
        f"{max(changes):+.2%}, bound {metric.bound:.0%}"
    )
    if max(changes) > metric.bound:
        return "worse", a_med, b_med, note
    if min(changes) < 0:
        return "better", a_med, b_med, note
    return "same", a_med, b_med, note


def compare(a_records: list, b_records: list) -> list:
    """Rows ``(workload, metric, verdict, a, b, unit, note)``."""
    rows = []
    workloads = sorted(
        {r["workload"] for r in a_records} & {r["workload"] for r in b_records}
    )
    for workload in workloads:
        a_runs = [r for r in a_records if r["workload"] == workload]
        b_runs = [r for r in b_records if r["workload"] == workload]
        for metric in spec.END_TO_END:
            row = _host_row if metric.clock == "host" else _exact_row
            verdict, a, b, note = row(metric, a_runs, b_runs)
            rows.append(
                (workload, metric.name, verdict, a, b, metric.unit, note)
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    if not rows:
        print("compare: the two sets share no workload", file=sys.stderr)
        return 2
    for workload, name, verdict, a, b, unit, note in rows:
        print(
            f"{workload:14s} {name:20s} {verdict:10s} "
            f"{a:<13.9g} {b:<13.9g} {unit:6s} {note}"
        )
    worse = sum(1 for row in rows if row[2] == "worse")
    unresolved = sum(1 for row in rows if row[2] == "unresolved")
    print(f"# {len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
