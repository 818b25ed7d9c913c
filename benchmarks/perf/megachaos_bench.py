"""Megachaos benchmark: the grid resilience ladder as a trajectory.

Runs the megachaos experiment (see
:mod:`repro.experiments.megachaos`) and appends one record to
``benchmarks/results/BENCH_megachaos.json`` so the availability
ladder (none → faults → failover → admission), the shed/preempt
accounting, the six-dimension grid-scope leak audit and the
1/2/4-shard determinism verdict under faults are tracked across
commits.  Wall-clock time for the full ladder is recorded alongside
so chaos-path overhead regressions show up in the same file.

Run::

    PYTHONPATH=src python -m benchmarks.perf.megachaos_bench           # paper rung
    PYTHONPATH=src python -m benchmarks.perf.megachaos_bench --small   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Optional

from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.experiments.megachaos import run_megachaos

__all__ = [
    "MEGACHAOS_BENCH_PATH",
    "run_megachaos_bench",
]

MEGACHAOS_BENCH_PATH = RESULTS / "BENCH_megachaos.json"

PAPER_SEED = 2004

#: (sites, shards, requests_per_site, det_shard_counts).
RUNGS = {
    "small": (2, 2, 60, (1, 2)),
    "paper": (4, 4, 150, (1, 2, 4)),
}


def run_megachaos_bench(
    workload: str = "paper", out: Optional[Path] = None
) -> dict:
    """Run one rung; append the record to the trajectory file."""
    sites, shards, requests, det_counts = RUNGS[workload]
    t0 = time.perf_counter()
    result = run_megachaos(
        seed=PAPER_SEED,
        sites=sites,
        shards=shards,
        requests_per_site=requests,
        det_shard_counts=det_counts,
        determinism_requests=40 if workload != "small" else 20,
        deadline_s=None,
    )
    wall_s = time.perf_counter() - t0
    record = {
        **host_fields(workload == "small"),
        "workload": workload,
        # Wall-clock lives only in the bench trajectory — the
        # experiment's own report stays replay-stable without it.
        "ladder_wall_s": round(wall_s, 3),
        "availability_ladder": result.availability_ladder(),
    }
    record.update(result.to_record())
    append_record(out or MEGACHAOS_BENCH_PATH, record)
    print(result.render())
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small",
        action="store_true",
        help="scaled-down ladder (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="trajectory file path"
    )
    args = parser.parse_args()
    record = run_megachaos_bench(
        workload="small" if args.small else "paper", out=args.out
    )
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
