"""Workload benchmark: trace-driven megaload goodput and cost by shards.

Runs the ``megaload`` sweep (see
:mod:`repro.experiments.megaload`) and appends one record to
``benchmarks/results/BENCH_workload.json`` so wall-clock, successful
requests per summed CPU-second, the failed count, latency quantiles
from the merged streaming sketches, and peak worker RSS are tracked
as a trajectory across commits.  Each record carries both megaload
invariants: the merged-trace fingerprint is identical across shard
counts and repeats, and the merged per-site summary state is
bit-identical at every shard count.

Run::

    PYTHONPATH=src python -m benchmarks.perf.workload_bench            # paper sweep
    PYTHONPATH=src python -m benchmarks.perf.workload_bench --small    # CI smoke
    PYTHONPATH=src python -m benchmarks.perf.workload_bench --million  # 1M-request rung
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.experiments.megaload import run_megaload

__all__ = [
    "WORKLOAD_BENCH_PATH",
    "run_workload_bench",
]

WORKLOAD_BENCH_PATH = RESULTS / "BENCH_workload.json"

PAPER_SEED = 2004

#: The three rungs: (sites, shard_counts, requests_per_site).
RUNGS = {
    "small": (4, (1, 4), 100),
    "paper": (8, (1, 4, 8), 2000),
    # 16 x 62500 = 1,000,000 requests; one site per shard.  Streaming
    # sketches + lazy traces keep every worker's RSS flat, which is
    # the number this rung exists to record.
    "million": (16, (16,), 62_500),
}


def run_workload_bench(
    workload: str = "paper", out: Optional[Path] = None
) -> dict:
    """Run one rung; append the record to the trajectory file."""
    sites, shard_counts, requests = RUNGS[workload]
    result = run_megaload(
        seed=PAPER_SEED,
        sites=sites,
        shard_counts=shard_counts,
        requests_per_site=requests,
        determinism_requests=40 if workload != "small" else 16,
        deadline_s=None,
        trace_capacity=100_000,
    )
    record = {**host_fields(workload == "small"), "workload": workload}
    record.update(result.to_record())
    append_record(out or WORKLOAD_BENCH_PATH, record)
    print(result.render())
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small",
        action="store_true",
        help="scaled-down sweep (CI smoke)",
    )
    parser.add_argument(
        "--million",
        action="store_true",
        help="the 1,000,000-request rung (16 sites x 62500)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="trajectory file path"
    )
    args = parser.parse_args()
    if args.small and args.million:
        parser.error("--small and --million are mutually exclusive")
    workload = (
        "small" if args.small else "million" if args.million else "paper"
    )
    record = run_workload_bench(workload=workload, out=args.out)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
