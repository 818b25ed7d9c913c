"""Sharded-kernel benchmark: what each shard count costs.

Runs the ``kernelbench`` sweep (see
:mod:`repro.experiments.kernelbench`) and appends one record to
``benchmarks/results/BENCH_kernel.json`` so wall-clock, summed CPU,
creates per CPU-second and each worker's sync counters are tracked
as a trajectory across commits.
The record also carries the determinism cross-check: merged-trace
fingerprints must agree between 1 shard and the highest swept count,
and reproduce across repeats.

Run::

    PYTHONPATH=src python -m benchmarks.perf.kernel_bench          # paper sweep
    PYTHONPATH=src python -m benchmarks.perf.kernel_bench --small  # CI smoke
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.experiments.kernelbench import run_kernelbench

__all__ = [
    "KERNEL_BENCH_PATH",
    "run_kernel_bench",
]

KERNEL_BENCH_PATH = RESULTS / "BENCH_kernel.json"

PAPER_SEED = 2004


def run_kernel_bench(
    small: bool = False, out: Optional[Path] = None
) -> dict:
    """Run the sweep; append the record to the trajectory file."""
    if small:
        result = run_kernelbench(
            seed=PAPER_SEED,
            sites=4,
            shard_counts=(1, 4),
            requests_per_site=40,
        )
    else:
        result = run_kernelbench(
            seed=PAPER_SEED,
            sites=8,
            shard_counts=(1, 4, 8),
            requests_per_site=160,
        )
    record = {**host_fields(small), **result.to_record()}
    append_record(out or KERNEL_BENCH_PATH, record)
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
        "--out", type=Path, default=None, help="trajectory file path"
    )
    args = parser.parse_args()
    record = run_kernel_bench(small=args.small, out=args.out)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
