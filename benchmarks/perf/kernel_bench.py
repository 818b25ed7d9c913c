"""Sharded-kernel benchmark: events/sec across shard counts.

Runs the ``kernelbench`` sweep (see
:mod:`repro.experiments.kernelbench`) and appends one record to
``benchmarks/results/BENCH_kernel.json`` so throughput and the
4-shard aggregate speedup are tracked as a trajectory across commits.
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
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Optional

from benchmarks.e2e.workloads import usable_cores
from repro.experiments.kernelbench import run_kernelbench

__all__ = [
    "KERNEL_BENCH_PATH",
    "run_kernel_bench",
    "load_kernel_trajectory",
]

KERNEL_BENCH_PATH = Path(__file__).resolve().parent.parent / "results" / (
    "BENCH_kernel.json"
)

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
    record = {
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "workload": "small" if small else "paper",
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
    }
    record.update(result.to_record())
    path = out or KERNEL_BENCH_PATH
    trajectory = load_kernel_trajectory(path)
    trajectory.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    print(result.render())
    return record


def load_kernel_trajectory(path: Optional[Path] = None) -> list:
    """The recorded benchmark trajectory (empty if absent/corrupt)."""
    path = path or KERNEL_BENCH_PATH
    try:
        with open(path) as fh:
            data = json.load(fh)
        return data if isinstance(data, list) else []
    except (OSError, ValueError):
        return []


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
