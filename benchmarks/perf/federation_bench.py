"""Federation benchmark: control-plane service rate across site counts.

Runs the ``federation`` sweep (see
:mod:`repro.experiments.federation`) and appends one record to
``benchmarks/results/BENCH_federation.json`` so creates per summed
CPU-second, wall-clock, bid rounds per successful create and create
p95 latency are tracked as a trajectory across commits.  The bid
count stays in every point, but it counts work rather than service
(a control plane that bids twice per request reports twice as many),
so the trajectory floor rests on ``goodput_per_cpu_s``.  Each record
states the host (``cpu_count`` and the cores this process may use)
and carries the determinism recheck: the largest grid's merged-trace
fingerprint must agree between 1 shard and one-shard-per-site, and
reproduce across repeats.

Run::

    PYTHONPATH=src python -m benchmarks.perf.federation_bench          # paper sweep
    PYTHONPATH=src python -m benchmarks.perf.federation_bench --small  # CI smoke
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.experiments.federation import run_federation

__all__ = [
    "FEDERATION_BENCH_PATH",
    "run_federation_bench",
]

FEDERATION_BENCH_PATH = RESULTS / "BENCH_federation.json"

PAPER_SEED = 2004


def run_federation_bench(
    small: bool = False, out: Optional[Path] = None
) -> dict:
    """Run the sweep; append the record to the trajectory file."""
    if small:
        result = run_federation(
            seed=PAPER_SEED,
            site_counts=(1, 4),
            cross_fractions=(0.0, 0.2),
            plants_per_site=4,
            requests_per_site=40,
            determinism_requests=16,
        )
    else:
        result = run_federation(
            seed=PAPER_SEED,
            site_counts=(1, 4, 16),
            cross_fractions=(0.0, 0.1, 0.3),
            plants_per_site=8,
            requests_per_site=160,
        )
    record = {**host_fields(small), **result.to_record()}
    append_record(out or FEDERATION_BENCH_PATH, record)
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
    record = run_federation_bench(small=args.small, out=args.out)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
