"""Provisioning-throughput benchmark: the loadtest sweep on record.

Runs :func:`repro.experiments.loadtest.run_loadtest` — open-loop
Poisson arrivals against the simulated site with the provisioning
feature stacks ablated (baseline / host cache / +coalescing /
+speculative pools) — and appends one record to
``benchmarks/results/BENCH_provisioning.json``.

Every invocation first re-runs the baseline point at the top arrival
rate and cross-checks its per-request latency fingerprint against the
sweep's: the same seed must reproduce bit-identical results, or the
record is refused (simulated time must not depend on host state).

Run::

    PYTHONPATH=src python -m benchmarks.perf.provision_bench          # paper workload
    PYTHONPATH=src python -m benchmarks.perf.provision_bench --small  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Optional

from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.analysis.tables import point_record
from repro.experiments.loadtest import run_loadtest

__all__ = [
    "PROVISION_BENCH_PATH",
    "PAPER_PARAMS",
    "SMALL_PARAMS",
    "run_provision_bench",
]

PROVISION_BENCH_PATH = RESULTS / "BENCH_provisioning.json"

PAPER_SEED = 2004

#: Full sweep (ISSUE 3 acceptance: ≥3x creates/sec and ≥2x lower p95
#: at the top rate with everything on).
PAPER_PARAMS = {"requests": 64, "rates": (0.05, 0.2, 1.2), "n_plants": 8}
#: Scaled-down sweep for CI smoke runs.
SMALL_PARAMS = {"requests": 16, "rates": (0.05, 0.4), "n_plants": 4}


def run_provision_bench(
    small: bool = False, out: Optional[Path] = None
) -> dict:
    """Run the sweep; verify determinism; append to the trajectory."""
    params = SMALL_PARAMS if small else PAPER_PARAMS
    t0 = time.perf_counter()
    result = run_loadtest(seed=PAPER_SEED, **params)
    wall = time.perf_counter() - t0
    top = max(params["rates"])

    # Result-equivalence cross-check: the extreme ablations re-run at
    # the top rate must reproduce the sweep bit-identically.
    recheck = run_loadtest(
        seed=PAPER_SEED,
        requests=params["requests"],
        rates=(top,),
        n_plants=params["n_plants"],
        variants=("baseline", "cache+coalesce+pool"),
    )
    for variant in ("baseline", "cache+coalesce+pool"):
        first = result.point(variant, top).fingerprint
        again = recheck.point(variant, top).fingerprint
        if first != again:
            raise AssertionError(
                f"non-deterministic loadtest: {variant}@{top} gave "
                f"{first} then {again}"
            )

    record = {
        **host_fields(small),
        "requests": params["requests"],
        "n_plants": params["n_plants"],
        "rates": list(params["rates"]),
        "wall_s": round(wall, 2),
        "points": [
            point_record(p)
            for pts in result.points.values()
            for p in pts
        ],
        "throughput_speedup_at_max_rate": round(
            result.speedup_at(top), 2
        ),
        "p95_improvement_at_max_rate": round(
            result.p95_improvement_at(top), 2
        ),
        "determinism_ok": True,
    }
    append_record(out or PROVISION_BENCH_PATH, record)
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
    record = run_provision_bench(small=args.small, out=args.out)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
