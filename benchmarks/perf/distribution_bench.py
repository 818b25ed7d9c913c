"""Image-distribution benchmark: the disttree ladder on record.

Runs :func:`repro.experiments.disttree.run_disttree` — a same-image
broadcast burst (one VM per host) at each rung of a fleet-size ladder,
with delivery wired as the all-off NFS star and as the peer broadcast
tree — and appends one record to
``benchmarks/results/BENCH_distribution.json``.

Headline metrics:

* ``tree_p95_growth`` — tree-mode creation p95 at the top rung over
  its value at the bottom rung (the flatness figure; ISSUE 7
  acceptance: ≤ 1.5 over 8 → 512 hosts);
* ``star_p95_growth`` — the same ratio for the NFS-star baseline
  (acceptance: ≥ 5, i.e. the bottleneck being engineered away is
  actually present).

Every invocation re-runs both variants at the top rung and
cross-checks the per-host latency fingerprints against the sweep's:
the same seed must reproduce bit-identical results or the record is
refused.

Run::

    PYTHONPATH=src python -m benchmarks.perf.distribution_bench          # paper ladder 8->512
    PYTHONPATH=src python -m benchmarks.perf.distribution_bench --small  # CI smoke 8->64
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Optional

from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.analysis.tables import point_record
from repro.experiments.disttree import VARIANTS, run_disttree

__all__ = [
    "DISTRIBUTION_BENCH_PATH",
    "PAPER_PARAMS",
    "SMALL_PARAMS",
    "run_distribution_bench",
]

DISTRIBUTION_BENCH_PATH = RESULTS / "BENCH_distribution.json"

PAPER_SEED = 2004

#: Full ladder (ISSUE 7 acceptance: tree p95 at 512 hosts ≤ 1.5x its
#: 8-host value while the NFS star grows ≥ 5x).
PAPER_PARAMS = {"hosts": (8, 32, 128, 512), "fanout": 2}
#: Scaled-down ladder for CI smoke runs.
SMALL_PARAMS = {"hosts": (8, 64), "fanout": 2}


def run_distribution_bench(
    small: bool = False, out: Optional[Path] = None
) -> dict:
    """Run the ladder; verify determinism; append to the trajectory."""
    params = SMALL_PARAMS if small else PAPER_PARAMS
    t0 = time.perf_counter()
    result = run_disttree(seed=PAPER_SEED, **params)
    wall = time.perf_counter() - t0
    top = max(params["hosts"])

    # Result-equivalence cross-check: both variants re-run at the top
    # rung must reproduce the sweep bit-identically.
    recheck = run_disttree(
        seed=PAPER_SEED, hosts=(top,), fanout=params["fanout"]
    )
    for variant in VARIANTS:
        first = result.point(variant, top).fingerprint
        again = recheck.point(variant, top).fingerprint
        if first != again:
            raise AssertionError(
                f"non-deterministic disttree: {variant}@{top} gave "
                f"{first} then {again}"
            )

    record = {
        **host_fields(small),
        "hosts": list(params["hosts"]),
        "fanout": params["fanout"],
        "wall_s": round(wall, 2),
        "points": [
            point_record(p)
            for pts in result.points.values()
            for p in pts
        ],
        "tree_p95_growth": round(result.p95_growth("tree"), 3),
        "star_p95_growth": round(result.p95_growth("nfs-star"), 3),
        "determinism_ok": True,
    }
    append_record(out or DISTRIBUTION_BENCH_PATH, record)
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
    record = run_distribution_bench(small=args.small, out=args.out)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
