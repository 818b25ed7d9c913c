"""The recorded benches: one rung table, one record shape.

``BENCHES`` maps a ``vmplants`` command (:data:`repro.cli.COMMANDS`)
to its rungs; a rung is the complete keyword set its function runs
with, seed included.  One run appends one record to
``benchmarks/results/BENCH_<command>.json``, a JSON list, oldest
first.  Every record opens with the same head — when, which command
and rung, on what host, how long it took — so a number is read next
to the machine that produced it; then comes the result's own record.

Every record carries ``deterministic``.  The four sharded sweeps
recheck their merged-trace fingerprints themselves; ``loadtest`` and
``disttree`` re-run their top rung here and compare per-request
latency fingerprints.

Run::

    PYTHONPATH=src python -m benchmarks.perf.bench NAME \
        [--rung small|paper|million] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from benchmarks.e2e.workloads import usable_cores
from repro.analysis.tables import point_record
from repro.cli import COMMANDS, _load

__all__ = [
    "BENCHES", "HEAD", "HOST_KEYS", "RESULTS", "bench_path", "run_bench",
]

#: Where the committed records live.
RESULTS = Path(__file__).resolve().parent.parent / "results"

#: The keys every record opens with, in order.
HEAD = (
    "timestamp", "command", "rung", "cpu_count", "usable_cores", "python",
    "wall_s",
)

#: Point keys read off the host's clock, memory or core count: what
#: two runs of one rung may disagree on.  Everything else in a point is
#: decided by the simulation.
HOST_KEYS = frozenset({
    "wall_s", "cpu_s", "goodput_per_cpu_s", "sync_cpu_ratio", "wall_speedup",
    "sync", "peak_rss_mb", "usable_cores", "projected",
})

#: command -> rung -> keyword arguments.  ``loadtest`` / ``disttree``
#: ``small`` are the points ``tests/report_goldens.json`` pins; the
#: sharded ``small`` rungs are sized to finish in seconds on a loaded
#: two-core runner.
BENCHES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "loadtest": {
        "small": dict(seed=2004, requests=16, rates=(0.05, 0.4), n_plants=4),
        "paper": dict(
            seed=2004, requests=64, rates=(0.05, 0.2, 1.2), n_plants=8
        ),
    },
    "disttree": {
        "small": dict(seed=2004, hosts=(8, 64), fanout=2),
        "paper": dict(seed=2004, hosts=(8, 32, 128, 512), fanout=2),
    },
    "kernelbench": {
        "small": dict(
            seed=7, sites=4, shard_counts=(1, 4), requests_per_site=24,
            determinism_requests=12, deadline_s=120.0,
        ),
        "paper": dict(
            seed=2004, sites=8, shard_counts=(1, 4, 8), requests_per_site=160
        ),
    },
    "federation": {
        "small": dict(
            seed=7, site_counts=(1, 4), cross_fractions=(0.0, 0.2),
            plants_per_site=4, requests_per_site=24,
            determinism_requests=12, deadline_s=180.0,
        ),
        "paper": dict(
            seed=2004, site_counts=(1, 4, 16),
            cross_fractions=(0.0, 0.1, 0.3), plants_per_site=8,
            requests_per_site=160,
        ),
    },
    "megaload": {
        "small": dict(
            seed=7, sites=2, shard_counts=(1, 2), requests_per_site=40,
            determinism_requests=16, deadline_s=300.0, trace_capacity=20_000,
        ),
        "paper": dict(
            seed=2004, sites=8, shard_counts=(1, 4, 8),
            requests_per_site=2000, determinism_requests=40,
            deadline_s=None, trace_capacity=100_000,
        ),
        # 16 x 62,500 = 1,000,000 requests, one site per shard: what
        # this rung records is that every worker's RSS stays flat.
        "million": dict(
            seed=2004, sites=16, shard_counts=(16,),
            requests_per_site=62_500, determinism_requests=40,
            deadline_s=None, trace_capacity=100_000,
        ),
    },
    "megachaos": {
        "small": dict(
            seed=7, sites=2, shards=2, requests_per_site=60,
            blackout_at=40.0, blackout_s=40.0, shed_depth=64,
            preempt_depth=48, det_shard_counts=(1, 2),
            determinism_requests=24, deadline_s=300.0,
        ),
        "paper": dict(
            seed=2004, sites=4, shards=4, requests_per_site=150,
            det_shard_counts=(1, 2, 4), determinism_requests=40,
            deadline_s=None,
        ),
    },
}

#: The swept axis whose top value ``loadtest`` / ``disttree`` re-run.
_TOP_AXIS = {"loadtest": "rates", "disttree": "hosts"}


def bench_path(name: str) -> Path:
    """The committed record file of one command."""
    return RESULTS / f"BENCH_{name}.json"


def _function(name: str):
    return _load(COMMANDS[name].target)[1]


def _result_record(name: str, kwargs: Dict[str, Any], result) -> dict:
    """What follows the head: the result's record, plus, for the two
    in-process sweeps, their derived ratios and the top-rung rerun."""
    if name not in _TOP_AXIS:
        return result.to_record()
    axis = _TOP_AXIS[name]
    top = max(kwargs[axis])
    again = _function(name)(**{**kwargs, axis: (top,)})
    record = {"points": [
        point_record(p) for pts in result.points.values() for p in pts
    ]}
    if name == "loadtest":
        record["throughput_speedup_at_max_rate"] = round(
            result.speedup_at(top), 2
        )
        record["p95_improvement_at_max_rate"] = round(
            result.p95_improvement_at(top), 2
        )
    else:
        record["tree_p95_growth"] = round(result.p95_growth("tree"), 3)
        record["star_p95_growth"] = round(result.p95_growth("nfs-star"), 3)
    record["deterministic"] = all(
        again.point(variant, top).fingerprint
        == result.point(variant, top).fingerprint
        for variant in again.points
    )
    return record


def _append(path: Path, record: dict) -> None:
    """Append one record; the file is replaced whole, never torn."""
    try:
        records = json.loads(path.read_text())
    except (OSError, ValueError):
        records = []
    records.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def run_bench(
    name: str, rung: str = "paper", out: Optional[Path] = None
) -> Tuple[Any, dict]:
    """Run one rung of one command; append its record to ``out``
    (default :func:`bench_path`); the result and the record."""
    kwargs = BENCHES[name][rung]
    start = time.gmtime()
    t0 = time.perf_counter()
    result = _function(name)(**kwargs)
    wall_s = time.perf_counter() - t0
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", start),
        "command": name,
        "rung": rung,
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "wall_s": round(wall_s, 2),
        **_result_record(name, kwargs, result),
    }
    _append(out or bench_path(name), record)
    return result, record


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Run one rung of a recorded bench and append its record."
    )
    parser.add_argument("name", choices=sorted(BENCHES))
    parser.add_argument(
        "--rung", choices=("small", "paper", "million"), default="paper"
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="record file (default benchmarks/results/BENCH_<name>.json)",
    )
    args = parser.parse_args(argv)
    if args.rung not in BENCHES[args.name]:
        parser.error(f"{args.name} has no {args.rung} rung")
    result, record = run_bench(args.name, args.rung, args.out)
    print(result.render())
    print(f"\nrecorded in {args.out or bench_path(args.name)} "
          f"(wall {record['wall_s']} s, deterministic "
          f"{record['deterministic']})")


if __name__ == "__main__":
    main()
