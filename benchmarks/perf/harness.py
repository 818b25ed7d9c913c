"""Performance micro-harness: suite wall-clock + DES events/sec.

Times the three things the performance layer optimizes and records a
trajectory so regressions are visible across commits:

* **sequential vs. parallel** wall-clock of the paper creation suite
  (fan-out only helps on multi-core hosts; both are recorded);
* **cache cold vs. warm** wall-clock of the same suite through the
  on-disk result cache;
* **kernel throughput** — creates/sec and events/sec of the DES
  kernel under the fig4-style creation workload (event count taken
  from the kernel's own monotonically increasing event id).  Creates
  are the unit that compares across commits: a change that removes
  cheap events per create lowers events/sec while the run got faster.

Each invocation appends one record to
``benchmarks/results/BENCH_parallel_runner.json``, then runs the
matching-throughput sweep (``benchmarks.perf.matching_bench``) and
the provisioning loadtest (``benchmarks.perf.provision_bench``),
which append their own records to ``BENCH_matching.json`` and
``BENCH_provisioning.json``.

Run::

    PYTHONPATH=src python -m benchmarks.perf.harness          # paper workload
    PYTHONPATH=src python -m benchmarks.perf.harness --small  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from benchmarks.perf.matching_bench import run_matching_bench
from benchmarks.perf.provision_bench import run_provision_bench
from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.experiments.cache import ResultCache
from repro.experiments.runner import PAPER_RUNS, run_creation_suite
from repro.sim.cluster import build_testbed
from repro.workloads.requests import request_stream

__all__ = [
    "SMALL_RUNS",
    "measure_suite",
    "measure_cache",
    "measure_kernel",
    "run_harness",
    "BENCH_PATH",
]

BENCH_PATH = RESULTS / "BENCH_parallel_runner.json"

#: Scaled-down plan for smoke runs: same shape, ~10x less work.
SMALL_RUNS: Dict[int, tuple] = {
    32: (12, 0.05),
    64: (12, 0.02),
    256: (6, 0.0),
}

PAPER_SEED = 2004


def measure_suite(
    runs: Dict[int, tuple], seed: int = PAPER_SEED
) -> Tuple[float, float]:
    """(sequential_s, parallel_s) wall-clock for the creation suite."""
    t0 = time.perf_counter()
    run_creation_suite(seed=seed, runs=runs)
    seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_creation_suite(seed=seed, runs=runs, parallel=True)
    par = time.perf_counter() - t0
    return seq, par


def measure_cache(
    runs: Dict[int, tuple],
    seed: int = PAPER_SEED,
    root: Optional[Path] = None,
) -> Tuple[float, float]:
    """(cold_s, warm_s) wall-clock through a fresh result cache."""
    if root is not None:
        cache = ResultCache(root=root, enabled=True)
        t0 = time.perf_counter()
        run_creation_suite(seed=seed, runs=runs, cache=cache)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_creation_suite(seed=seed, runs=runs, cache=cache)
        warm = time.perf_counter() - t0
        return cold, warm
    with tempfile.TemporaryDirectory() as tmp:
        return measure_cache(runs, seed=seed, root=Path(tmp))


def measure_kernel(
    seed: int = PAPER_SEED, count: int = 64, memory_mb: int = 64
) -> Tuple[int, float, float]:
    """(events, events_per_sec, creates_per_sec) for a fig4-style
    stream of ``count`` sequential creates."""
    bed = build_testbed(seed=seed)

    def client():
        for request in request_stream(memory_mb, count):
            yield from bed.shop.create(request)

    t0 = time.perf_counter()
    bed.run(client())
    wall = time.perf_counter() - t0
    events = bed.env._eid
    if wall <= 0:
        return events, float("inf"), float("inf")
    return events, events / wall, count / wall


def run_harness(
    small: bool = False,
    out: Optional[Path] = None,
    kernel_count: Optional[int] = None,
    matching: bool = True,
    provisioning: bool = True,
) -> dict:
    """Run all measurements; append the record to the trajectory file."""
    runs = SMALL_RUNS if small else PAPER_RUNS
    seq_s, par_s = measure_suite(runs)
    cold_s, warm_s = measure_cache(runs)
    if kernel_count is None:
        kernel_count = 16 if small else 64
    events, eps, cps = measure_kernel(count=kernel_count)
    record = {
        **host_fields(small),
        "suite_sequential_s": round(seq_s, 4),
        "suite_parallel_s": round(par_s, 4),
        "parallel_speedup": round(seq_s / par_s, 2) if par_s else None,
        "cache_cold_s": round(cold_s, 4),
        "cache_warm_s": round(warm_s, 5),
        "cache_speedup": round(cold_s / warm_s, 1) if warm_s else None,
        "kernel_events": events,
        "kernel_events_per_sec": round(eps, 1),
        "kernel_creates_per_sec": round(cps, 1),
    }
    append_record(out or BENCH_PATH, record)
    if matching:
        # Separate trajectory file: the matching sweep has its own
        # regression check in CI (see test_perf_smoke.py).
        record["matching"] = run_matching_bench(small=small)
    if provisioning:
        record["provisioning"] = run_provision_bench(small=small)
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small",
        action="store_true",
        help="scaled-down workload (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="trajectory file path"
    )
    args = parser.parse_args()
    record = run_harness(small=args.small, out=args.out)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
