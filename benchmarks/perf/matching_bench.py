"""Matching-throughput benchmark: naive vs. indexed vs. memoized.

Measures golden-image selection throughput (bids/sec) against
warehouse size for the three matching paths:

* **naive** — brute-force :func:`~repro.core.matching.select_golden`
  over every image (the pre-index reference; still what the
  equivalence tests compare against);
* **indexed** — the warehouse's
  :class:`~repro.core.matchindex.MatchIndex` queried directly
  (bucketed hardware/os rejection + prefix-trie walk, no memo);
* **memoized** — the full :meth:`~repro.plant.warehouse.VMWarehouse.
  select` path with the per-request memo, the way plants bid.

The sweep above rotates eight request DAGs, so its memoized column is
all memo hits.  A second rung, **chain catalog, all-distinct
requests**, isolates the memo-miss regime: images and requests are cut
from a chain with several variants per step (the catalog is a real
trie, not one path) and every request DAG is used once, so each bid
pays the DAG's own caches and an index walk.  It records
``profiles_tested`` per query next to the three throughput columns.

Each invocation verifies all three paths select the same winner, then
appends one record to ``benchmarks/results/BENCH_matching.json``.

Run::

    PYTHONPATH=src python -m benchmarks.perf.matching_bench          # 10 → 1000
    PYTHONPATH=src python -m benchmarks.perf.matching_bench --small  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.matching import select_golden
from repro.core.spec import HardwareSpec
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.workloads.requests import MANDRAKE_OS

__all__ = [
    "MATCH_BENCH_PATH",
    "PAPER_SIZES",
    "SMALL_SIZES",
    "build_matching_workload",
    "measure_matching",
    "build_chain_catalog",
    "measure_chain_catalog",
    "run_matching_bench",
]

MATCH_BENCH_PATH = RESULTS / "BENCH_matching.json"

#: Warehouse sizes of the full sweep (ISSUE 2 acceptance: ≥5x @ 1000).
PAPER_SIZES: Tuple[int, ...] = (10, 100, 1000)
#: Scaled-down sweep for CI smoke runs.
SMALL_SIZES: Tuple[int, ...] = (10, 50, 200)

PAPER_SEED = 2004
#: Length of the master configuration chain the images prefix.
CHAIN_LEN = 12
#: Distinct request DAGs rotated through per measurement (so the
#: memoized path exercises the memo table, not a single entry).
N_REQUEST_DAGS = 8
#: Variants per chain step in the chain-catalog rung (distinct command
#: → distinct signature), as in the e2e benchmark's ``site_catalog``.
CHAIN_VARIANTS = 3


def _chain_actions(n: int = CHAIN_LEN) -> List[Action]:
    return [
        Action(f"step{i:02d}", command=f"configure --stage {i}")
        for i in range(n)
    ]


def build_matching_workload(
    n_images: int, seed: int = PAPER_SEED
) -> Tuple[VMWarehouse, List[ConfigDAG], HardwareSpec, str]:
    """A warehouse of ``n_images`` plus rotating request DAGs.

    Images are prefixes of a master configuration chain at varying
    depths (profiles repeat, as clone-and-publish sites produce), with
    ~25% "noise" images that differ in OS, memory or vm-type and are
    rejected by the index's bucket key alone.
    """
    rng = random.Random(seed)
    steps = _chain_actions()
    images: List[GoldenImage] = []
    for i in range(n_images):
        roll = rng.random()
        os_name, memory, vm_type = MANDRAKE_OS, 64, "vmware"
        if roll < 0.10:
            os_name = "windows-xp"
        elif roll < 0.18:
            memory = 512
        elif roll < 0.25:
            vm_type = "uml"
        depth = rng.randrange(0, CHAIN_LEN + 1)
        images.append(
            GoldenImage(
                image_id=f"img-{i:05d}",
                vm_type=vm_type,
                os=os_name,
                hardware=HardwareSpec(memory_mb=memory),
                performed=tuple(steps[:depth]),
                memory_state_mb=float(memory),
            )
        )
    warehouse = VMWarehouse(images)
    dags = []
    for k in range(N_REQUEST_DAGS):
        # Chains of the full master sequence plus a request-specific
        # tail action, so each request DAG has a distinct fingerprint.
        tail = Action(f"request-tail-{k}", command=f"finalize --req {k}")
        dags.append(ConfigDAG.from_sequence(steps + [tail]))
    return warehouse, dags, HardwareSpec(memory_mb=64), MANDRAKE_OS


def build_chain_catalog(
    n_images: int, n_requests: int, seed: int = PAPER_SEED
) -> Tuple[VMWarehouse, List[ConfigDAG], HardwareSpec, str]:
    """A trie-shaped catalog and ``n_requests`` all-distinct DAGs.

    Images and requests are random-depth prefixes of a
    :data:`CHAIN_LEN`-step chain with :data:`CHAIN_VARIANTS` variants
    per step, all in one bucket; each request ends in its own tail
    action, so no two share a fingerprint and none hits the memo.
    """
    rng = random.Random(f"chain-catalog/{seed}")

    def prefix() -> List[Action]:
        return [
            Action(
                f"step{k:02d}",
                command=(
                    f"configure --stage {k}"
                    f" --variant {rng.randrange(CHAIN_VARIANTS)}"
                ),
            )
            for k in range(rng.randint(1, CHAIN_LEN))
        ]

    warehouse = VMWarehouse(
        GoldenImage(
            image_id=f"img-{i:05d}",
            vm_type="vmware",
            os=MANDRAKE_OS,
            hardware=HardwareSpec(memory_mb=64),
            performed=tuple(prefix()),
            memory_state_mb=64.0,
        )
        for i in range(n_images)
    )
    dags = [
        ConfigDAG.from_sequence(
            prefix()
            + [Action(f"request-tail-{k}", command=f"finalize --req {k}")]
        )
        for k in range(n_requests)
    ]
    return warehouse, dags, HardwareSpec(memory_mb=64), MANDRAKE_OS


def _throughput(fn, dags: List[ConfigDAG], bids: int) -> float:
    t0 = time.perf_counter()
    for i in range(bids):
        fn(dags[i % len(dags)])
    wall = time.perf_counter() - t0
    return bids / wall if wall > 0 else float("inf")


def measure_matching(
    n_images: int,
    seed: int = PAPER_SEED,
    naive_bids: Optional[int] = None,
    fast_bids: Optional[int] = None,
) -> Dict[str, float]:
    """Bids/sec for all three paths over one warehouse size."""
    warehouse, dags, hardware, os_name = build_matching_workload(
        n_images, seed
    )
    if naive_bids is None:
        naive_bids = max(5, min(400, 20000 // n_images))
    if fast_bids is None:
        fast_bids = 2000

    # Same winner on every path (spot equivalence, belt-and-braces on
    # top of tests/test_matchindex.py).
    for dag in dags:
        brute, brute_result, _ = select_golden(
            warehouse.images("vmware"), dag, hardware, os_name, "vmware"
        )
        indexed, indexed_result = warehouse._index.select(
            dag, hardware, os_name, "vmware"
        )
        memoized, memo_result = warehouse.select(
            dag, hardware, os_name, "vmware"
        )
        brute_id = brute.image_id if brute else None
        assert (indexed.image_id if indexed else None) == brute_id
        assert (memoized.image_id if memoized else None) == brute_id
        if brute_result is not None:
            assert indexed_result.residual == brute_result.residual
            assert memo_result.residual == brute_result.residual

    naive = _throughput(
        lambda dag: select_golden(
            warehouse.images("vmware"), dag, hardware, os_name, "vmware"
        ),
        dags,
        naive_bids,
    )
    indexed = _throughput(
        lambda dag: warehouse._index.select(
            dag, hardware, os_name, "vmware"
        ),
        dags,
        fast_bids,
    )
    memoized = _throughput(
        lambda dag: warehouse.select(dag, hardware, os_name, "vmware"),
        dags,
        fast_bids,
    )
    return {
        "images": n_images,
        "naive_bids_per_sec": round(naive, 1),
        "indexed_bids_per_sec": round(indexed, 1),
        "memoized_bids_per_sec": round(memoized, 1),
        "indexed_speedup": round(indexed / naive, 2) if naive else None,
        "memoized_speedup": round(memoized / naive, 2) if naive else None,
    }


def measure_chain_catalog(
    n_images: int,
    seed: int = PAPER_SEED,
    naive_bids: Optional[int] = None,
    fast_bids: int = 2000,
) -> Dict[str, float]:
    """The memo-miss regime: every bid brings a DAG never seen before.

    Each path gets its own slice of the request list, so the indexed
    and memoized columns both pay a fresh DAG's structural caches (as
    a plant's first bid on a new request does) and the memoized column
    is all misses — it is the indexed column plus ``validate``,
    ``fingerprint`` and the memo bookkeeping.
    """
    if naive_bids is None:
        naive_bids = max(5, min(400, 20000 // n_images))
    warehouse, dags, hardware, os_name = build_chain_catalog(
        n_images, naive_bids + 2 * fast_bids, seed
    )
    naive_dags = dags[:naive_bids]
    indexed_dags = dags[naive_bids:naive_bids + fast_bids]
    memo_dags = dags[naive_bids + fast_bids:]

    # Same winner on every path (spot equivalence).
    for dag in naive_dags:
        brute, brute_result, _ = select_golden(
            warehouse.images("vmware"), dag, hardware, os_name, "vmware"
        )
        indexed, indexed_result = warehouse._index.select(
            dag, hardware, os_name, "vmware"
        )
        assert indexed is brute
        if brute_result is not None:
            assert indexed_result.satisfied == brute_result.satisfied
            assert indexed_result.residual == brute_result.residual

    naive = _throughput(
        lambda dag: select_golden(
            warehouse.images("vmware"), dag, hardware, os_name, "vmware"
        ),
        naive_dags,
        naive_bids,
    )
    before = warehouse.index_stats
    indexed = _throughput(
        lambda dag: warehouse._index.select(
            dag, hardware, os_name, "vmware"
        ),
        indexed_dags,
        fast_bids,
    )
    after = warehouse.index_stats
    memoized = _throughput(
        lambda dag: warehouse.select(dag, hardware, os_name, "vmware"),
        memo_dags,
        fast_bids,
    )
    assert warehouse.match_stats["memo_hits"] == 0
    return {
        "images": n_images,
        "naive_bids_per_sec": round(naive, 1),
        "indexed_bids_per_sec": round(indexed, 1),
        "memoized_bids_per_sec": round(memoized, 1),
        "indexed_speedup": round(indexed / naive, 2) if naive else None,
        "profiles_tested_per_query": round(
            (after["profiles_tested"] - before["profiles_tested"])
            / (after["queries"] - before["queries"]),
            2,
        ),
    }


def run_matching_bench(
    small: bool = False, out: Optional[Path] = None
) -> dict:
    """Sweep warehouse sizes; append the record to the trajectory."""
    sizes = SMALL_SIZES if small else PAPER_SIZES
    points = [measure_matching(n) for n in sizes]
    chain_catalog = [measure_chain_catalog(n) for n in sizes]
    record = {
        **host_fields(small),
        "points": points,
        "speedup_at_max_size": points[-1]["memoized_speedup"],
        "chain_catalog_distinct_requests": chain_catalog,
    }
    append_record(out or MATCH_BENCH_PATH, record)
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
    record = run_matching_bench(small=args.small, out=args.out)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
