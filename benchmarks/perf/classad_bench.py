"""Classad query-engine benchmark: compiled vs interpreted evaluation.

Measures the three layers ISSUE 4 optimizes, appending one record to
``benchmarks/results/BENCH_classad.json``:

* **expression evaluation** — evals/sec of a representative bid-path
  expression mix for (a) the pre-PR behaviour: re-parse the text and
  tree-walk it every call, (b) the interned AST interpreted, and
  (c) the interned compiled closures (the default engine);
* **end-to-end bid path** — wall-clock of a creation workload with
  matchmaking ``requirements`` on the paper testbed, compiled vs
  interpreter (:func:`interpreted_engine`), with a determinism check that
  both engines produce the identical creation log;
* **registry discovery** — queries/sec against a populated service
  registry with and without the attribute-index pre-filter, with an
  equivalence check.

Every section verifies engine agreement on its inputs before timing.

Run::

    PYTHONPATH=src python -m benchmarks.perf.classad_bench          # full
    PYTHONPATH=src python -m benchmarks.perf.classad_bench --small  # CI smoke
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import random
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

from benchmarks.perf.trajectory import RESULTS, append_record, host_fields
from repro.core.classad import (
    ClassAd,
    Expression,
    Undefined,
    _Parser,
    _Scope,
    _tokenize,
    clear_parse_cache,
    parse_cache_info,
)
from repro.shop.registry import ServiceRegistry
from repro.sim.cluster import build_testbed
from repro.workloads.requests import request_stream

__all__ = [
    "CLASSAD_BENCH_PATH",
    "measure_eval_throughput",
    "measure_bid_path",
    "measure_discover",
    "run_classad_bench",
]

CLASSAD_BENCH_PATH = RESULTS / "BENCH_classad.json"

PAPER_SEED = 2004

#: The expression mix: shapes the shop/broker path actually evaluates.
EVAL_EXPRESSIONS = (
    'other.kind == "vmplant" && other.networks_free >= 1'
    " && other.active_vms < 8",
    "other.host_memory_mb - other.committed_mb >= 256",
    'member("vmware", other.vm_types) && other.max_vms != 0',
    "other.active_vms < 4 ? true : other.networks_free > 2",
    'other.kind == "vmplant" && other.name != "p-3"'
    " && other.committed_mb / other.host_memory_mb < 1",
)

#: Requirements rotated through the bid-path workload.
BID_REQUIREMENTS = (
    'other.kind == "vmplant" && other.networks_free >= 0',
    "other.active_vms < 64 && other.host_memory_mb >= 256",
    'member("vmware", other.vm_types)',
    None,  # unconstrained requests stay on the fast path too
)


def _plant_like_ad(i: int = 0) -> ClassAd:
    return ClassAd(
        {
            "name": f"p-{i}",
            "kind": "vmplant",
            "vm_types": ["vmware"],
            "host_memory_mb": 1536,
            "committed_mb": 64 * (i % 8),
            "active_vms": i % 8,
            "networks_free": 4 - (i % 4),
            "max_vms": -1,
        }
    )


def _request_like_ad() -> ClassAd:
    return ClassAd(
        {
            "isa": "x86",
            "memory_mb": 64,
            "disk_gb": 4.0,
            "cpus": 1,
            "client": "bench",
            "domain": "local",
            "os": "linux-mandrake-8.1",
        }
    )


def _reparse_interpret(text: str, ad: ClassAd, other: ClassAd):
    """The pre-PR ``evaluate()`` cost model: parse + tree-walk."""
    parser = _Parser(_tokenize(text))
    ast = parser.parse_expr()
    return ast.eval(_Scope(ad, other))


def measure_eval_throughput(
    reparse_evals: int = 4000, fast_evals: int = 200_000
) -> Dict[str, float]:
    """Evals/sec of the expression mix for all three engine paths."""
    ads = [_plant_like_ad(i) for i in range(8)]
    request_ad = _request_like_ad()
    exprs = [Expression(text) for text in EVAL_EXPRESSIONS]

    # Engine agreement on the full cross-product before timing.
    for expr in exprs:
        for other in ads:
            compiled = expr.evaluate_compiled(request_ad, other)
            interp = expr.evaluate_interpreted(request_ad, other)
            assert type(compiled) is type(interp) and compiled == interp
            assert (
                _reparse_interpret(expr.text, request_ad, other) == interp
            )

    n_combos = len(exprs)

    t0 = time.perf_counter()
    for i in range(reparse_evals):
        expr = exprs[i % n_combos]
        _reparse_interpret(expr.text, request_ad, ads[i % len(ads)])
    reparse_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    for i in range(fast_evals):
        exprs[i % n_combos].evaluate_interpreted(
            request_ad, ads[i % len(ads)]
        )
    interp_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    for i in range(fast_evals):
        exprs[i % n_combos].evaluate_compiled(
            request_ad, ads[i % len(ads)]
        )
    compiled_wall = time.perf_counter() - t0

    reparse = reparse_evals / reparse_wall if reparse_wall else float("inf")
    interp = fast_evals / interp_wall if interp_wall else float("inf")
    compiled = fast_evals / compiled_wall if compiled_wall else float("inf")
    return {
        "reparse_interp_per_sec": round(reparse, 1),
        "interned_interp_per_sec": round(interp, 1),
        "compiled_per_sec": round(compiled, 1),
        "compiled_vs_reparse": round(compiled / reparse, 1),
        "compiled_vs_interp": round(compiled / interp, 2),
    }


def _bid_workload(requests: int, seed: int, memory_mb: int = 64):
    """One creation run with matchmaking requirements; returns the log."""
    bed = build_testbed(seed=seed)
    stream = []
    for i, request in enumerate(request_stream(memory_mb, requests)):
        requirements = BID_REQUIREMENTS[i % len(BID_REQUIREMENTS)]
        if requirements is not None:
            request = dataclasses.replace(
                request, requirements=requirements
            )
        stream.append(request)

    def client():
        for request in stream:
            yield from bed.shop.create(request)

    t0 = time.perf_counter()
    bed.run(client())
    wall = time.perf_counter() - t0
    return wall, bed.shop.creation_log, bed.env.now


def _interpreted_matches(self: ClassAd, other: ClassAd) -> bool:
    raw = self.lookup("requirements")
    if isinstance(raw, Expression):
        return raw.evaluate_interpreted(self, other) is True
    return isinstance(raw, Undefined) or raw is True


@contextlib.contextmanager
def interpreted_engine() -> Iterator[None]:
    """Route ``Expression.evaluate`` and ``ClassAd.matches`` through
    the reference tree walk for the duration of the block."""
    compiled = Expression.evaluate, ClassAd.matches
    Expression.evaluate = Expression.evaluate_interpreted
    ClassAd.matches = _interpreted_matches
    try:
        yield
    finally:
        Expression.evaluate, ClassAd.matches = compiled


def measure_bid_path(
    requests: int = 48, seed: int = PAPER_SEED, repeats: int = 3
) -> Dict[str, object]:
    """Wall-clock of the requirements-bearing creation workload,
    compiled engine vs interpreter, plus a determinism check.

    The simulation is deterministic, so each engine's wall-clock is
    the best of ``repeats`` identical runs — the DES dominates this
    workload and single runs are too jittery on shared hardware.
    """
    interp_wall = compiled_wall = float("inf")
    interp_log = interp_now = None
    compiled_log = compiled_now = None
    for _ in range(repeats):
        with interpreted_engine():
            wall, interp_log, interp_now = _bid_workload(requests, seed)
        interp_wall = min(interp_wall, wall)
        wall, compiled_log, compiled_now = _bid_workload(requests, seed)
        compiled_wall = min(compiled_wall, wall)
    return {
        "requests": requests,
        "interpreter_s": round(interp_wall, 4),
        "compiled_s": round(compiled_wall, 4),
        "speedup": round(interp_wall / compiled_wall, 2)
        if compiled_wall
        else None,
        "equivalent": (
            compiled_log == interp_log and compiled_now == interp_now
        ),
    }


def measure_discover(
    entries: int = 400, queries: int = 300, seed: int = PAPER_SEED
) -> Dict[str, object]:
    """Registry discovery throughput with/without the index prefilter."""
    rng = random.Random(seed)
    registry = ServiceRegistry()
    for i in range(entries):
        name = f"plant-{i:04d}"
        registry.publish(
            name,
            "vmplant",
            object(),
            description=ClassAd(
                {
                    "name": name,
                    "kind": "vmplant",
                    "os": rng.choice(["linux", "bsd", "solaris"]),
                    "vm_type": rng.choice(["vmware", "uml"]),
                    "active_vms": rng.randrange(0, 12),
                    "networks_free": rng.randrange(0, 5),
                }
            ),
        )
    query_texts = [
        'other.os == "linux" && other.vm_type == "uml"',
        'other.vm_type == "vmware" && other.networks_free > 2',
        'other.os == "bsd" && other.active_vms < 3',
        'other.name == "plant-0007"',
    ]
    compiled = [Expression(text) for text in query_texts]
    for expr in compiled:  # equivalence before timing
        fast = registry.discover("vmplant", expr)
        slow = registry.discover("vmplant", expr, prefilter=False)
        assert [e.name for e in fast] == [e.name for e in slow]

    def sweep(prefilter: bool) -> float:
        t0 = time.perf_counter()
        for i in range(queries):
            registry.discover(
                "vmplant",
                compiled[i % len(compiled)],
                prefilter=prefilter,
            )
        wall = time.perf_counter() - t0
        return queries / wall if wall else float("inf")

    full = sweep(False)
    indexed = sweep(True)
    return {
        "entries": entries,
        "queries": queries,
        "full_scan_per_sec": round(full, 1),
        "prefilter_per_sec": round(indexed, 1),
        "speedup": round(indexed / full, 2) if full else None,
        "equivalent": True,
    }


def run_classad_bench(
    small: bool = False, out: Optional[Path] = None
) -> dict:
    """Run all three sections; append the record to the trajectory."""
    clear_parse_cache()
    record = {
        **host_fields(small),
        "eval": measure_eval_throughput(
            reparse_evals=1500 if small else 4000,
            fast_evals=60_000 if small else 200_000,
        ),
        "bid_path": measure_bid_path(requests=16 if small else 48),
        "discover": measure_discover(
            entries=150 if small else 400,
            queries=120 if small else 300,
        ),
        "parse_cache": parse_cache_info(),
    }
    append_record(out or CLASSAD_BENCH_PATH, record)
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
    record = run_classad_bench(small=args.small, out=args.out)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
