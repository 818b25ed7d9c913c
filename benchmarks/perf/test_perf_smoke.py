"""Perf smoke: small workload, regression + speedup guardrails.

Designed to be robust on shared CI hardware: the wall-clock ceiling
is generous (2x the best recorded small-workload run, with an
absolute floor), the parallel-speedup assertion only applies on
multi-core hosts, and the cache assertion is relative (warm load must
beat a fresh simulation), not an absolute time.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.e2e.workloads import usable_cores
from benchmarks.perf.harness import (
    BENCH_PATH,
    SMALL_RUNS,
    measure_cache,
    measure_kernel,
    measure_suite,
)
from benchmarks.perf.classad_bench import (
    CLASSAD_BENCH_PATH,
    measure_eval_throughput,
)
from benchmarks.perf.matching_bench import (
    MATCH_BENCH_PATH,
    measure_matching,
)
from benchmarks.perf.provision_bench import PROVISION_BENCH_PATH
from benchmarks.perf.trajectory import load_trajectory

#: Absolute wall-clock floor (s) below which we never flag a
#: regression — keeps the 2x rule from flaking on noise-sized runs.
_FLOOR_S = 5.0


def _best_recorded(metric: str, workload: str) -> float:
    values = [
        rec[metric]
        for rec in load_trajectory(BENCH_PATH)
        if rec.get("workload") == workload and rec.get(metric)
    ]
    return min(values) if values else 0.0


def test_small_suite_within_regression_budget():
    seq_s, par_s = measure_suite(SMALL_RUNS, seed=7)
    best = _best_recorded("suite_sequential_s", "small")
    budget = max(2.0 * best, _FLOOR_S)
    assert seq_s < budget, (
        f"sequential small suite took {seq_s:.2f}s, "
        f">2x the recorded best ({best:.2f}s)"
    )
    if (os.cpu_count() or 1) >= 2:
        # Fan-out must not be slower than sequential by more than the
        # pool spin-up overhead on a genuinely parallel host.
        assert par_s < max(2.0 * seq_s, _FLOOR_S)


def test_cache_warm_load_beats_simulation(tmp_path, monkeypatch):
    # ``benchmarks/e2e/run.py`` sets this process-wide when it ran
    # earlier in the session, and an enabled ResultCache honours it.
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    cold_s, warm_s = measure_cache(SMALL_RUNS, seed=7, root=tmp_path)
    assert warm_s < cold_s, (
        f"cache hit ({warm_s:.4f}s) not faster than fresh "
        f"simulation ({cold_s:.4f}s)"
    )
    # The warm path is a pickle load; even small workloads beat 3x.
    assert cold_s / warm_s > 3.0


def test_kernel_throughput_floor():
    """The floor is on creates/sec, not events/sec: events/sec falls
    when cheap events are removed from a create while the kernel got
    faster.  Records from before ``kernel_creates_per_sec`` existed
    are skipped, not failed."""
    count, n_plants = 16, 8
    events, _, cps = measure_kernel(seed=7, count=count)
    # Every create ran its bid round: one timer per plant + the round.
    assert events >= count * (n_plants + 1)
    best = _best_recorded("kernel_creates_per_sec", "small")
    if best:
        assert cps > best / 2.0, (
            f"kernel throughput {cps:.0f} creates/s is <half the "
            f"recorded best ({best:.0f} creates/s)"
        )


def test_matching_index_beats_naive_at_smoke_size():
    """Same-run relative guardrail for the matching fast path.

    At 200 images the indexed path clears naive by a wide margin
    locally (>10x); the threshold is conservative for noisy shared
    runners.  The memoized path answers repeat bids from the memo, so
    it must beat even the index.
    """
    point = measure_matching(200)
    assert point["indexed_speedup"] >= 3.0, (
        f"indexed matching only {point['indexed_speedup']}x naive "
        f"at 200 images"
    )
    assert (
        point["memoized_bids_per_sec"] >= point["indexed_bids_per_sec"]
    ), "memoized select slower than the bare index"


def test_matching_throughput_regression_vs_trajectory():
    """Indexed bids/sec must stay within 2x of the recorded best."""
    best = 0.0
    for rec in load_trajectory(MATCH_BENCH_PATH):
        for point in rec.get("points", []):
            if point.get("images") == 200 and point.get(
                "indexed_bids_per_sec"
            ):
                best = max(best, point["indexed_bids_per_sec"])
    if not best:
        pytest.skip("no recorded small-workload matching trajectory")
    point = measure_matching(200)
    assert point["indexed_bids_per_sec"] > best / 2.0, (
        f"indexed matching {point['indexed_bids_per_sec']:.0f} bids/s "
        f"is <half the recorded best ({best:.0f} bids/s)"
    )


def test_classad_compiled_beats_reparse_interpreter():
    """Same-run relative guardrail for the compiled query engine.

    The acceptance record (paper workload) shows >10x; the smoke
    threshold is conservative for noisy shared runners.  The compiled
    closures must also beat the tree-walking interpreter on the very
    AST they were compiled from.
    """
    point = measure_eval_throughput(reparse_evals=800, fast_evals=30_000)
    assert point["compiled_vs_reparse"] >= 5.0, (
        f"compiled eval only {point['compiled_vs_reparse']}x the "
        f"reparse-per-call interpreter"
    )
    assert point["compiled_vs_interp"] >= 1.2, (
        f"compiled eval only {point['compiled_vs_interp']}x the "
        f"interned interpreter"
    )


def test_classad_regression_vs_trajectory():
    """Compiled evals/sec must stay within 2x of the recorded best,
    and every recorded run must have passed its equivalence checks."""
    records = load_trajectory(CLASSAD_BENCH_PATH)
    if not records:
        pytest.skip("no recorded classad trajectory")
    for rec in records:
        assert rec["bid_path"]["equivalent"] is True
        assert rec["discover"]["equivalent"] is True
    best = max(rec["eval"]["compiled_per_sec"] for rec in records)
    point = measure_eval_throughput(reparse_evals=800, fast_evals=30_000)
    assert point["compiled_per_sec"] > best / 2.0, (
        f"compiled eval {point['compiled_per_sec']:.0f}/s is <half "
        f"the recorded best ({best:.0f}/s)"
    )


def test_classad_classes_have_no_instance_dict():
    """The matchmaking hot path must stay ``__slots__``-only.

    Every ``Expression``/``ClassAd``/AST-node instance is churned
    through on each bid; a ``__dict__`` creeping back re-enables a
    per-instance dict alloc on the hottest path in the shop.
    """
    from repro.core import classad as ca

    for cls in (
        ca.ClassAd,
        ca.Expression,
        ca._Scope,
        ca._Parser,
        ca._Literal,
        ca._Ref,
        ca._ListNode,
        ca._Unary,
        ca._Binary,
        ca._Call,
        ca._Ternary,
    ):
        assert hasattr(cls, "__slots__"), f"{cls.__name__} lost __slots__"
        instance = object.__new__(cls)
        assert not hasattr(instance, "__dict__"), (
            f"{cls.__name__} instances carry a __dict__"
        )


def test_hot_sim_classes_have_no_instance_dict():
    """The DES hot path must stay ``__slots__``-only.

    A ``__dict__`` creeping back onto a per-event or per-clone object
    silently costs ~100 bytes and a dict alloc per instance; guard
    the classes the kernel and lines churn through.
    """
    from repro.sim.host import HostStateCache
    from repro.sim.hypervisor import CloneRecord, SimBackend
    from repro.sim.network import _Flow
    from repro.sim.storage import TransferCoalescer, _InflightTransfer
    from repro.sim.trace import TraceEvent

    for cls in (
        _Flow,
        CloneRecord,
        SimBackend,
        TraceEvent,
        HostStateCache,
        TransferCoalescer,
        _InflightTransfer,
    ):
        assert hasattr(cls, "__slots__"), f"{cls.__name__} lost __slots__"
        # A __dict__ creeping into the MRO silently re-enables
        # per-instance dict allocation; instances must not have one.
        instance = object.__new__(cls)
        assert not hasattr(instance, "__dict__"), (
            f"{cls.__name__} instances carry a __dict__"
        )


def test_trace_ring_buffer_allocation_bound():
    """A capacity-bounded tracer must not grow past its ring."""
    from repro.sim.trace import Tracer

    tracer = Tracer(capacity=64)
    for i in range(1000):
        tracer.record(float(i), "cat", "msg")
    assert len(tracer) == 64
    assert tracer.dropped == 1000 - 64
    assert tracer.events[0].time == 1000 - 64


def test_provisioning_stack_beats_baseline_at_smoke_scale():
    """Same-run relative guardrail for the provisioning fast path."""
    from benchmarks.perf.provision_bench import SMALL_PARAMS
    from repro.experiments.loadtest import run_loadtest

    result = run_loadtest(seed=2004, **SMALL_PARAMS)
    top = max(SMALL_PARAMS["rates"])
    assert result.speedup_at(top) >= 1.3, (
        f"full provisioning stack only "
        f"{result.speedup_at(top):.2f}x baseline creates/sec"
    )
    assert result.p95_improvement_at(top) >= 1.5, (
        f"full provisioning stack p95 only "
        f"{result.p95_improvement_at(top):.2f}x better"
    )


def test_provisioning_regression_vs_trajectory():
    """Recorded paper-scale sweep must keep meeting the acceptance bar."""
    records = [
        rec
        for rec in load_trajectory(PROVISION_BENCH_PATH)
        if rec.get("workload") == "paper"
    ]
    if not records:
        pytest.skip("no recorded paper-workload provisioning trajectory")
    latest = records[-1]
    assert latest["throughput_speedup_at_max_rate"] >= 3.0
    assert latest["p95_improvement_at_max_rate"] >= 2.0
    assert latest["determinism_ok"] is True


@pytest.mark.skipif(
    usable_cores() < 4,  # affinity-aware; ``os.cpu_count`` is not
    reason=(
        f"parallel speedup needs >= 4 usable cores, have {usable_cores()}:"
        " on a 2-vCPU guest the 0.19 s paper suite measured 0.84x"
        " (0.19 s -> 0.22 s), pool start-up outweighing one extra core"
    ),
)
def test_parallel_speedup_on_multicore():
    from repro.experiments.runner import PAPER_RUNS

    seq_s, par_s = measure_suite(PAPER_RUNS, seed=2004)
    assert seq_s / par_s >= 1.5, (
        f"parallel suite speedup only {seq_s / par_s:.2f}x "
        f"({seq_s:.2f}s -> {par_s:.2f}s)"
    )
