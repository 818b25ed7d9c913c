"""Perf smoke: same-run guardrails and the recorded provisioning sweep.

Host-clock free where it can be: the hot simulation classes keep
``__slots__``, the trace ring stays bounded, and the provisioning
stack's advantage over the baseline is a ratio measured in one run.
"""

from __future__ import annotations

import pytest

from benchmarks.perf.provision_bench import PROVISION_BENCH_PATH
from benchmarks.perf.trajectory import load_trajectory


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
