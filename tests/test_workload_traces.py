"""Trace-driven workloads: determinism and megaload.

Pins the determinism contract of :mod:`repro.workloads.traces` and its
integration in the ``megaload`` shard scenario:

* the same ``(seed, spec)`` regenerates the identical stream;
* per-tenant RNG streams are independent — adding a tenant never
  perturbs another tenant's arrivals;
* the merged stream is lazy and totally ordered by
  ``(time, tenant, seq)``;
* merged per-site summary sketches are bit-identical across shard
  counts, and bounded tracers surface their dropped count.
"""

from __future__ import annotations

import itertools

import pytest

from repro.sim.rng import RngHub
from repro.sim.shard import ShardedTestbed
from repro.sim.shard.scenarios import site_seed
from repro.workloads.traces import (
    Arrival,
    TenantSpec,
    TraceSpec,
    canonical_line,
    merge_arrivals,
)

SPEC = TraceSpec(
    tenants=(
        TenantSpec(
            name="interactive",
            process="diurnal",
            count=40,
            deadline_s=120.0,
            params={
                "rate_per_s": 0.5,
                "amplitude": 0.6,
                "period_s": 600.0,
            },
        ),
        TenantSpec(
            name="batch",
            process="campaign",
            count=30,
            params={"gap_s": 60.0, "size": 8.0, "spacing_s": 1.0},
        ),
        TenantSpec(
            name="crowd",
            process="flash",
            count=10,
            params={"at_s": 45.0, "duration_s": 15.0},
        ),
    )
)


class TestDeterministicGeneration:
    def test_same_seed_same_stream_and_signature(self):
        first = list(SPEC.arrivals(RngHub(77)))
        assert len(first) == sum(t.count for t in SPEC.tenants)
        assert list(SPEC.arrivals(RngHub(77))) == first
        # A different seed gives a different trace.
        assert list(SPEC.arrivals(RngHub(78))) != first

    def test_tenant_streams_are_independent(self):
        solo = [
            a
            for a in SPEC.arrivals(RngHub(5))
            if a.tenant == "interactive"
        ]
        bigger = TraceSpec(
            tenants=SPEC.tenants
            + (
                TenantSpec(
                    name="extra",
                    process="flash",
                    count=25,
                    params={"at_s": 10.0, "duration_s": 5.0},
                ),
            )
        )
        with_extra = [
            a
            for a in bigger.arrivals(RngHub(5))
            if a.tenant == "interactive"
        ]
        assert solo == with_extra

    def test_merged_stream_is_totally_ordered(self):
        keys = [a.sort_key() for a in SPEC.arrivals(RngHub(9))]
        assert keys == sorted(keys)
        assert len(keys) == sum(t.count for t in SPEC.tenants)
        assert len(set(keys)) == len(keys)

    def test_merge_is_lazy(self):
        # A tenant with an absurd count would hang if materialized.
        huge = TraceSpec(
            tenants=(
                TenantSpec(
                    name="firehose",
                    process="diurnal",
                    count=10**9,
                    params={"rate_per_s": 100.0},
                ),
            )
        )
        first = list(
            itertools.islice(huge.arrivals(RngHub(1)), 100)
        )
        assert len(first) == 100
        assert first[0].seq == 0

    def test_campaign_stream_non_decreasing(self):
        spec = TenantSpec(
            name="b",
            process="campaign",
            count=100,
            params={"gap_s": 10.0, "size": 16.0, "spacing_s": 2.0},
        )
        times = [a.time for a in spec.arrivals(RngHub(3))]
        assert times == sorted(times)
        assert len(times) == 100

    def test_spec_round_trip_and_validation(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            TenantSpec(name="x", process="lorenz", count=1)
        with pytest.raises(ValueError, match="duplicate tenant"):
            TraceSpec(tenants=(SPEC.tenants[0], SPEC.tenants[0]))
        bad = TenantSpec(
            name="x",
            process="diurnal",
            count=1,
            params={"warp": 9.0},
        )
        with pytest.raises(ValueError, match="unknown diurnal params"):
            next(bad.arrivals(RngHub(1)))

    def test_canonical_line_sorts_keys_and_omits_a_missing_deadline(self):
        best_effort = Arrival(
            time=1.5, tenant="t", kind="poisson", seq=3, memory_mb=64
        )
        assert canonical_line(best_effort) == (
            '{"kind":"poisson","memory_mb":64,"seq":3,"tenant":"t",'
            '"time":1.5}'
        )
        assert canonical_line(
            Arrival(
                time=1.5, tenant="t", kind="poisson", seq=3, memory_mb=64,
                deadline_s=120.0,
            )
        ) == (
            '{"deadline_s":120.0,"kind":"poisson","memory_mb":64,"seq":3,'
            '"tenant":"t","time":1.5}'
        )

    def test_merge_arrivals_orders_ties_by_tenant(self):
        a = Arrival(
            time=5.0, tenant="a", kind="flash", seq=0, memory_mb=32
        )
        b = Arrival(
            time=5.0, tenant="b", kind="flash", seq=0, memory_mb=32
        )
        assert list(merge_arrivals([iter([b]), iter([a])])) == [a, b]


MEGA_PRM = {"requests": 30}


class TestMegaLoadScenario:
    def _run(self, shards, prm=MEGA_PRM, collect="fingerprint", **kw):
        bed = ShardedTestbed(
            seed=2004, sites=2, shards=shards, scenario="megaload"
        )
        return bed.run(params=dict(prm), collect=collect, **kw)

    def test_fingerprint_and_sketch_identical_across_shards(self):
        from repro.workloads.megaload import merge_site_summaries

        runs = {s: self._run(s) for s in (1, 2)}
        fps = {s: r.fingerprint() for s, r in runs.items()}
        assert fps[1] == fps[2]
        sigs = {
            s: merge_site_summaries(
                r.site_results,
                group_of=lambda site, r=r: r.partition[site],
            ).state_signature()
            for s, r in runs.items()
        }
        assert sigs[1] == sigs[2]

    def test_trace_dir_is_refused_when_the_plan_is_built(self):
        # A plan naming a trace directory fails on construction, before
        # any worker is forked; so does a run given one.
        with pytest.raises(ValueError, match="trace_dir"):
            ShardedTestbed(
                seed=2004, sites=2, shards=2, scenario="megaload",
                params={**MEGA_PRM, "trace_dir": "traces"},
            )
        bed = ShardedTestbed(seed=2004, sites=2, shards=2,
                             scenario="megaload")
        with pytest.raises(ValueError, match="trace_dir"):
            bed.run(params={**MEGA_PRM, "trace_dir": "traces"})

    def test_site_streams_differ_by_site_seed(self):
        run = self._run(1)
        sigs = {
            r["site"]: r["stats"]["trace_signature"]
            for r in run.site_results
        }
        assert sigs[0] != sigs[1]
        assert site_seed(2004, 0) != site_seed(2004, 1)

    def test_bounded_tracer_surfaces_drops(self):
        full = self._run(1)
        assert full.trace_dropped == 0
        bounded = self._run(1, trace_capacity=10)
        assert bounded.trace_dropped > 0
        # Same capacity on both sides: fingerprints still agree.
        bounded2 = self._run(2, trace_capacity=10)
        assert bounded.fingerprint() == bounded2.fingerprint()

    def test_collect_counters_consistent(self):
        run = self._run(1, collect=None)
        stats = run.combined_stats()
        assert stats["arrivals"] == 2 * MEGA_PRM["requests"]
        assert stats["ok"] + stats["failed"] == stats["arrivals"]
        # Non-numeric fields ride per-site, not in the combined sum.
        assert "trace_signature" not in stats
        assert "summary_state" not in stats


class TestMegaLoadExperiment:
    def test_run_megaload_smoke(self):
        from repro.experiments.megaload import run_megaload

        result = run_megaload(
            seed=2004,
            sites=2,
            shard_counts=(1, 2),
            requests_per_site=25,
            determinism_requests=15,
            trace_capacity=5_000,
        )
        assert result.recheck.ok
        assert set(result.recheck.signatures) == {1, 2}
        assert result.sketch_equal
        assert len(result.points) == 2
        for p in result.points:
            assert p.ok > 0
            assert p.peak_rss_mb > 0
            assert p.p50_latency_s <= p.p95_latency_s
        assert result.tenant_rows
        record = result.to_record()
        assert record["deterministic"] is True
        one, two = record["points"]
        assert one["sync_cpu_ratio"] == one["wall_speedup"] == 1.0
        assert two["sync_cpu_ratio"] > 0 and two["wall_speedup"] > 0
        assert two["projected"] == (2 > two["usable_cores"])
        assert [w["records"] > 0 for w in two["sync"]] == [True, True]
        text = result.render()
        assert "bit-identical" in text
        assert "identical at shard counts" in text
        assert "failed" in text and "2 shards: simulated" in text
        assert "this run measures the overload path" not in text

    def test_a_run_that_mostly_fails_says_so(self):
        from repro.experiments.shardcost import overload_banner

        assert overload_banner([(400, 373), (16_000, 6_000)]) == [
            "10,000 of 16,000 requests failed (62 %): this run measures "
            "the overload path, not throughput"
        ]
        assert overload_banner([(400, 200)]) == []
