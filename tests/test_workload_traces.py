"""Trace-driven workloads: determinism, replay, and megaload.

Pins the replay contract of :mod:`repro.workloads.traces` and its
integration in the ``megaload`` shard scenario:

* the same ``(seed, spec)`` regenerates byte-identical JSONL and the
  identical streaming signature;
* per-tenant RNG streams are independent — adding a tenant never
  perturbs another tenant's arrivals;
* the merged stream is lazy and totally ordered by
  ``(time, tenant, seq)``;
* a megaload run replayed from recorded JSONL consumes bit-identical
  streams (per-site consumed-trace signatures match the recorded
  ones) and produces the same merged-trace fingerprint at 1 and 2
  shards;
* merged per-site summary sketches are bit-identical across shard
  counts, and bounded tracers surface their dropped count.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.sim.rng import RngHub
from repro.sim.shard import ShardedTestbed
from repro.sim.shard.scenarios import site_seed
from repro.workloads.traces import (
    Arrival,
    TenantSpec,
    TraceSpec,
    merge_arrivals,
    read_jsonl,
    trace_signature,
    write_jsonl,
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
    def test_same_seed_same_stream_and_signature(self, tmp_path):
        paths = [str(tmp_path / f"t{i}.jsonl") for i in (0, 1)]
        sigs = [
            write_jsonl(SPEC.arrivals(RngHub(77)), p) for p in paths
        ]
        assert sigs[0] == sigs[1]
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1]
        # Regenerating (no file) hashes to the same signature.
        assert trace_signature(SPEC.arrivals(RngHub(77))) == sigs[0]
        # A different seed gives a different trace.
        assert trace_signature(SPEC.arrivals(RngHub(78))) != sigs[0]

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
                    process="poisson",
                    count=25,
                    params={"rate_per_s": 2.0},
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
        assert len(keys) == SPEC.total_requests
        assert len(set(keys)) == len(keys)

    def test_merge_is_lazy(self):
        # A tenant with an absurd count would hang if materialized.
        huge = TraceSpec(
            tenants=(
                TenantSpec(
                    name="firehose",
                    process="poisson",
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
        again = TraceSpec.from_records(
            json.loads(json.dumps(SPEC.to_records()))
        )
        assert again == SPEC
        assert again.signature() == SPEC.signature()
        with pytest.raises(ValueError, match="unknown arrival process"):
            TenantSpec(name="x", process="lorenz", count=1)
        with pytest.raises(ValueError, match="duplicate tenant"):
            TraceSpec(tenants=(SPEC.tenants[0], SPEC.tenants[0]))
        bad = TenantSpec(
            name="x",
            process="poisson",
            count=1,
            params={"warp": 9.0},
        )
        with pytest.raises(ValueError, match="unknown poisson params"):
            next(bad.arrivals(RngHub(1)))

    def test_arrival_record_round_trip(self):
        a = Arrival(
            time=1.5,
            tenant="t",
            kind="poisson",
            seq=3,
            memory_mb=64,
            deadline_s=30.0,
        )
        assert Arrival.from_record(a.to_record()) == a
        nodeadline = Arrival(
            time=2.0, tenant="t", kind="flash", seq=0, memory_mb=32
        )
        record = nodeadline.to_record()
        assert "deadline_s" not in record
        assert Arrival.from_record(record) == nodeadline

    def test_jsonl_replay_identical(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sig = write_jsonl(SPEC.arrivals(RngHub(13)), path)
        replayed = list(read_jsonl(path))
        assert replayed == list(SPEC.arrivals(RngHub(13)))
        assert trace_signature(iter(replayed)) == sig

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

    def test_replay_from_recorded_traces(self, tmp_path):
        from repro.workloads.megaload import record_site_traces

        out = str(tmp_path / "traces")
        recorded = record_site_traces(2004, 2, MEGA_PRM, out)
        assert sorted(recorded) == [0, 1]
        live = self._run(1)
        prm = dict(MEGA_PRM)
        prm["trace_dir"] = out
        replay = self._run(1, prm=prm)
        # The consumed-trace signature each site ships must equal the
        # recorded file's signature, generated or replayed.
        for run in (live, replay):
            for r in run.site_results:
                assert (
                    r["stats"]["trace_signature"]
                    == recorded[r["site"]]
                )
        assert replay.fingerprint() == live.fingerprint()
        # ...and at 2 shards the replayed trace still matches.
        replay2 = self._run(2, prm=prm)
        assert replay2.fingerprint() == live.fingerprint()

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
