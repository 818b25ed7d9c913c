"""Smoke: each bench's ``small`` rung, run once, read from its record.

Every assertion is structural or on the simulated clock: counts,
accounting identities, sim-time latency ratios and fingerprints.
Host-clock values (``wall_s``, ``cpu_s``, the goodput per CPU-second
and the ratios built on them) stay in the record as information; a
host-time claim is an ``ab.py`` verdict on an end-to-end workload.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf.bench import BENCHES, HEAD, HOST_KEYS, run_bench
from repro.sim.shard import ShardedTestbed


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """name -> the record its ``small`` rung writes (run once)."""
    records = {}

    def record(name):
        if name not in records:
            out = tmp_path_factory.mktemp(name) / "bench.json"
            run_bench(name, "small", out)
            (records[name],) = json.loads(out.read_text())
        return records[name]

    return record


def kwargs(name):
    return BENCHES[name]["small"]


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_record_head(small, name):
    record = small(name)
    assert tuple(record)[: len(HEAD)] == HEAD
    assert (record["command"], record["rung"]) == (name, "small")
    assert record["cpu_count"] >= 1 and record["usable_cores"] >= 1


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_record_is_deterministic(small, name):
    assert small(name)["deterministic"] is True


def test_megaload_points_agree_at_every_shard_count(small):
    """The determinism contract, point by point: more shards change
    what a run costs, never what it simulated — events, creates and
    every other sim-side count are those of the one-shard run."""
    points = small("megaload")["points"]
    assert [p["shards"] for p in points] == list(
        kwargs("megaload")["shard_counts"]
    )
    simulated = [
        {k: v for k, v in p.items() if k not in HOST_KEYS | {"shards"}}
        for p in points
    ]
    assert all(s == simulated[0] for s in simulated[1:]), simulated


def test_loadtest_stack_beats_baseline(small):
    """Simulated creates/s and p95 at the top rate, full provisioning
    stack over baseline, in one run."""
    record = small("loadtest")
    assert record["throughput_speedup_at_max_rate"] >= 1.3, record
    assert record["p95_improvement_at_max_rate"] >= 1.5, record


def test_disttree_tree_flat_while_star_grows(small):
    """8 -> 64 hosts adds ~3 tree levels: the tree's p95 stays near
    flat while the NFS star scales ~8x, and the tree seeds from the
    warehouse once per rung, not once per host."""
    record = small("disttree")
    assert record["tree_p95_growth"] <= 1.4, record["tree_p95_growth"]
    assert record["star_p95_growth"] >= 2.5, record["star_p95_growth"]
    tree = [p for p in record["points"] if p["variant"] == "tree"]
    assert [p["hosts"] for p in tree] == list(kwargs("disttree")["hosts"])
    for point in tree:
        assert point["nfs_seeds"] < point["hosts"]
        assert point["peer_hops"] >= point["hosts"] - point["nfs_seeds"]
        assert point["failed"] == 0


def test_megaload_exercises_the_kernel(small):
    for point in small("megaload")["points"]:
        assert point["events"] > 1000
        assert point["projected"] == (point["shards"] > point["usable_cores"])


def federation_point(record, sites, cross):
    (point,) = [
        p for p in record["points"]
        if (p["sites"], p["cross_fraction"]) == (sites, cross)
    ]
    return point


def test_federation_more_sites_cost_a_create_nothing_but_sync(small):
    """Registries, brokers and address blocks are site-local, so with
    no cross-site traffic a site runs exactly what it runs alone: site
    0 of the four-site run reads the one-site run's stats, latency
    summary and final clock, and no worker sends another a message.

    Its kernel event count is no such invariant: the four-site run
    advances in lookahead windows, and a sleep that would run on in
    place past a window's end is queued instead (site 0 reads a few
    events more than alone), while sites 1-3 draw their own arrivals.
    """
    record = small("federation")
    local = [p for p in record["points"] if p["cross_fraction"] == 0.0]
    assert sorted(p["sites"] for p in local) == [1, 4]
    per_site = kwargs("federation")["requests_per_site"]
    for point in local:
        assert point["created"] == point["sites"] * per_site
        assert all(w["records"] == 0 for w in point["sync"]), point["sync"]
    bench = kwargs("federation")
    params = {
        "plants": bench["plants_per_site"],
        "requests": per_site,
        **bench["params"],
        "cross_fraction": 0.0,
    }
    alone, grid = (
        ShardedTestbed(
            seed=bench["seed"], sites=sites, shards=1, scenario="federation"
        ).run(params=params, collect=None).site_results[0]
        for sites in (1, 4)
    )
    assert grid["stats"] == alone["stats"]
    assert grid["now"] == alone["now"]


def test_federation_spills_cross(small):
    """The cross-fraction sweep exercises the spill path — spills sent,
    acknowledged and completed within the deadline — while the
    zero-fraction run stays entirely site-local."""
    record = small("federation")
    crossing = federation_point(record, 4, 0.2)
    assert crossing["spills_sent"] > 0
    assert crossing["spilled_ok"] > 0
    assert crossing["spill_timeout"] == 0
    local_only = federation_point(record, 4, 0.0)
    assert local_only["spills_sent"] == 0
    assert local_only["created"] == (
        4 * kwargs("federation")["requests_per_site"]
    )


def test_federation_one_bid_round_per_create(small):
    """§3.1: one round per request.  A local placement dispatches from
    the round that decided it and a spilled request is bid once, at
    the site that serves it."""
    for point in small("federation")["points"]:
        assert point["failed"] == 0
        assert point["bid_rounds"] == point["created"]
        assert point["bid_rounds_per_ok"] == 1.0


def test_megaload_every_arrival_accounted(small):
    record = small("megaload")
    sweep = kwargs("megaload")
    expected = sweep["sites"] * sweep["requests_per_site"]
    for point in record["points"]:
        assert point["arrivals"] == expected
        assert point["ok"] + point["failed"] == point["arrivals"]
        assert point["ok"] > 0
        assert (
            point["p50_latency_s"] <= point["p95_latency_s"]
            <= point["p99_latency_s"]
        )
        assert 0 < point["peak_rss_mb"] < 2048


def test_megaload_sketches_merge_exactly(small):
    """Merged per-site summary state bit-identical at every shard
    count, under tracers that dropped nothing."""
    record = small("megaload")
    assert record["sketch_equal"] is True
    assert record["trace_dropped"] == 0


def test_megachaos_ladder(small):
    """Each compensation layer may only improve availability; faults
    fire on every faulted rung; every arrival ends ok, failed or shed;
    the six-dimension leak audit is all zero after drain."""
    record = small("megachaos")
    ladder = kwargs("megachaos")
    expected = ladder["sites"] * ladder["requests_per_site"]
    assert record["ladder_monotone"] is True
    assert record["leaked"] is False
    for point in record["points"]:
        assert (point["faults_applied"] == 0) == (point["rung"] == "none")
        assert point["arrivals"] == expected
        assert point["accounted"] is True
        assert not any(point["leaks"].values()), point["leaks"]
    det = [str(s) for s in ladder["det_shard_counts"]]
    assert sorted(record["det_signatures"]) == det
