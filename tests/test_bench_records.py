"""The committed bench records (``benchmarks/results/BENCH_*.json``)
against the rung table that writes them.  Reads files only; runs no
simulation.

A record is a measurement of one commit on one host, so what is held
here is what the simulated clock decides: the head says where it was
taken, the recheck passed, and the paper-scale rungs meet the
acceptance bars their experiments were built to.  DESIGN's create-cost
table is held to ``E2E_create_cost.json`` the same way.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf.bench import BENCHES, HEAD, RESULTS, bench_path


def records(name):
    return json.loads(bench_path(name).read_text())


def latest(name, rung):
    return [r for r in records(name) if r["rung"] == rung][-1]


def test_every_record_file_is_a_bench():
    names = {path.name for path in RESULTS.glob("BENCH_*.json")}
    assert names == {bench_path(name).name for name in BENCHES}


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_every_rung_is_recorded_with_its_head(name):
    recorded = records(name)
    assert {r["rung"] for r in recorded} == set(BENCHES[name])
    for record in recorded:
        assert tuple(record)[: len(HEAD)] == HEAD
        assert record["command"] == name
        assert record["cpu_count"] >= 2, record["timestamp"]
        assert record["deterministic"] is True, record["timestamp"]


def test_loadtest_paper_stack_beats_baseline():
    """≥ 3x simulated creates/s and ≥ 2x lower p95 at the top rate
    with every provisioning feature on."""
    record = latest("loadtest", "paper")
    assert record["throughput_speedup_at_max_rate"] >= 3.0
    assert record["p95_improvement_at_max_rate"] >= 2.0


def test_disttree_paper_tree_stays_flat():
    """8 -> 512 hosts: tree p95 within 1.5x of its 8-host value while
    the NFS star grows at least 5x."""
    record = latest("disttree", "paper")
    assert record["tree_p95_growth"] <= 1.5
    assert record["star_p95_growth"] >= 5.0


def test_megachaos_paper_ladder():
    record = latest("megachaos", "paper")
    assert record["ladder_monotone"] is True
    assert record["leaked"] is False
    final = {p["rung"]: p for p in record["points"]}["admission"]
    assert final["availability"] >= 0.9


def test_megaload_million_rung_is_a_million_requests():
    record = latest("megaload", "million")
    for point in record["points"]:
        assert point["ok"] + point["failed"] == 1_000_000
    assert record["peak_rss_mb"] < 8192


def test_design_create_cost_table_quotes_its_record():
    """DESIGN "What a create costs now" quotes ``E2E_create_cost.json``
    cell by cell, at the precision it prints."""
    recorded = json.loads((RESULTS / "E2E_create_cost.json").read_text())
    design = (RESULTS.parent.parent / "DESIGN.md").read_text()
    section = design.split("#### What a create costs now", 1)[1]
    section = section.split("\n### ", 1)[0]
    header = next(l for l in section.splitlines() if l.startswith("| workload"))
    keys = [cell.strip(" `") for cell in header.strip("|").split("|")[2:]]
    quoted = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        workload, seed, *cells = (c.strip(" `") for c in line.strip("|").split("|"))
        values = recorded["records"][workload][seed]
        for key, cell in zip(keys, cells, strict=True):
            places = len(cell.partition(".")[2])
            assert f"{values[key]:.{places}f}" == cell, (workload, seed, key)
        quoted.add((workload, seed))
    assert quoted == {
        (workload, seed)
        for workload, seeds in recorded["records"].items()
        for seed in seeds
    }
