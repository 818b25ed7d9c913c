"""Golden trajectories of the sharded grid scenarios.

Every other shard test compares a run with *itself* at another shard
count.  This file pins the absolute trajectory — full merged-trace
fingerprint, total kernel events and (where the scenario ships one)
the merged ``WorkloadSummary.state_signature()`` — of small runs at 1
and 2 shards, so a refactor of the request path is correct iff these
constants do not move.  ``miniring`` is the control: it shares the
kernel and the runner with the grid scenarios and none of their code,
so it moves only when the kernel or the runner does.

The megachaos rungs run over one :func:`grid_fault_plan` holding a
site blackout, a WAN partition and one crashing plant per site, with
speculative pools on, so the fault, failover, admission and preemption
branches are all inside the pinned trajectories.
"""

from __future__ import annotations

import functools

import pytest

from repro.faults.plan import grid_fault_plan
from repro.sim.shard import ShardedTestbed
from repro.workloads.megaload import merge_site_summaries

_CHAOS_PLAN = grid_fault_plan(
    13,
    4,
    400.0,
    plants_per_site=4,
    crash_plants_per_site=1,
    mtbf_s=150.0,
    mttr_s=40.0,
    blackout_sites=(1,),
    blackout_at=30.0,
    blackout_s=40.0,
    wan_links=(("spill2", 2),),
    wan_at=20.0,
    wan_s=60.0,
).to_records()

_FAULTS = {
    "requests": 60,
    "rate_per_s": 2.0,
    "plants": 4,
    "cross_fraction": 0.2,
    "spill_deadline_s": 150.0,
    "speculative_pools": True,
    "fault_plan": _CHAOS_PLAN,
}
_FAILOVER = {
    **_FAULTS,
    "spill_attempts": 3,
    "spill_backoff_s": 10.0,
    "local_fallback": True,
    "reroute_on_blackout": True,
}
_ADMISSION = {
    **_FAILOVER,
    "shed_depth": 24,
    "preempt_depth": 8,
    "priorities": {"interactive": 0, "batch": 1, "crowd": 2},
}

#: name -> (scenario, sites, params); every run uses seed 13.
RUNS = {
    "federation": (
        "federation",
        4,
        {
            "requests": 30,
            "rate_per_s": 2.0,
            "plants": 4,
            "cross_fraction": 0.3,
            "spill_threshold": 40.0,
        },
    ),
    "megaload": (
        "megaload",
        4,
        {
            "requests": 60,
            "rate_per_s": 2.0,
            "plants": 4,
            "cross_fraction": 0.2,
        },
    ),
    "faults": ("megaload", 4, _FAULTS),
    "failover": ("megaload", 4, _FAILOVER),
    "admission": ("megaload", 4, _ADMISSION),
    "miniring": ("miniring", 3, {}),
}

#: name -> (merged-trace fingerprint, total events, merged summary
#: signature), recorded at commit 05bfc3d (``miniring`` at c6ec289).
#: ``federation`` shipped no summary state then and ``miniring`` ships
#: none, so none is pinned for either.
#: The event totals were re-recorded when ``Transport.gather`` stopped
#: scheduling a timer per bid answer: each is lower by the number of
#: answers its bid rounds received, and nothing else moved.  They were
#: re-recorded again when a sleep that nothing can overtake started to
#: run on in place (no timer, no heap entry): each is lower by the
#: number of such sleeps, equal at 1, 2 and 4 shards, and no
#: fingerprint or signature moved.  Every grid row but ``miniring``
#: was re-recorded when a guest action's four stages became four draws
#: and one wake: a second VM of the same host now draws between them
#: in a different order, so same-host concurrent creates take other
#: jitters; ``miniring`` did not move.  The event totals were
#: re-recorded once more when a decided event that nothing can
#: overtake (a process's end, a finished transfer, a bid round's last
#: landing) started to fire in place: each is lower by the number of
#: such firings, equal at 1 and 2 shards, and no fingerprint or
#: signature moved (``tests/test_decided_in_place.py`` runs every row
#: with each decided event queued and reads the totals before it).
GOLDEN = {
    "federation": (
        "8031699237f9ab4f427697c60cbfd6bad5df6cac7080270692db92743a240589",
        1974,
        None,
    ),
    "megaload": (
        "e520c8fd242c0fb41abd24b73a49486ac16a06741e9f3016a884ed7900fd8e09",
        3482,
        "554ecc836a62baed33c7915bd7aeb8825b60bd7c60a4e12752d34fa39083e44a",
    ),
    "faults": (
        "70a82dc27a0c76ff61d16065296cb06a05f805bc63fb70d1f2e042ffb64bdce1",
        3738,
        "3503655b0483f86e0420396db908fa3ee4be4cf56c7c999b324d9e511286d7f2",
    ),
    "failover": (
        "53cd580a0f45d1a7cdda280bf77785a0c9408e92c89b3db1508479e8cc12529a",
        5793,
        "96d3171a836bd99c5ffa9dcf307e6c91e38a2fc4ab92e9b58e8371bd53d59026",
    ),
    "admission": (
        "d5284b9802f7b6c4d08b31b1eee47b2fc9aafc765d624bb04737d1a1cf6c2881",
        2599,
        "16e704b97cd302abdfd5f9af4997a312242fa2154a6042e00f416ea12d51be3f",
    ),
    "miniring": (
        "e640187763962b421d1b2c3b9aa87d95e637e5e560ff358938ace579a366c0bc",
        213,
        None,
    ),
}


@functools.lru_cache(maxsize=None)
def _run(name: str, shards: int):
    scenario, sites, params = RUNS[name]
    return ShardedTestbed(
        seed=13, sites=sites, shards=shards, scenario=scenario
    ).run(params=params, collect="fingerprint", deadline_s=300.0)


def _signature(run) -> str:
    partition = dict(enumerate(run.partition))
    return merge_site_summaries(
        run.site_results, group_of=lambda site: partition[site]
    ).state_signature()


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_trajectory_is_the_recorded_one(name, shards):
    fingerprint, events, signature = GOLDEN[name]
    run = _run(name, shards)
    assert run.fingerprint() == fingerprint
    assert run.total_events == events
    if signature is not None:
        assert _signature(run) == signature


def test_chaos_rungs_reach_the_branches_they_pin():
    """The plan fires every fault kind, and between them the rungs
    take every exit of the request path: ack ok / failed / timed out,
    retry, local fallback, shed, preempt."""
    kinds = {rec["kind"] for rec in _CHAOS_PLAN}
    assert kinds == {"host-crash", "site-blackout", "wan-partition"}
    faults = _run("faults", 1).combined_stats()
    assert faults["faults_applied"] >= 3
    for key in ("failed", "spilled_ok", "spill_timeout", "spill_failed"):
        assert faults[key] > 0, key
    failover = _run("failover", 1).combined_stats()
    assert failover["spill_retries"] > 0
    assert failover["local_fallbacks"] > 0
    admission = _run("admission", 1).combined_stats()
    assert admission["shed"] > 0
    assert admission["preempted"] > 0
