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
#: fingerprint or signature moved.
GOLDEN = {
    "federation": (
        "1646481cd6307b43f9ce11249d3110fa9450439317ced29ff48aadbce57cbcee",
        3023,
        None,
    ),
    "megaload": (
        "45f68affa8f3c99d09bb83b3abe85c7dc3550b69ddb52a11f07a3b6bee8b8905",
        5616,
        "9eb578434895406452dadea4df0a488b1396f8f8f9895138f5c76731225376da",
    ),
    "faults": (
        "6f7a3eef9b523403a8cda86c2bddf75ed2cccf4326db7516d064cbf3b7e98d54",
        5779,
        "85bbbaa617094ee316d6f99a2bd6edd22b2b8bc816f97078af5f5fdd322e8b13",
    ),
    "failover": (
        "2945197a771a82475faa8cf58c7c2fa24cb16ea1dc84f422944d88bb04f021cd",
        9019,
        "877719601495c904ada704391dcb4f488fce2e0ea17771a3e5bd60be80473649",
    ),
    "admission": (
        "314506fc623ce077cbcaaa1a10681db7a766c7ee0780571361d6a45509acd829",
        3967,
        "7d0fd9bf5cab023adbee67c0748d293fa81df201aa24e609faee7ce585e8e769",
    ),
    "miniring": (
        "e640187763962b421d1b2c3b9aa87d95e637e5e560ff358938ace579a366c0bc",
        288,
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
