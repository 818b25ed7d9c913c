"""Megachaos: grid-scale faults composed with flash-crowd traces.

The graceful-degradation experiment the robustness story hangs on: a
deterministic :func:`~repro.faults.plan.grid_fault_plan` (single-site
blackout, optional WAN partition and background host crashes) runs
*inside* the sharded ``megaload`` scenario while its multi-tenant
trace — including the flash crowd — plays out, and the same plan is
replayed against each rung of the **grid resilience ladder**:

* ``none``      — no faults (the baseline the trace can reach);
* ``faults``    — the plan fires, nothing compensates: arrivals at a
  dark site fail fast, spills into it vanish;
* ``failover``  — plus the gateway failover ladder: dark-site
  arrivals reroute over the spill ring, failed/timed-out spills
  retry with backoff, and the home site is a last-resort fallback;
* ``admission`` — plus overload admission control: priority-tiered
  load shedding and pool preemption at the gateways.

Every rung sees bit-identical arrivals (the traces are pure functions
of ``(seed, site, params)``) and a bit-identical fault schedule (one
recorded plan), so the availability ladder measures *policy*, not
luck.  Availability is ``(arrivals - failed) / arrivals`` — the
fraction of offered requests that did not end in failure.  A shed
request is an immediate, deterministic decline by explicit policy
(not a timeout or an error), so it does not count against
availability; it is accounted separately and the identity
``arrivals = ok + failed + shed`` must hold exactly on every rung.
The per-tenant fairness tests and the shed column keep this honest —
a ladder that "wins" by shedding everything is visible at a glance.

Each rung ends with the six-dimension leak audit at grid scope
(summed across every site's testbed), and the determinism recheck
reruns the *full* ladder rung — faults, failover and admission all
enabled — at 1/2/4 shards: merged-trace fingerprints and merged
``WorkloadSummary.state_signature()`` must be identical, extending
the PR 6 contract to chaos.  ``to_record`` carries the recorded
plan and the call's arguments, so :func:`replay` (``vmplants
megachaos --replay``) reproduces the report bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import find_point, point_record, render_table
from repro.experiments.recheck import (
    DeterminismRecheck,
    recheck_determinism,
)
from repro.faults.plan import FaultPlan, grid_fault_plan
from repro.sim.shard import ShardedTestbed
from repro.workloads.megaload import merged_summary

__all__ = [
    "LADDER",
    "MegaChaosPoint",
    "MegaChaosResult",
    "run_megachaos",
    "replay",
]

#: The grid resilience ladder, weakest first.  Availability over the
#: three faulted rungs must be non-decreasing.
LADDER: Tuple[str, ...] = ("none", "faults", "failover", "admission")

#: ``run_megachaos`` arguments that say how patient the host is and
#: how the plan was obtained, not what was run: a report's ``config``
#: is every other argument, and :func:`replay` takes these afresh.
HOST_SIDE: Tuple[str, ...] = ("deadline_s", "trace_capacity", "plan_records")

#: Default tenant priority tiers for the admission rung: interactive
#: users outrank batch campaigns outrank the flash crowd.
DEFAULT_PRIORITIES: Dict[str, int] = {
    "interactive": 0,
    "batch": 1,
    "crowd": 2,
}


@dataclass(frozen=True)
class MegaChaosPoint:
    """One rung of the resilience ladder."""

    rung: str
    shards: int
    arrivals: int
    ok: int
    failed: int
    shed: int
    preempted: int
    deadline_miss: int
    spilled_ok: int
    spill_retries: int
    spill_timeout: int
    spills_dropped: int
    local_fallbacks: int
    faults_applied: int
    faults_skipped: int
    #: (arrivals - failed) / arrivals: fraction of offered requests
    #: that did not end in failure.  A shed request is a deterministic
    #: policy decline, not a failure, and is tallied separately.
    availability: float = field(metadata={"round": 6})
    goodput_per_s: float = field(metadata={"round": 6})
    makespan_s: float = field(metadata={"round": 6})
    #: Residual grid-scope resources at drain; all zero when clean.
    leaks: Dict[str, float]
    summary_signature: str
    #: Properties a point's record carries after its fields.
    derived = ("accounted",)

    @property
    def leaked(self) -> bool:
        return any(v != 0 for v in self.leaks.values())

    @property
    def accounted(self) -> bool:
        """Every arrival ended as ok, failed or shed."""
        return self.arrivals == self.ok + self.failed + self.shed


@dataclass
class MegaChaosResult:
    """The full ladder plus determinism recheck and replay record."""

    #: Everything needed to reproduce the run (the replay artifact).
    config: Dict[str, Any]
    #: The recorded grid fault plan (site-tagged events).
    plan_records: List[dict] = field(default_factory=list)
    plan_signature: str = ""
    points: List[MegaChaosPoint] = field(default_factory=list)
    #: The full ladder rung — faults, failover and admission all on —
    #: at every ``det_shard_counts`` and a repeat.
    recheck: DeterminismRecheck = field(default_factory=DeterminismRecheck)

    def point(self, rung: str) -> MegaChaosPoint:
        return find_point(self.points, rung=rung)

    def availability_ladder(self) -> List[float]:
        return [p.availability for p in self.points]

    @property
    def ladder_monotone(self) -> bool:
        """Availability non-decreasing over the faulted rungs."""
        faulted = [
            p.availability
            for p in self.points
            if p.rung != "none"
        ]
        return all(
            b >= a for a, b in zip(faulted, faulted[1:])
        )

    @property
    def leaked(self) -> bool:
        return any(p.leaked for p in self.points)

    def to_record(self) -> dict:
        """JSON-ready report (``vmplants megachaos --report``).

        Deliberately excludes wall-clock and RSS numbers: a replayed
        run must reproduce this record *bit-identically*.
        """
        return {
            "config": {
                k: v for k, v in sorted(self.config.items())
            },
            "plan": {
                "signature": self.plan_signature,
                "records": list(self.plan_records),
            },
            "points": [point_record(p) for p in self.points],
            "fingerprints": {
                str(k): v
                for k, v in sorted(self.recheck.fingerprints.items())
            },
            "det_signatures": {
                str(k): v
                for k, v in sorted(self.recheck.signatures.items())
            },
            "repeat_fingerprint": self.recheck.repeat_fingerprint,
            "ladder_monotone": self.ladder_monotone,
            "deterministic": self.recheck.ok,
            "leaked": self.leaked,
        }

    def render(self) -> str:
        cfg = self.config
        faulted = [p for p in self.points if p.rung != "none"]
        arrow = " <= ".join(f"{p.availability:.3f}" for p in faulted)
        return render_table(
            "Extension: grid resilience ladder under a site blackout "
            f"({cfg['sites']} sites x {cfg['requests_per_site']} "
            f"requests/site, blackout site {cfg['blackout_site']} "
            f"at t={cfg['blackout_at']:g}s for "
            f"{cfg['blackout_s']:g}s; plan "
            f"{self.plan_signature[:16]})",
            {
                "rung": "<10", "ok": ">6d", "fail": ">5d", "shed": ">5d",
                "avail": ">7.3f", "goodput/s": ">10.4f", "retries": ">8d",
                "dropped": ">8d", "fallback": ">9d", "faults": ">7d",
                "skip": ">5d", "leaks": ">6",
            },
            [
                (
                    p.rung, p.ok, p.failed, p.shed, p.availability,
                    p.goodput_per_s, p.spill_retries, p.spills_dropped,
                    p.local_fallbacks, p.faults_applied, p.faults_skipped,
                    "LEAK" if p.leaked else "none",
                )
                for p in self.points
            ],
            [
                "availability ladder "
                f"({' -> '.join(p.rung for p in faulted)}): {arrow}"
                f"{'' if self.ladder_monotone else '  [NOT MONOTONE]'}",
                self.recheck.line(),
            ],
        )


def _rung_params(
    rung: str, base: Dict[str, Any], cfg: Dict[str, Any],
    plan_records: List[dict],
) -> Dict[str, Any]:
    """The scenario params one ladder rung runs with."""
    prm = dict(base)
    if rung == "none":
        return prm
    prm["fault_plan"] = plan_records
    if rung in ("failover", "admission"):
        prm["spill_attempts"] = cfg["spill_attempts"]
        prm["spill_backoff_s"] = cfg["spill_backoff_s"]
        prm["local_fallback"] = True
        prm["reroute_on_blackout"] = True
    if rung == "admission":
        prm["shed_depth"] = cfg["shed_depth"]
        prm["preempt_depth"] = cfg["preempt_depth"]
        prm["priorities"] = dict(DEFAULT_PRIORITIES)
    return prm


def run_megachaos(
    seed: int = 2004,
    sites: int = 4,
    shards: int = 4,
    requests_per_site: int = 150,
    extra_params: Optional[Dict[str, Any]] = None,
    blackout_site: int = 1,
    blackout_at: float = 110.0,
    blackout_s: float = 60.0,
    crash_plants_per_site: int = 0,
    mtbf_s: float = 600.0,
    mttr_s: float = 60.0,
    wan_site: Optional[int] = None,
    wan_at: Optional[float] = None,
    wan_s: float = 30.0,
    wan_severity: float = 0.0,
    spill_attempts: int = 3,
    spill_backoff_s: float = 20.0,
    shed_depth: Optional[int] = 240,
    preempt_depth: Optional[int] = 160,
    det_shard_counts: Sequence[int] = (1, 2, 4),
    determinism_requests: int = 40,
    deadline_s: Optional[float] = 1800.0,
    trace_capacity: Optional[int] = 100_000,
    plan_records: Optional[List[dict]] = None,
) -> MegaChaosResult:
    """Run the resilience ladder over one grid fault plan.

    ``plan_records`` (the ``plan.records`` section of a saved report)
    bypasses plan generation — the replay path.  The blackout is a
    single fixed-time event; background host crashes
    (``crash_plants_per_site`` per site) and the optional WAN
    partition (``wan_site``'s spill link) come from the same seeded
    plan.  ``extra_params`` are ``megaload`` scenario parameters laid
    over this experiment's own.  The determinism recheck runs the
    *admission* rung — every knob on at once — across
    ``det_shard_counts``.

    :param sites: federated sites (one kernel shard per site at the max)
    :param shards: kernel shards for the ladder runs (<= --sites)
    :param requests_per_site: requests per site per ladder rung
    :param blackout_site: which site goes dark
    :param blackout_at: blackout start (simulated seconds)
    :param blackout_s: blackout length (simulated seconds)
    :param crash_plants_per_site: plants per site on a background
        crash/recover renewal
    :param mtbf_s: mean time between background crashes per plant
    :param mttr_s: mean background crash duration
    :param wan_site: also partition this site's outbound spill link
    :param wan_severity: 0 = full partition; 0<s<1 = degrade bandwidth
        to that fraction
    :param spill_attempts: spill rounds on the failover/admission rungs
    :param spill_backoff_s: base backoff between spill rounds (doubles
        per round)
    :param shed_depth: tier-0 in-flight ceiling on the admission rung
    :param preempt_depth: in-flight depth that triggers pool preemption
    :param deadline_s: wall-clock abort deadline per sharded run
        (seconds)
    :param trace_capacity: bounded tracer size per site in the
        determinism recheck
    """
    # First statement: the locals are exactly the bound arguments.
    cfg: Dict[str, Any] = {
        k: v for k, v in locals().items() if k not in HOST_SIDE
    }
    cfg["det_shard_counts"] = list(det_shard_counts)
    cfg["extra_params"] = dict(sorted((extra_params or {}).items()))
    if not 0 <= blackout_site < sites:
        raise ValueError("blackout_site out of range")
    if shards > sites:
        raise ValueError("shards cannot exceed sites")

    base: Dict[str, Any] = {
        "requests": requests_per_site,
        # Chaos runs want the ladder visible inside the trace span:
        # a tighter spill deadline than the federation default so a
        # dead WAN peer costs seconds, not the whole run.
        "spill_deadline_s": 120.0,
        # Oversubscribe the grid: heavier VMs and a 30% flash crowd
        # landing inside the default blackout window (t=110..170 vs
        # the crowd's t=120 burst), so the faults rung visibly
        # bleeds and admission has real congestion to shed.
        "memory_mb": 64,
        "interactive_fraction": 0.4,
        "batch_fraction": 0.3,
    }
    base.update(cfg["extra_params"])

    if plan_records is None:
        # Horizon generously past the arrivals so renewal crashes can
        # land while VMs are still held.
        rate = float(base.get("rate_per_s", 2.0))
        horizon_s = requests_per_site / max(rate, 1e-9) + 6.0 * mttr_s
        wan_links: List[Tuple[str, int]] = []
        if wan_site is not None:
            wan_links.append((f"spill{wan_site}", wan_site))
        plan = grid_fault_plan(
            seed,
            sites,
            horizon_s,
            plants_per_site=int(base.get("plants", 8)),
            crash_plants_per_site=crash_plants_per_site,
            mtbf_s=mtbf_s,
            mttr_s=mttr_s,
            blackout_sites=(blackout_site,),
            blackout_at=blackout_at,
            blackout_s=blackout_s,
            gateway_hang_sites=(),
            wan_links=wan_links,
            wan_severity=wan_severity,
            wan_at=wan_at,
            wan_s=wan_s,
        )
        plan_records = plan.to_records()
    else:
        plan = FaultPlan.from_records(plan_records)
        plan_records = plan.to_records()

    result = MegaChaosResult(
        config=cfg,
        plan_records=plan_records,
        plan_signature=plan.signature(),
    )

    for rung in LADDER:
        prm = _rung_params(rung, base, cfg, plan_records)
        run = ShardedTestbed(
            seed=seed, sites=sites, shards=shards, scenario="megaload"
        ).run(params=prm, collect=None, deadline_s=deadline_s)
        merged = merged_summary(run)
        stats = run.combined_stats()
        arrivals = int(stats.get("arrivals", 0))
        ok = merged.total("ok")
        shed = merged.total("shed")
        failed = merged.total("failed")
        makespan = max(
            float(r["stats"].get("final_time", r["now"]))
            for r in run.site_results
        )
        result.points.append(
            MegaChaosPoint(
                rung=rung,
                shards=shards,
                arrivals=arrivals,
                ok=ok,
                failed=failed,
                shed=shed,
                preempted=int(stats.get("preempted", 0)),
                deadline_miss=merged.total("deadline_miss"),
                spilled_ok=int(stats.get("spilled_ok", 0)),
                spill_retries=int(stats.get("spill_retries", 0)),
                spill_timeout=int(stats.get("spill_timeout", 0)),
                spills_dropped=int(stats.get("spills_dropped", 0)),
                local_fallbacks=int(stats.get("local_fallbacks", 0)),
                faults_applied=int(stats.get("faults_applied", 0)),
                faults_skipped=int(stats.get("faults_skipped", 0)),
                availability=(
                    (arrivals - failed) / arrivals if arrivals else 0.0
                ),
                goodput_per_s=ok / makespan if makespan > 0 else 0.0,
                makespan_s=makespan,
                leaks=run.leaks(),
                summary_signature=merged.state_signature(),
            )
        )

    # Determinism recheck: the full ladder rung (faults + failover +
    # admission all on) must fingerprint identically at every shard
    # count, and the merged summaries must be bit-identical.
    det_base = dict(base)
    det_base["requests"] = min(
        determinism_requests, requests_per_site
    )
    result.recheck = recheck_determinism(
        seed,
        sites,
        "megaload",
        _rung_params("admission", det_base, cfg, plan_records),
        [c for c in det_shard_counts if 1 <= c <= sites],
        deadline_s=deadline_s,
        trace_capacity=trace_capacity,
    )
    return result


def replay(record: dict, **host_side: Any) -> MegaChaosResult:
    """Re-run a saved report: its recorded plan under its recorded
    arguments, so the schedule meets the exact same traces.
    ``host_side`` passes :data:`HOST_SIDE` arguments through."""
    return run_megachaos(
        **record["config"],
        plan_records=record["plan"]["records"],
        **host_side,
    )
