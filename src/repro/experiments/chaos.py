"""Chaos experiment: the recovery-policy ladder under injected faults.

The paper argues (Section 3.1) that decentralized plants limit the
blast radius of node failures but never measures it.  This experiment
does: a Poisson request stream runs against the simulated site while a
deterministic :class:`~repro.faults.plan.FaultPlan` crashes hosts,
takes the warehouse path down and hangs guest daemons — and the same
plan is replayed against each rung of the shop-side recovery ladder:

* ``surface``  — failures surface to the client (the seed behaviour);
* ``retry``    — the shop falls through to the next-best bidder;
* ``deadline`` — plus per-create/bid deadlines and backoff re-bids;
* ``breaker``  — plus per-plant circuit-breaker quarantine.

Every policy faces bit-identical arrivals (one named stream) and a
bit-identical fault schedule (the plan is materialized once per sweep
point), so availability differences are attributable to policy alone.
Each run ends with a leak audit: host memory, line admissions,
information-system entries and network leases must all drain to zero.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import find_point, point_record, render_table
from repro.experiments.runner import CreationSample, serve
from repro.faults.audit import leak_report as _leak_report
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import (
    CIRCUIT_BREAKER,
    DEADLINE_BACKOFF,
    RecoveryPolicy,
)
from repro.sim.cluster import build_testbed
from repro.workloads.requests import poisson_arrivals, request_stream

__all__ = [
    "POLICY_LADDER",
    "ChaosPoint",
    "ChaosResult",
    "run_chaos",
    "replay",
]

#: The recovery ladder, weakest first: (name, retry_other_plants,
#: shop policy).  Availability must be non-decreasing down the list.
POLICY_LADDER: Tuple[Tuple[str, bool, RecoveryPolicy], ...] = (
    ("surface", False, RecoveryPolicy()),
    ("retry", True, RecoveryPolicy()),
    ("deadline", True, DEADLINE_BACKOFF),
    ("breaker", True, CIRCUIT_BREAKER),
)


@dataclass(frozen=True)
class ChaosPoint:
    """One (mtbf, policy) measurement."""

    policy: str
    mtbf_s: float
    requests: int
    ok: int
    failed: int
    #: Fraction of requests that got a VM.
    availability: float
    #: Successful creates per simulated second.
    goodput_per_s: float
    mean_latency_s: float
    makespan_s: float
    faults_applied: int
    faults_skipped: int
    #: Mean injected fault window (None = no fault landed).
    measured_mttr_s: Optional[float]
    quarantines: int
    #: Residual resources at drain; all zero on a clean run.
    leaks: Dict[str, float]
    #: SHA-256 over per-request outcomes (replay verification).
    fingerprint: str

    @property
    def leaked(self) -> bool:
        return any(v != 0 for v in self.leaks.values())


@dataclass
class ChaosResult:
    """Full sweep: MTBF point → ladder of policy measurements."""

    seed: int
    memory_mb: int
    requests: int
    rate_per_s: float
    mttr_s: float
    n_plants: int
    policies: Tuple[str, ...]
    points: Dict[float, List[ChaosPoint]] = field(default_factory=dict)
    #: Recorded fault schedule per MTBF point (the replay artifact).
    plans: Dict[float, List[dict]] = field(default_factory=dict)
    #: Tracer ring size attached to each run (None = no tracer).
    trace_capacity: Optional[int] = None
    #: Trace events dropped by bounded tracers, over all points.
    trace_dropped: int = 0

    def point(self, mtbf_s: float, policy: str) -> ChaosPoint:
        return find_point(self.points[mtbf_s], policy=policy)

    def availability_ladder(self, mtbf_s: float) -> List[float]:
        """Availabilities in ladder order for one MTBF point."""
        return [
            self.point(mtbf_s, policy).availability
            for policy in self.policies
        ]

    def plan_signature(self, mtbf_s: float) -> str:
        return FaultPlan.from_records(self.plans[mtbf_s]).signature()

    def to_record(self) -> dict:
        """JSON-ready report (``vmplants chaos --report``); see
        :func:`replay`."""
        return {
            "seed": self.seed,
            "memory_mb": self.memory_mb,
            "requests": self.requests,
            "rate_per_s": self.rate_per_s,
            "mttr_s": self.mttr_s,
            "n_plants": self.n_plants,
            "policies": list(self.policies),
            "points": [
                point_record(p)
                for mtbf in sorted(self.points)
                for p in self.points[mtbf]
            ],
            "plans": {
                str(mtbf): {
                    "signature": self.plan_signature(mtbf),
                    "records": records,
                }
                for mtbf, records in self.plans.items()
            },
        }

    def render(self) -> str:
        notes = []
        for mtbf in sorted(self.points):
            ladder = self.availability_ladder(mtbf)
            arrow = " <= ".join(f"{a:.3f}" for a in ladder)
            mono = all(b >= a for a, b in zip(ladder, ladder[1:]))
            notes.append(
                f"MTBF {mtbf:.0f}s availability ladder "
                f"({' -> '.join(self.policies)}): {arrow}"
                f"{'' if mono else '  [NOT MONOTONE]'}"
            )
        if self.trace_capacity is not None:
            notes.append(
                f"tracer: bounded to {self.trace_capacity} events; "
                f"{self.trace_dropped} dropped"
                + (
                    " (traces cover run tails only)"
                    if self.trace_dropped
                    else ""
                )
            )
        return render_table(
            "Extension: recovery-policy ladder under injected faults "
            f"({self.requests} x {self.memory_mb} MB VMs, "
            f"{self.n_plants} plants, {self.rate_per_s:g} req/s, "
            f"MTTR {self.mttr_s:.0f} s)",
            {
                "MTBF (s)": ">9.0f", "policy": "<10", "ok": ">4d",
                "avail": ">7.3f", "goodput/s": ">10.4f", "mean lat": ">9.1f",
                "faults": ">7d", "skip": ">5d", "MTTR (s)": ">9.1f",
                "quar": ">5d", "leaks": ">6",
            },
            [
                (
                    mtbf, p.policy, p.ok, p.availability, p.goodput_per_s,
                    p.mean_latency_s, p.faults_applied, p.faults_skipped,
                    p.measured_mttr_s, p.quarantines,
                    "LEAK" if p.leaked else "none",
                )
                for mtbf in sorted(self.points)
                for p in self.points[mtbf]
            ],
            notes,
        )


def _policy_table(
    policies: Sequence[str],
) -> List[Tuple[str, bool, RecoveryPolicy]]:
    by_name = {name: (name, retry, pol) for name, retry, pol in POLICY_LADDER}
    unknown = set(policies) - set(by_name)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    return [by_name[name] for name in policies]


def _fingerprint(samples: Sequence[CreationSample]) -> str:
    """Hash of every request's outcome and latency (time-to-fail for a
    failure), in request order."""
    payload = ";".join(
        f"{s.index}:{'ok' if s.ok else 'fail'}:{s.latency:.9f}"
        for s in sorted(samples, key=lambda s: s.index)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _run_point(
    policy_name: str,
    retry_other_plants: bool,
    policy: RecoveryPolicy,
    plan: FaultPlan,
    seed: int,
    memory_mb: int,
    requests: int,
    rate: float,
    n_plants: int,
    mtbf_s: float,
    trace_capacity: Optional[int] = None,
) -> Tuple[ChaosPoint, int]:
    bed = build_testbed(
        seed=seed,
        n_plants=n_plants,
        retry_other_plants=retry_other_plants,
        recovery=policy,
    )
    if trace_capacity is not None:
        bed.attach_tracer(trace_capacity)
    injector = FaultInjector(bed, plan)
    injector.start()
    stream = request_stream(memory_mb, requests)
    # One shared stream name: every policy sees identical arrivals.
    times = poisson_arrivals(
        bed.rng, rate, requests, stream=f"chaos/{rate}"
    )
    start = bed.env.now
    # Each VM is held 45 s before its destroy, so faults land on
    # running VMs as well as on creates.
    samples = serve(bed, stream, times=times, hold_s=45.0)
    makespan = bed.env.now - start
    latencies = [s.latency for s in samples if s.ok]
    ok = len(latencies)
    sample = np.asarray(latencies, dtype=float)
    quarantines = sum(
        h.times_opened for h in bed.shop.health.values()
    )
    dropped = (
        bed.env.tracer.dropped if trace_capacity is not None else 0
    )
    point = ChaosPoint(
        policy=policy_name,
        mtbf_s=mtbf_s,
        requests=requests,
        ok=ok,
        failed=requests - ok,
        availability=ok / requests if requests else 0.0,
        goodput_per_s=ok / makespan if makespan > 0 else 0.0,
        mean_latency_s=float(sample.mean()) if ok else float("nan"),
        makespan_s=makespan,
        faults_applied=sum(
            1 for _, phase, _, _ in injector.applied if phase == "inject"
        ),
        faults_skipped=injector.skipped,
        measured_mttr_s=injector.mean_time_to_recover(),
        quarantines=quarantines,
        leaks=_leak_report(bed),
        fingerprint=_fingerprint(samples),
    )
    return point, dropped


def run_chaos(
    seed: int = 2004,
    memory_mb: int = 64,
    requests: int = 48,
    rate: float = 0.1,
    mtbf_sweep: Sequence[float] = (300.0, 900.0),
    mttr_s: float = 60.0,
    n_plants: int = 8,
    policies: Sequence[str] = tuple(name for name, _, _ in POLICY_LADDER),
    plans: Optional[Dict[float, List[dict]]] = None,
    trace_capacity: Optional[int] = None,
) -> ChaosResult:
    """Sweep fault pressure (MTBF) across the recovery-policy ladder.

    One :class:`FaultPlan` is materialized per MTBF point and replayed
    against every policy.  ``plans`` (mtbf → recorded events, the
    ``plans`` section of a saved report) bypasses generation entirely —
    the replay path: identical schedule, bit-identical outcome.
    ``trace_capacity`` attaches a bounded tracer to every run and
    reports dropped events (default: no tracer, as before).

    :param requests: Poisson arrivals per (MTBF, policy) run
    :param rate: arrival rate (requests per simulated second)
    :param mtbf_sweep: mean time between faults per target (seconds)
        to sweep
    :param mttr_s: mean fault duration (seconds)
    """
    if requests <= 0:
        raise ValueError("requests must be positive")
    if rate <= 0:
        raise ValueError("rate must be positive")
    ladder = _policy_table(policies)
    # The first half of the plants can crash; the rest can hang.
    crash_plants = max(1, n_plants // 2)
    # Generously past the last arrival so late faults still land
    # while VMs are held, but the plan stays finite.
    horizon_s = requests / rate + 6.0 * mttr_s

    result = ChaosResult(
        seed=seed,
        memory_mb=memory_mb,
        requests=requests,
        rate_per_s=rate,
        mttr_s=mttr_s,
        n_plants=n_plants,
        policies=tuple(policies),
        trace_capacity=trace_capacity,
    )
    for mtbf in mtbf_sweep:
        if plans is not None and mtbf in plans:
            plan = FaultPlan.from_records(plans[mtbf])
        else:
            from repro.sim.rng import RngHub

            hub = RngHub(seed)
            plan = FaultPlan.exponential(
                hub,
                horizon_s,
                crash_targets=[f"plant{i}" for i in range(crash_plants)],
                mtbf_s=mtbf,
                mttr_s=mttr_s,
                warehouse=True,
                hang_targets=[
                    f"plant{i}" for i in range(crash_plants, n_plants)
                ],
            )
        result.plans[mtbf] = plan.to_records()
        pts = []
        for name, retry, policy in ladder:
            point, dropped = _run_point(
                name,
                retry,
                policy,
                plan,
                seed,
                memory_mb,
                requests,
                rate,
                n_plants,
                mtbf,
                trace_capacity,
            )
            pts.append(point)
            result.trace_dropped += dropped
        result.points[mtbf] = pts
    return result


def replay(record: dict) -> ChaosResult:
    """Re-run a saved report: its fault schedules meet the workload
    its run parameters describe, so the outcome is bit-identical."""
    plans = {
        float(mtbf): entry["records"]
        for mtbf, entry in record["plans"].items()
    }
    return run_chaos(
        seed=record["seed"],
        memory_mb=record["memory_mb"],
        requests=record["requests"],
        rate=record["rate_per_s"],
        mtbf_sweep=sorted(plans),
        mttr_s=record["mttr_s"],
        n_plants=record["n_plants"],
        policies=record["policies"],
        plans=plans,
    )
