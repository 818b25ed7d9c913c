"""Lazy, composable, deterministic trace-driven arrival processes.

The paper's experiments issue at most 128 sequential requests; real
grid load is bursty, diurnal and multi-tenant — interactive users on
a day/night cycle, CMS-style batch production campaigns, flash
crowds.  This module generates such load as *lazy streams*: each
tenant is a :class:`TenantSpec` (pure data), its arrivals come from a
dedicated per-tenant RNG stream of the simulation's
:class:`~repro.sim.rng.RngHub`, and the tenants are heap-merged into
one deterministic time-ordered stream that is **never materialized**
— a million-request trace costs a few generator frames, not a list.

Generation is a pure function of ``(hub seed, spec)``: per-tenant
streams are independent by stream naming, so adding a tenant never
perturbs another tenant's draws.

Three arrival processes ship (see :data:`PROCESS_KINDS`):

``diurnal``
    Sinusoid-modulated Poisson via Lewis thinning: candidates are
    drawn at the peak rate and accepted with probability
    ``rate(t)/peak`` where ``rate(t) = rate_per_s * (1 + amplitude *
    sin(2*pi*(t - phase_s)/period_s))`` — interactive users with a
    day/night cycle.
``flash``
    A flash crowd: ``count`` arrivals in an exponential burst at
    ``at_s`` with mean spacing ``duration_s / count``.
``campaign``
    Batch production campaigns (the CMS Virtual Data pattern): each
    campaign submits ``size`` jobs spaced ``spacing_s`` apart, and the
    next campaign opens an exponential gap of mean ``gap_s`` after the
    previous one drains (keeping the tenant's stream time-ordered).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple

from repro.sim.rng import RngHub

__all__ = [
    "PROCESS_KINDS",
    "Arrival",
    "TenantSpec",
    "TraceSpec",
    "merge_arrivals",
]

#: Supported ``TenantSpec.process`` kinds.
PROCESS_KINDS = ("diurnal", "flash", "campaign")


class Arrival(NamedTuple):
    """One request arrival in a workload trace.

    Its first three fields are the merged stream's total order: tenant
    names are unique within a :class:`TraceSpec` and ``seq`` counts
    within one tenant, so no two arrivals tie on ``(time, tenant,
    seq)`` and tuple comparison never reaches the later fields.
    """

    time: float
    tenant: str
    #: Per-tenant sequence number, 0-based.
    seq: int
    memory_mb: int
    #: Soft completion deadline (simulated s); None = best-effort.
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class TenantSpec:
    """One tenant class: pure data describing an arrival process.

    ``params`` holds the process-specific knobs (see the module
    docstring); unknown keys are rejected at generation time so specs
    stay replayable across versions.  Draws come from the tenant's own
    ``trace/<name>`` stream of the hub.
    """

    name: str
    process: str
    count: int
    memory_mb: int = 32
    deadline_s: Optional[float] = None
    start_s: float = 0.0
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.process not in PROCESS_KINDS:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"known: {PROCESS_KINDS}"
            )
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if isinstance(self.params, dict):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )

    def param(self, key: str, default: float) -> float:
        for k, v in self.params:
            if k == key:
                return float(v)
        return float(default)

    def _known_params(self) -> Tuple[str, ...]:
        return {
            "diurnal": (
                "rate_per_s",
                "amplitude",
                "period_s",
                "phase_s",
            ),
            "flash": ("at_s", "duration_s"),
            "campaign": ("gap_s", "size", "spacing_s"),
        }[self.process]

    def arrivals(self, hub: RngHub) -> Iterator[Arrival]:
        """Lazy arrival stream for this tenant (strictly ordered)."""
        unknown = {k for k, _ in self.params} - set(
            self._known_params()
        )
        if unknown:
            raise ValueError(
                f"unknown {self.process} params for tenant "
                f"{self.name!r}: {sorted(unknown)}"
            )
        times = {
            "diurnal": self._diurnal,
            "flash": self._flash,
            "campaign": self._campaign,
        }[self.process](hub.stream(f"trace/{self.name}"))
        for seq, t in enumerate(times):
            yield Arrival(
                time=t,
                tenant=self.name,
                seq=seq,
                memory_mb=self.memory_mb,
                deadline_s=self.deadline_s,
            )

    # -- per-process inter-arrival generators ---------------------------
    def _diurnal(self, rng) -> Iterator[float]:
        import math

        rate = self.param("rate_per_s", 1.0)
        amplitude = self.param("amplitude", 0.8)
        period = self.param("period_s", 86400.0)
        phase = self.param("phase_s", 0.0)
        if rate <= 0 or period <= 0:
            raise ValueError("rate_per_s and period_s must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        peak = rate * (1.0 + amplitude)
        t = self.start_s
        emitted = 0
        while emitted < self.count:
            # Lewis thinning: candidate at the peak rate, then one
            # accept draw — both from the tenant stream, in a fixed
            # order, so the trace is a pure function of the seed.
            t += rng.expovariate(peak)
            accept = rng.random()
            current = rate * (
                1.0
                + amplitude
                * math.sin(2.0 * math.pi * (t - phase) / period)
            )
            if accept * peak < current:
                emitted += 1
                yield t

    def _flash(self, rng) -> Iterator[float]:
        at = self.param("at_s", self.start_s)
        duration = self.param("duration_s", 60.0)
        if duration <= 0:
            raise ValueError("duration_s must be positive")
        burst_rate = max(self.count, 1) / duration
        t = at
        for _ in range(self.count):
            t += rng.expovariate(burst_rate)
            yield t

    def _campaign(self, rng) -> Iterator[float]:
        gap = self.param("gap_s", 3600.0)
        size = int(self.param("size", 32))
        spacing = self.param("spacing_s", 5.0)
        if gap <= 0 or size <= 0 or spacing < 0:
            raise ValueError(
                "gap_s and size must be positive, spacing_s >= 0"
            )
        emitted = 0
        t = self.start_s
        while emitted < self.count:
            # Next campaign opens an exponential gap after the previous
            # one drains — keeps the per-tenant stream non-decreasing
            # (the merge contract) while staying bursty.
            start = t + rng.expovariate(1.0 / gap)
            jobs = min(size, self.count - emitted)
            for j in range(jobs):
                t = start + j * spacing
                yield t
                emitted += 1


def merge_arrivals(
    streams: Iterable[Iterator[Arrival]],
) -> Iterator[Arrival]:
    """Heap-merge lazy per-tenant streams into one ordered stream.

    Each input must be non-decreasing in time (every shipped process
    is); an :class:`Arrival` compares as its ``(time, tenant, seq)``
    prefix, so simultaneous arrivals across tenants have one canonical
    order — the same property
    :func:`repro.sim.shard.tracemerge.merge_traces` gives shard-tagged
    kernel traces.
    """
    return heapq.merge(*streams)


@dataclass(frozen=True)
class TraceSpec:
    """A multi-tenant workload: tenants merged into one lazy stream.

    Pure data, like :class:`~repro.faults.plan.FaultPlan`.  Tenant
    names must be unique — they key the RNG streams and the merge
    order.
    """

    tenants: Tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")

    def arrivals(self, hub: RngHub) -> Iterator[Arrival]:
        """The merged lazy stream (never materialized)."""
        return merge_arrivals(t.arrivals(hub) for t in self.tenants)

