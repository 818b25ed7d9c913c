"""Deterministic fault schedules.

A :class:`FaultPlan` is an explicit, fully materialized list of
:class:`FaultEvent` — every fault and its recovery time is fixed
*before* the simulation starts, so a plan is trivially replayable:
record it (``to_records``), ship the JSON anywhere, and re-run the
same schedule against any policy (``from_records``).

Plans come from three places:

* hand-written schedules (tests, targeted repros);
* :meth:`FaultPlan.exponential`, a seeded MTBF/MTTR renewal process
  drawn from dedicated ``fault/...`` streams of the simulation's
  :class:`~repro.sim.rng.RngHub` — independent of every workload
  stream by construction, so enabling faults never perturbs arrival
  or service draws;
* :func:`grid_fault_plan`, the federation-scale generator: one seed
  produces a single grid-wide schedule whose events are tagged with
  the site that applies them, and :meth:`FaultPlan.for_site` slices
  out each site's sub-plan.  Because the full plan is a pure function
  of ``(seed, sites, knobs)`` and the slicing is by tag, injection is
  bit-identical whether the sites run in 1 or N kernel shards.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.rng import RngHub

__all__ = [
    "HOST_CRASH",
    "WAREHOUSE_OUTAGE",
    "LINK_DEGRADE",
    "GUEST_HANG",
    "SITE_BLACKOUT",
    "WAN_PARTITION",
    "WAN_DEGRADE",
    "GATEWAY_HANG",
    "HANG_S",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "grid_fault_plan",
]

#: A plant's host dies: resident VMs are killed, memory released,
#: caches and pools invalidated, bids decline until recovery.
HOST_CRASH = "host-crash"
#: The warehouse/NFS path goes away: in-flight transfers abort
#: (``mode="abort"``) or freeze (``mode="stall"``) for the window.
WAREHOUSE_OUTAGE = "warehouse-outage"
#: A shared link runs at ``severity`` × nominal bandwidth for the
#: window (severity 0 = full partition: flows freeze).
LINK_DEGRADE = "link-degrade"
#: The guest configuration daemon hangs: actions stall until the
#: window passes.
GUEST_HANG = "guest-hang"
#: A whole site goes dark: every plant crashes, the warehouse path
#: drops, and the site gateway stops answering until recovery.
SITE_BLACKOUT = "site-blackout"
#: A WAN boundary link partitions: staged cross-site messages freeze
#: until the link heals (the lookahead still holds — delivery time is
#: stamped at stage time, after the pause ends).
WAN_PARTITION = "wan-partition"
#: A WAN boundary link runs at ``severity`` × nominal bandwidth.
WAN_DEGRADE = "wan-degrade"
#: A site gateway hangs: inbound spill-over creates stall until the
#: window passes (the WAN itself stays up).
GATEWAY_HANG = "gateway-hang"

#: Mean duration (s) of a generated guest or gateway hang.
HANG_S = 30.0

FAULT_KINDS = frozenset(
    {
        HOST_CRASH,
        WAREHOUSE_OUTAGE,
        LINK_DEGRADE,
        GUEST_HANG,
        SITE_BLACKOUT,
        WAN_PARTITION,
        WAN_DEGRADE,
        GATEWAY_HANG,
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: inject at ``at``, recover ``duration`` later."""

    at: float
    kind: str
    #: What the fault hits: a plant name (host-crash, guest-hang),
    #: ``"warehouse"``, a link name (``"nfs"`` / ``"internode"`` or a
    #: WAN boundary-link name), ``"site<k>"`` (site-blackout) or a
    #: gateway name (gateway-hang).
    target: str
    duration: float
    #: Link-degrade residual bandwidth fraction (0 = partition).
    severity: float = 0.0
    #: Warehouse-outage semantics: ``"abort"`` or ``"stall"``.
    mode: str = "stall"
    #: Grid plans tag each event with the site that applies it;
    #: ``None`` (the classic single-testbed plans) applies everywhere.
    site: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.duration <= 0:
            raise ValueError("fault duration must be positive")
        if not 0.0 <= self.severity < 1.0:
            raise ValueError("severity must be in [0, 1)")
        if self.mode not in ("abort", "stall"):
            raise ValueError(f"unknown outage mode {self.mode!r}")
        if self.kind == WAN_DEGRADE and self.severity <= 0.0:
            raise ValueError(
                "wan-degrade needs severity > 0; use wan-partition "
                "for a full cut"
            )

    @property
    def recover_at(self) -> float:
        """Absolute simulated time the fault heals."""
        return self.at + self.duration


def _renewals(
    hub: RngHub,
    horizon_s: float,
    mtbf_s: float,
    duration_mean: float,
    kind: str,
    target: str,
    **fields,
) -> List[FaultEvent]:
    """One target's MTBF renewal process over ``[0, horizon_s)``.

    Draws come from the target's own ``fault/<kind>/<target>`` stream:
    an up-time (mean ``mtbf_s``), then a repair (mean ``duration_mean``,
    floored at one second so every fault has a recovery), alternating.
    ``fields`` (``severity``, ``mode``, ``site``) go onto every event.
    """
    stream = f"fault/{kind}/{target}"
    events: List[FaultEvent] = []
    t = hub.expovariate(stream, 1.0 / mtbf_s)
    while t < horizon_s:
        duration = max(1.0, hub.expovariate(stream, 1.0 / duration_mean))
        events.append(
            FaultEvent(
                at=t, kind=kind, target=target, duration=duration, **fields
            )
        )
        t += duration + hub.expovariate(stream, 1.0 / mtbf_s)
    return events


class FaultPlan:
    """An ordered, replayable schedule of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: List[FaultEvent] = sorted(
            events,
            key=lambda e: (
                e.at,
                e.kind,
                e.target,
                -1 if e.site is None else e.site,
            ),
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- recording / replay --------------------------------------------------
    def to_records(self) -> List[dict]:
        """JSON-ready records (``from_records`` round-trips them)."""
        records = []
        for e in self.events:
            record = {
                "at": e.at,
                "kind": e.kind,
                "target": e.target,
                "duration": e.duration,
                "severity": e.severity,
                "mode": e.mode,
            }
            if e.site is not None:
                record["site"] = e.site
            records.append(record)
        return records

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "FaultPlan":
        """Rebuild a recorded plan (replay path)."""
        return cls(FaultEvent(**record) for record in records)

    def signature(self) -> str:
        """Content hash of the schedule (replay verification)."""
        payload = json.dumps(self.to_records(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def for_site(self, site: int) -> "FaultPlan":
        """Slice out one site's sub-plan from a grid-wide schedule.

        Untagged events (``site is None``) apply everywhere, so they
        appear in every site's slice — matching how a classic
        single-testbed plan behaves when replayed against a shard.
        """
        return FaultPlan(
            e for e in self.events if e.site is None or e.site == site
        )

    # -- generation ----------------------------------------------------------
    @classmethod
    def exponential(
        cls,
        hub: RngHub,
        horizon_s: float,
        *,
        crash_targets: Sequence[str] = (),
        mtbf_s: float = 600.0,
        mttr_s: float = 120.0,
        warehouse: bool = False,
        hang_targets: Sequence[str] = (),
    ) -> "FaultPlan":
        """Seeded MTBF/MTTR renewal schedule over ``[0, horizon_s)``.

        Each target gets its own ``fault/<kind>/<target>`` stream, so
        the schedule for one target is independent of every other —
        and of the workload.  Repairs are drawn with mean ``mttr_s``
        (floored at one second so every fault has a recovery); a hang
        lasts :data:`HANG_S` on average.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")
        events: List[FaultEvent] = []
        for target in crash_targets:
            events += _renewals(
                hub, horizon_s, mtbf_s, mttr_s, HOST_CRASH, target
            )
        if warehouse:
            events += _renewals(
                hub, horizon_s, mtbf_s, mttr_s, WAREHOUSE_OUTAGE, "warehouse"
            )
        for target in hang_targets:
            events += _renewals(
                hub, horizon_s, mtbf_s, HANG_S, GUEST_HANG, target
            )
        return cls(events)


def grid_fault_plan(
    seed: int,
    sites: int,
    horizon_s: float,
    *,
    plants_per_site: int = 8,
    crash_plants_per_site: int = 0,
    mtbf_s: float = 600.0,
    mttr_s: float = 120.0,
    blackout_sites: Sequence[int] = (),
    blackout_at: Optional[float] = None,
    blackout_s: float = 120.0,
    gateway_hang_sites: Sequence[int] = (),
    wan_links: Sequence[Tuple[str, int]] = (),
    wan_severity: float = 0.0,
    wan_at: Optional[float] = None,
    wan_s: float = 60.0,
) -> FaultPlan:
    """One deterministic grid-wide fault schedule, tagged by site.

    The whole plan is a pure function of ``(seed, sites, knobs)``:
    every target gets its own ``fault/<kind>/<target>`` stream of a
    single :class:`~repro.sim.rng.RngHub`, with targets named by site
    (``site<k>-plant<i>``, ``site<k>``, ``site<k>-gateway``).  Because
    streams are keyed by name — never by draw order — the schedule
    does not depend on how many shards later run it; each shard slices
    its events with :meth:`FaultPlan.for_site`.

    ``blackout_at`` / ``wan_at`` pin a single fixed-time event per
    target (the graceful-degradation experiments want one controlled
    blackout, not a renewal storm); when ``None``, those kinds run the
    same MTBF/MTTR renewal process as host crashes.

    ``wan_links`` is a sequence of ``(link_name, owner_site)`` pairs:
    the named :class:`~repro.sim.shard.BoundaryLink` is paused
    (``wan_severity == 0``) or throttled by the shard that owns its
    sending side.
    """
    if sites <= 0:
        raise ValueError("sites must be positive")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if crash_plants_per_site > plants_per_site:
        raise ValueError("crash_plants_per_site exceeds plants_per_site")
    for k in tuple(blackout_sites) + tuple(gateway_hang_sites):
        if not 0 <= k < sites:
            raise ValueError(f"site index {k} out of range for {sites} sites")
    for _, owner in wan_links:
        if not 0 <= owner < sites:
            raise ValueError(
                f"wan link owner site {owner} out of range for {sites} sites"
            )

    hub = RngHub(seed)
    events: List[FaultEvent] = []
    for k in range(sites):
        for i in range(crash_plants_per_site):
            events += _renewals(
                hub, horizon_s, mtbf_s, mttr_s, HOST_CRASH,
                f"site{k}-plant{i}", site=k,
            )
    for k in blackout_sites:
        if blackout_at is None:
            events += _renewals(
                hub, horizon_s, mtbf_s, blackout_s, SITE_BLACKOUT,
                f"site{k}", site=k,
            )
        else:
            events.append(
                FaultEvent(
                    blackout_at, SITE_BLACKOUT, f"site{k}", blackout_s,
                    site=k,
                )
            )
    for k in gateway_hang_sites:
        events += _renewals(
            hub, horizon_s, mtbf_s, HANG_S, GATEWAY_HANG,
            f"site{k}-gateway", site=k,
        )
    wan_kind = WAN_PARTITION if wan_severity <= 0.0 else WAN_DEGRADE
    wan_sev = 0.0 if wan_severity <= 0.0 else wan_severity
    for link_name, owner in wan_links:
        fields = dict(severity=wan_sev, site=owner)
        if wan_at is None:
            events += _renewals(
                hub, horizon_s, mtbf_s, wan_s, wan_kind, link_name, **fields
            )
        else:
            events.append(
                FaultEvent(wan_at, wan_kind, link_name, wan_s, **fields)
            )
    return FaultPlan(events)
