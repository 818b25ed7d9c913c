"""Drive a :class:`~repro.faults.plan.FaultPlan` against a testbed.

One kernel process per scheduled fault: sleep until the fault time,
apply the fault, sleep the fault duration, apply the recovery.  All
state changes are synchronous method calls on the testbed's existing
components (plants, storage, links, gateway), so the injector itself
draws no randomness — replaying a recorded plan reproduces the exact
same injections at the exact same times.

Every event's target is validated when the injector is attached: an
unknown plant, link, site, or gateway raises
:class:`~repro.core.errors.ReproError` naming the target *before* the
simulation starts, instead of silently no-op'ing mid-run.

Overlapping faults on one target are skipped (counted in
``skipped``), so every applied fault has exactly one recovery.

Grid-scale kinds (see :mod:`repro.faults.plan`) need federation
context: pass ``links`` (boundary-link name → link) for
``wan-partition``/``wan-degrade`` and ``gateway``/``site`` for
``site-blackout``/``gateway-hang``.  Gateway hang/blackout state is a
pair of *absolute-time* attributes (``hang_until``/``down_until``)
that heal by clock comparison, so only the blackout needs an explicit
recovery action (reviving the crashed plants and warehouse).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.faults.plan import (
    GATEWAY_HANG,
    GUEST_HANG,
    HOST_CRASH,
    LINK_DEGRADE,
    SITE_BLACKOUT,
    WAN_DEGRADE,
    WAN_PARTITION,
    WAREHOUSE_OUTAGE,
    FaultEvent,
    FaultPlan,
)
from repro.sim.trace import trace

__all__ = ["FaultInjector"]

#: Kinds whose target is one of the testbed's shared links.
_SHARED_LINKS = ("internode", "nfs")


class FaultInjector:
    """Applies a fault plan to a built testbed."""

    def __init__(
        self,
        bed,
        plan: FaultPlan,
        *,
        links: Optional[Dict[str, Any]] = None,
        gateway: Optional[Any] = None,
        site: Optional[int] = None,
    ):
        self.bed = bed
        self.plan = plan
        self.env = bed.env
        self._plants = {p.name: p for p in bed.plants}
        #: WAN boundary links this shard owns, by name.
        self._links = dict(links or {})
        #: This site's federation gateway (grid kinds only).
        self._gateway = gateway
        self._site = site if site is not None else getattr(
            gateway, "site", None
        )
        #: Applied transitions: (time, phase, kind, target) with
        #: phase ``"inject"`` or ``"recover"`` — the chaos report's
        #: MTTR comes from pairing these.
        self.applied: List[Tuple[float, str, str, str]] = []
        self.skipped = 0
        #: Degraded link target → saved nominal bandwidths (None for
        #: a full partition, restored via resume()).
        self._nominal_bw: Dict[str, Optional[List[float]]] = {}
        #: Plants a live site-blackout crashed (revived on recovery),
        #: plus whether the blackout owns a warehouse outage.
        self._blackout_plants: List[Any] = []
        self._blackout_outage = False
        self._blackout_active = False
        self._started = False
        for event in self.plan:
            self._validate(event)

    def start(self) -> int:
        """Launch one driver process per scheduled fault."""
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        for event in self.plan:
            self.env.process(self._drive(event))
        return len(self.plan)

    # -- internals -----------------------------------------------------------
    def _validate(self, event: FaultEvent) -> None:
        """Attach-time target check: fail fast, name the target."""
        kind, target = event.kind, event.target
        if kind in (HOST_CRASH, GUEST_HANG):
            if target not in self._plants:
                raise ReproError(
                    f"fault plan targets unknown plant {target!r} "
                    f"({kind}); testbed has {sorted(self._plants)}"
                )
        elif kind == WAREHOUSE_OUTAGE:
            if target != "warehouse":
                raise ReproError(
                    f"fault plan targets unknown warehouse {target!r}; "
                    f"only 'warehouse' exists"
                )
        elif kind == LINK_DEGRADE:
            if target not in _SHARED_LINKS:
                raise ReproError(
                    f"fault plan targets unknown link {target!r} "
                    f"({kind}); shared links are {list(_SHARED_LINKS)}"
                )
        elif kind in (WAN_PARTITION, WAN_DEGRADE):
            if target not in self._links:
                raise ReproError(
                    f"fault plan targets unknown boundary link "
                    f"{target!r} ({kind}); this shard owns "
                    f"{sorted(self._links)}"
                )
        elif kind == SITE_BLACKOUT:
            if self._gateway is None or self._site is None:
                raise ReproError(
                    f"fault plan schedules {kind} for {target!r} but "
                    f"the injector has no federation gateway attached"
                )
            if target != f"site{self._site}":
                raise ReproError(
                    f"fault plan targets unknown site {target!r} "
                    f"({kind}); this shard is 'site{self._site}'"
                )
        elif kind == GATEWAY_HANG:
            if self._gateway is None:
                raise ReproError(
                    f"fault plan schedules {kind} for {target!r} but "
                    f"the injector has no federation gateway attached"
                )
            if target != self._gateway.name:
                raise ReproError(
                    f"fault plan targets unknown gateway {target!r} "
                    f"({kind}); this shard's gateway is "
                    f"{self._gateway.name!r}"
                )

    def _links_for(self, target: str) -> list:
        if target == "internode":
            return [self.bed.internode]
        nfs = self.bed.nfs
        replicas = getattr(nfs, "replicas", None)
        if replicas is not None:
            return [r.link for r in replicas]
        return [nfs.link]

    def _drive(self, event: FaultEvent) -> Generator:
        if event.at > self.env.now:
            yield event.at - self.env.now
        if not self._inject(event):
            self.skipped += 1
            return
        self.applied.append(
            (self.env.now, "inject", event.kind, event.target)
        )
        trace(
            self.env, "fault", "inject",
            kind=event.kind, target=event.target,
            duration=round(event.duration, 3),
        )
        yield event.duration
        self._recover(event)
        self.applied.append(
            (self.env.now, "recover", event.kind, event.target)
        )
        trace(
            self.env, "fault", "recover",
            kind=event.kind, target=event.target,
        )

    def _inject(self, event: FaultEvent) -> bool:
        """Apply a fault; False = skipped (target busy/overlapping)."""
        if event.kind == HOST_CRASH:
            plant = self._plants[event.target]
            if plant.down:
                return False
            plant.fail()
            return True
        if event.kind == WAREHOUSE_OUTAGE:
            return self.bed.nfs.begin_outage(event.mode)
        if event.kind in (LINK_DEGRADE, WAN_PARTITION, WAN_DEGRADE):
            if event.target in self._nominal_bw:
                return False
            if event.kind == LINK_DEGRADE:
                links = self._links_for(event.target)
            else:
                links = [self._links[event.target]]
            if event.severity <= 0:
                for link in links:
                    link.pause()
                self._nominal_bw[event.target] = None
            else:
                self._nominal_bw[event.target] = [
                    link.bandwidth_mbps for link in links
                ]
                for link in links:
                    link.set_bandwidth(
                        link.bandwidth_mbps * event.severity
                    )
            return True
        if event.kind == GUEST_HANG:
            plant = self._plants[event.target]
            if plant.down:
                return False
            for line in plant.lines.values():
                line.hang_until = max(line.hang_until, event.recover_at)
            return True
        if event.kind == SITE_BLACKOUT:
            if self._blackout_active:
                return False
            self._blackout_active = True
            self._blackout_plants = [
                p for p in self.bed.plants if not p.down
            ]
            for plant in self._blackout_plants:
                plant.fail()
            self._blackout_outage = self.bed.nfs.begin_outage(event.mode)
            self._gateway.down_until = max(
                self._gateway.down_until, event.recover_at
            )
            return True
        if event.kind == GATEWAY_HANG:
            if self._gateway.down_until > self.env.now:
                return False  # the whole site is dark already
            self._gateway.hang_until = max(
                self._gateway.hang_until, event.recover_at
            )
            return True
        return False  # pragma: no cover - plan validates kinds

    def _recover(self, event: FaultEvent) -> None:
        if event.kind == HOST_CRASH:
            self._plants[event.target].recover()
        elif event.kind == WAREHOUSE_OUTAGE:
            self.bed.nfs.end_outage()
        elif event.kind in (LINK_DEGRADE, WAN_PARTITION, WAN_DEGRADE):
            if event.kind == LINK_DEGRADE:
                links = self._links_for(event.target)
            else:
                links = [self._links[event.target]]
            saved = self._nominal_bw.pop(event.target)
            if saved is None:
                for link in links:
                    link.resume()
            else:
                for link, mbps in zip(links, saved):
                    link.set_bandwidth(mbps)
        elif event.kind == SITE_BLACKOUT:
            for plant in self._blackout_plants:
                if plant.down:
                    plant.recover()
            self._blackout_plants = []
            if self._blackout_outage:
                self.bed.nfs.end_outage()
                self._blackout_outage = False
            self._blackout_active = False
            # gateway.down_until heals by clock comparison.
        # GUEST_HANG / GATEWAY_HANG heal once hang_until passes.

    def mean_time_to_recover(self) -> Optional[float]:
        """Mean applied fault window (None when nothing was applied)."""
        opened: Dict[Tuple[str, str], float] = {}
        windows: List[float] = []
        for at, phase, kind, target in self.applied:
            if phase == "inject":
                opened[(kind, target)] = at
            else:
                start = opened.pop((kind, target), None)
                if start is not None:
                    windows.append(at - start)
        if not windows:
            return None
        return sum(windows) / len(windows)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector events={len(self.plan)}"
            f" applied={len(self.applied)} skipped={self.skipped}>"
        )
