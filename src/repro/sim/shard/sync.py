"""The conservative-sync rule and the site world both modes share.

Every *site* is its own :class:`~repro.sim.kernel.Environment` at any
shard count; a process — the caller's at one shard, a forked worker
otherwise — builds the sites of its shard as one :class:`SiteWorld`
and co-schedules them with a :class:`SiteGroup` under one causality
rule (classic Chandy–Misra–Bryant conservative synchronization): a
site may execute events *strictly below* its horizon

    ``min( limit,
           min over local in-links (src -> site) of
               next_time(src) + latency,
           min over remote in-channels of their promise )``

where a channel's *promise* is the sending shard's guarantee that no
future delivery will occur earlier.  Deliveries at time *t* execute
before local events at *t*, ordered among themselves by
``(deliver_time, src_site, channel seq)`` — so per-site trajectories,
and therefore merged-trace fingerprints, are identical for every
shard count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

from repro.sim.kernel import Environment
from repro.sim.network import BoundaryLink
from repro.sim.shard.plan import LinkSpec, ShardedTestbed, endpoint_ids
from repro.sim.shard.ring import RingOutbox, RouterOutbox, SiteInbox
from repro.sim.shard.scenarios import get_scenario
from repro.sim.shard.tracemerge import site_trace_fingerprint
from repro.sim.trace import Tracer

__all__ = [
    "SYNC_KEYS",
    "RunContext",
    "SiteRuntime",
    "next_time",
    "SiteGroup",
    "SiteWorld",
]

#: Keys of a shard result's ``sync`` block: what a forked worker's loop
#: did and where its wall time went.  All zero for an in-process run,
#: which has no loop.
SYNC_KEYS = (
    "turns",
    "event_turns",
    "nulls",
    "records",
    "advance_s",
    "flush_s",
    "select_s",
    "block_s",
)


@dataclass(frozen=True)
class RunContext:
    """What every process of one run agrees on, resolved once by
    :func:`~repro.sim.shard.runner.run_sharded` and inherited by fork."""

    plan: ShardedTestbed
    #: The scenario's resolved parameters.
    params: Dict[str, Any]
    specs: Tuple[LinkSpec, ...]
    until: Optional[float]
    collect: Optional[str]
    trace_capacity: Optional[int]

    @property
    def limit(self) -> float:
        # Events at exactly `until` must run (inclusive boundary, same
        # as Environment.run), so the strict execution limit is the
        # next representable float.
        if self.until is None:
            return math.inf
        return math.nextafter(self.until, math.inf)

    def channels(self) -> Dict[Tuple[int, int], float]:
        """Directed cross-shard channels -> minimum lookahead on each."""
        partition = self.plan.partition
        channels: Dict[Tuple[int, int], float] = {}
        for spec in self.specs:
            a, b = partition[spec.src], partition[spec.dst]
            if a == b:
                continue
            prev = channels.get((a, b))
            if prev is None or spec.latency_s < prev:
                channels[(a, b)] = spec.latency_s
        return channels


class SiteRuntime:
    """One site: its environment, inbox, handle and endpoint handlers."""

    __slots__ = ("env", "inbox", "handle", "handlers")

    def __init__(
        self,
        env: Environment,
        inbox: SiteInbox,
        handle,
        handlers: List,
    ):
        self.env = env
        self.inbox = inbox
        self.handle = handle
        self.handlers = handlers


def next_time(rt: SiteRuntime) -> float:
    """When this site would next execute something (``inf`` if idle)."""
    t = rt.env.peek()
    td = rt.inbox.peek_time()
    return td if td < t else t


class SiteGroup:
    """Co-schedules the sites living in one process.

    ``local_in[site]`` lists ``(src_site, latency)`` for boundary
    links whose endpoints are both in this group; ``remote_in[site]``
    lists the source *shards* of links arriving from other processes
    (their current promises are passed into :meth:`advance`).
    """

    __slots__ = ("runtimes", "local_in", "remote_in")

    def __init__(
        self,
        runtimes: Dict[int, SiteRuntime],
        local_in: Dict[int, List[Tuple[int, float]]],
        remote_in: Dict[int, List[int]],
    ):
        self.runtimes = runtimes
        self.local_in = local_in
        self.remote_in = remote_in

    def horizon(
        self, site: int, limit: float, promises: Dict[int, float]
    ) -> float:
        h = limit
        for src, latency in self.local_in.get(site, ()):
            bound = next_time(self.runtimes[src]) + latency
            if bound < h:
                h = bound
        for shard in self.remote_in.get(site, ()):
            p = promises[shard]
            if p < h:
                h = p
        return h

    def idle(self, limit: float) -> bool:
        """True when no site has anything to execute below ``limit``."""
        return all(
            next_time(rt) >= limit for rt in self.runtimes.values()
        )

    def advance(self, limit: float, promises: Dict[int, float]) -> bool:
        """Run sites until every one is blocked at its horizon.

        Repeatedly picks the site with the earliest pending work (tie:
        lowest site index) whose horizon lets it move, and advances it
        in one batch.  Returns True if anything was executed.  The
        pick order does not affect trajectories — sites only interact
        through inboxes, and inbox pops are gated by the horizon rule
        — it only affects batching.
        """
        progressed = False
        runtimes = self.runtimes
        while True:
            pending = sorted(
                (next_time(rt), site)
                for site, rt in runtimes.items()
            )
            moved = False
            for t, site in pending:
                if t >= limit:
                    break
                h = self.horizon(site, limit, promises)
                if t < h:
                    self._advance_site(runtimes[site], h)
                    moved = progressed = True
                    break
            if not moved:
                return progressed

    @staticmethod
    def _advance_site(rt: SiteRuntime, horizon: float) -> None:
        """Advance one site strictly below ``horizon``.

        Boundary deliveries at time *t* are handed to their endpoint
        handlers *before* local events at *t* run; deliveries at the
        horizon itself wait (another channel could still deliver at
        exactly that time with a lower ``(src, seq)`` rank).

        The batch stops at the first boundary *send*: ``horizon`` was
        derived from the peers' pre-send next event times, and a send
        can wake an idle peer into replying earlier than that bound —
        the group loop must recompute before this site runs further.
        (Without the fence, bursty workloads with long local gaps let
        a site overshoot and a reply lands in its past.)
        """
        env = rt.env
        inbox = rt.inbox
        handlers = rt.handlers
        emits = env.boundary_emits
        while True:
            td = inbox.peek_time()
            tn = env.peek()
            if td < horizon and td <= tn:
                env.advance_clock(td)
                for _, _, _, endpoint, payload in inbox.pop_at(td):
                    handlers[endpoint](payload)
            elif tn < horizon:
                env.run_below_fenced(td if td < horizon else horizon)
            else:
                return
            if env.boundary_emits != emits:
                return


class SiteWorld:
    """The sites of one shard: built models, links, inboxes, the group.

    ``ring`` is the shard's cross-process write side; a one-shard run
    has none, because every destination is local.
    """

    def __init__(
        self,
        ctx: RunContext,
        shard: int,
        ring: Optional[RingOutbox] = None,
    ):
        plan = ctx.plan
        eids = endpoint_ids(ctx.specs)
        self.ctx = ctx
        self.shard = shard
        self.scenario = scenario = get_scenario(plan.scenario)
        self.site_list = site_list = plan.shard_sites(shard)
        self.inboxes = {s: SiteInbox() for s in site_list}
        outbox = RouterOutbox(self.inboxes, ring, plan.partition, shard)
        local = set(site_list)
        n_handlers: Dict[int, int] = {}
        for (dst, _name), idx in eids.items():
            n_handlers[dst] = max(n_handlers.get(dst, 0), idx + 1)

        self.runtimes: Dict[int, SiteRuntime] = {}
        for site in site_list:
            env = Environment()
            if ctx.collect:
                env.tracer = Tracer(capacity=ctx.trace_capacity)
            handle = scenario.build_site(
                env, site, plan.sites, plan.seed, ctx.params
            )
            handlers: List = [None] * n_handlers.get(site, 0)
            for name, fn in scenario.endpoints(handle).items():
                key = (site, name)
                if key in eids:
                    handlers[eids[key]] = fn
            self.runtimes[site] = SiteRuntime(
                env, self.inboxes[site], handle, handlers
            )

        for (dst, name), idx in eids.items():
            if dst in local and self.runtimes[dst].handlers[idx] is None:
                raise ValueError(
                    f"site {dst} has an inbound {name!r} link but the "
                    f"scenario provides no such endpoint handler"
                )

        links_by_site: Dict[int, Dict[str, BoundaryLink]] = {
            site: {} for site in site_list
        }
        local_in: Dict[int, List[Tuple[int, float]]] = {}
        remote_in: Dict[int, set] = {}
        for spec in ctx.specs:
            if spec.src in local:
                links_by_site[spec.src][spec.name] = BoundaryLink(
                    self.runtimes[spec.src].env,
                    spec.name,
                    spec.bandwidth_mbps,
                    spec.latency_s,
                    spec.src,
                    spec.dst,
                    eids[(spec.dst, spec.endpoint)],
                    outbox,
                )
            if spec.dst in local:
                if spec.src in local:
                    local_in.setdefault(spec.dst, []).append(
                        (spec.src, spec.latency_s)
                    )
                else:
                    remote_in.setdefault(spec.dst, set()).add(
                        plan.partition[spec.src]
                    )
        for site in site_list:
            scenario.start(
                self.runtimes[site].handle, links_by_site[site]
            )
        self.group = SiteGroup(
            self.runtimes,
            local_in,
            {k: sorted(v) for k, v in remote_in.items()},
        )

    def result(self, wall_s: float, cpu_s: float) -> Dict[str, Any]:
        """This shard's entry of ``ShardRunResult.shard_results`` plus
        its ``site_results``, once simulation has stopped; ``wall_s``
        and ``cpu_s`` cover simulation only — model construction is
        excluded in every mode."""
        until = self.ctx.until
        collect = self.ctx.collect
        site_results = []
        for site, rt in self.runtimes.items():
            if until is not None:
                rt.env.advance_clock(until)
            out: Dict[str, Any] = {
                "site": site,
                "events": rt.env.executed_events,
                "now": rt.env.now,
                "stats": self.scenario.collect(rt.handle),
            }
            if collect:
                events = rt.env.tracer.events
                out["trace_len"] = len(events)
                out["trace_dropped"] = rt.env.tracer.dropped
                out["trace_fp"] = site_trace_fingerprint(events)
                if collect == "trace":
                    out["trace"] = events
            site_results.append(out)
        return {
            "shard": self.shard,
            "sites": list(self.site_list),
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "events": sum(r["events"] for r in site_results),
            "sent": {},
            "recv": {},
            "maxrss_kb": _maxrss_kb(),
            "sync": dict.fromkeys(SYNC_KEYS, 0),
            "site_results": site_results,
        }


def _maxrss_kb() -> int:
    """Peak RSS of this process in KiB (0 where unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
