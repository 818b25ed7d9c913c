"""The window loop and the site world both modes share.

Every *site* is its own :class:`~repro.sim.kernel.Environment` at any
shard count; a process — the caller's at one shard, a forked worker
otherwise — builds the sites of its shard as one :class:`SiteWorld`
and runs them in lookahead windows (YAWNS; Nicol, JACM 40(2), 1993).
Each round, ``T`` is the global minimum next time over every site's
event heap and inbox, and every site runs its deliveries and events
strictly below

    ``min(T + L, limit)``

where ``L`` is the minimum boundary-link latency.  A message sent
inside the window is sent at or after ``T``, so it is due at or after
the window's end: within a window no site hears from another.  The
run ends when ``T`` reaches the limit (``inf`` without ``until``).

Deliveries at time *t* execute before local events at *t*, ordered
among themselves by ``(deliver_time, src_site, channel seq)`` — so
per-site trajectories, and therefore merged-trace fingerprints, are
identical for every shard count, and so is the window count.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

from repro.sim.kernel import Environment
from repro.sim.network import BoundaryLink
from repro.sim.shard.plan import LinkSpec, ShardedTestbed, endpoint_ids
from repro.sim.shard.ring import RingOutbox, RouterOutbox, SiteInbox, SyncError
from repro.sim.shard.scenarios import get_scenario
from repro.sim.shard.tracemerge import site_trace_fingerprint
from repro.sim.trace import Tracer

__all__ = ["SYNC_KEYS", "RunContext", "SiteRuntime", "SiteWorld"]

#: Keys of a shard result's ``sync`` block: windows run, records
#: shipped to other shards, and where the loop's wall time went —
#: running windows, shipping and collecting records, waiting at the
#: barrier for the next window.  In process only the first and third
#: can be non-zero.
SYNC_KEYS = ("windows", "records", "simulate_s", "exchange_s", "wait_s")


class RunContext(NamedTuple):
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


class SiteRuntime(NamedTuple):
    """One site: its environment, inbox, handle and endpoint handlers."""

    env: Environment
    inbox: SiteInbox
    handle: Any
    handlers: List


class SiteWorld:
    """The sites of one shard: built models, links, inboxes, the loop.

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
        self.ring = ring
        self.scenario = scenario = get_scenario(plan.scenario)
        self.site_list = site_list = plan.shard_sites(shard)
        self.inboxes = {s: SiteInbox() for s in site_list}
        self.outbox = outbox = RouterOutbox(
            self.inboxes, ring, plan.partition, shard
        )
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
        for site in site_list:
            scenario.start(
                self.runtimes[site].handle, links_by_site[site]
            )
        self.windows = 0
        self.simulate_s = self.exchange_s = self.wait_s = 0.0

    @property
    def records(self) -> int:
        return sum(self.ring.sent.values()) if self.ring else 0

    def next_time(self) -> float:
        """When any site of this shard next executes something."""
        t = math.inf
        for rt in self.runtimes.values():
            t = min(t, rt.env.peek(), rt.inbox.peek_time())
        return t

    def run_window(self, end: float) -> float:
        """Run every site's deliveries and events strictly below
        ``end``; this shard's next time.

        A site's deliveries at time *t* go to their endpoint handlers
        before its local events at *t* run.  The next time is the
        earliest pending event or delivery of any site, or of a record
        staged in the window: a site already run may have been sent a
        record since, and a peer shard may be due one.
        """
        outbox = self.outbox
        outbox.window_end = end
        outbox.earliest = nxt = math.inf
        for site, rt in self.runtimes.items():
            env = rt.env
            inbox = rt.inbox
            t = env.peek()
            td = inbox.peek_time()
            if td < end or t < end:
                while td < end:
                    env.run_below(td)
                    env.advance_clock(td)
                    for _, _, _, endpoint, payload in inbox.pop_at(td):
                        rt.handlers[endpoint](payload)
                    td = inbox.peek_time()
                t = env.run_below(end)
                # A record delivered in the window that sent it is due
                # at or after its end, and so would leave the clock there.
                if env.now >= end:
                    raise SyncError(
                        f"site {site} ran to {env.now}, not below the end "
                        f"of its window at {end}"
                    )
            if td < t:
                t = td
            if t < nxt:
                nxt = t
        staged = outbox.earliest
        return staged if staged < nxt else nxt

    def run(self, barrier: Optional[Callable[[float], float]] = None) -> None:
        """The window loop, in process and in every forked worker.

        ``barrier`` turns this shard's next time into the global ``T``
        (a forked worker's exchange with its peers); in process the
        shard's own next time is ``T``.
        """
        limit = self.ctx.limit
        # L; with no link the one window runs to the limit.
        lookahead = min(
            (spec.latency_s for spec in self.ctx.specs), default=math.inf
        )
        t = self.next_time()
        while True:
            if barrier is not None:
                t = barrier(t)
            if t >= limit:
                return
            end = min(t + lookahead, limit)
            t0 = time.perf_counter()
            t = self.run_window(end)
            self.simulate_s += time.perf_counter() - t0
            self.windows += 1

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
            "sent": dict(self.ring.sent) if self.ring else {},
            "recv": {},
            "maxrss_kb": _maxrss_kb(),
            "sync": {key: getattr(self, key) for key in SYNC_KEYS},
            "site_results": site_results,
        }


def _maxrss_kb() -> int:
    """Peak RSS of this process in KiB (0 where unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
