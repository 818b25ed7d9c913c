"""Sharded kernel execution: conservative (null-message) PDES.

The runner executes a :class:`~repro.sim.shard.plan.ShardedTestbed`
plan.  Every *site* is its own :class:`~repro.sim.kernel.Environment`
in **all** modes; what varies with the shard count is only process
placement:

* ``shards == 1`` — all site environments are co-scheduled in this
  process (no fork, no pipes); boundary messages go through an
  in-process :class:`~repro.sim.shard.ring.LocalOutbox`.
* ``shards > 1`` — sites are packed into forked worker processes;
  cross-shard messages travel over batched struct-packed event rings
  and channels carry null-message lookahead promises.

Both modes enforce one causality rule (classic Chandy–Misra–Bryant
conservative synchronization): a site may execute events *strictly
below* its horizon

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

Termination is parent-coordinated: the coordinator probes workers,
each of which drains its in-rings before replying with an idle flag
and per-channel sent/received message counts; two consecutive
identical all-idle, count-matched rounds prove no event or message
remains in flight.  A worker crash (exception or hard exit) aborts
the whole run with :class:`ShardWorkerError` instead of hanging.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import multiprocessing.connection as mpconn
import os
import select
import selectors
import time
import traceback

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.profiling import maybe_profile
from repro.sim.kernel import Environment
from repro.sim.network import BoundaryLink
from repro.sim.shard.plan import (
    LinkSpec,
    ShardedTestbed,
    endpoint_ids,
    validate_link_specs,
)
from repro.sim.shard.ring import (
    LocalOutbox,
    RingOutbox,
    RingReader,
    RouterOutbox,
    SiteInbox,
)
from repro.sim.shard.scenarios import ShardScenario, get_scenario
from repro.sim.shard.tracemerge import (
    merge_traces,
    merged_fingerprint,
    site_trace_fingerprint,
)

__all__ = ["ShardRunResult", "ShardWorkerError", "run_sharded"]

_INF = float("inf")


def _maxrss_kb() -> int:
    """Peak RSS of this process in KiB (0 where unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class ShardWorkerError(RuntimeError):
    """A shard worker crashed or disappeared; the run was aborted."""


# ---------------------------------------------------------------------------
# Site co-scheduling under the conservative-sync rule
# ---------------------------------------------------------------------------


class SiteRuntime:
    """One site: its environment, inbox, handle and endpoint handlers."""

    __slots__ = ("site", "env", "inbox", "handle", "handlers")

    def __init__(
        self,
        site: int,
        env: Environment,
        inbox: SiteInbox,
        handle,
        handlers: List,
    ):
        self.site = site
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

    __slots__ = ("runtimes", "order", "local_in", "remote_in")

    def __init__(
        self,
        runtimes: Dict[int, SiteRuntime],
        local_in: Dict[int, List[Tuple[int, float]]],
        remote_in: Dict[int, List[int]],
    ):
        self.runtimes = runtimes
        self.order = sorted(runtimes)
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


# ---------------------------------------------------------------------------
# Building the per-process slice of a plan
# ---------------------------------------------------------------------------


class _SiteWorld:
    """The sites of one process: built models, links, and the group."""

    def __init__(
        self,
        plan: ShardedTestbed,
        scenario: ShardScenario,
        params: Dict[str, Any],
        specs: Sequence[LinkSpec],
        eids: Dict[Tuple[int, str], int],
        site_list: Sequence[int],
        collect: Optional[str],
        outbox,
        inboxes: Dict[int, SiteInbox],
        trace_capacity: Optional[int] = None,
    ):
        self.scenario = scenario
        self.collect = collect
        local = set(site_list)
        n_handlers: Dict[int, int] = {}
        for (dst, _name), idx in eids.items():
            n_handlers[dst] = max(n_handlers.get(dst, 0), idx + 1)

        self.runtimes: Dict[int, SiteRuntime] = {}
        for site in sorted(site_list):
            env = Environment()
            if collect:
                from repro.sim.trace import Tracer

                env.tracer = Tracer(capacity=trace_capacity)
            handle = scenario.build_site(
                env, site, plan.sites, plan.seed, params
            )
            handlers: List = [None] * n_handlers.get(site, 0)
            for name, fn in scenario.endpoints(handle).items():
                key = (site, name)
                if key in eids:
                    handlers[eids[key]] = fn
            self.runtimes[site] = SiteRuntime(
                site, env, inboxes[site], handle, handlers
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
        for spec in specs:
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
        for site in sorted(site_list):
            scenario.start(
                self.runtimes[site].handle, links_by_site[site]
            )
        self.group = SiteGroup(
            self.runtimes,
            local_in,
            {k: sorted(v) for k, v in remote_in.items()},
        )

    def site_result(self, site: int) -> Dict[str, Any]:
        rt = self.runtimes[site]
        out: Dict[str, Any] = {
            "site": site,
            "events": rt.env.executed_events,
            "now": rt.env.now,
            "stats": self.scenario.collect(rt.handle),
        }
        if self.collect:
            events = rt.env.tracer.events
            out["trace_len"] = len(events)
            out["trace_dropped"] = rt.env.tracer.dropped
            out["trace_fp"] = site_trace_fingerprint(events)
            if self.collect == "trace":
                out["trace"] = events
        return out


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class ShardRunResult:
    """Outcome of one sharded run (any shard count)."""

    sites: int
    shards: int
    partition: Tuple[int, ...]
    scenario: str
    params: Dict[str, Any]
    until: Optional[float]
    collect: Optional[str]
    #: Coordinator wall-clock for the whole run (build + sim + sync).
    wall_s: float
    #: Per-site outcomes, in site order.
    site_results: List[Dict[str, Any]]
    #: Per-worker outcomes, in shard order.
    shard_results: List[Dict[str, Any]]

    @property
    def total_events(self) -> int:
        """Kernel events executed, summed over all sites."""
        return sum(r["events"] for r in self.site_results)

    @property
    def wall_events_per_sec(self) -> float:
        """Events per second of coordinator wall-clock."""
        return self.total_events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def agg_events_per_sec(self) -> float:
        """Aggregate throughput: sum over shards of events / CPU-time.

        On a machine with at least ``shards`` free cores this
        coincides with wall-clock events/sec; on smaller machines it
        measures what the sharded kernel *delivers per core* — i.e.
        parallel efficiency net of synchronization overhead — which
        is the comparable number across environments.
        """
        total = 0.0
        for s in self.shard_results:
            if s["cpu_s"] > 0:
                total += s["events"] / s["cpu_s"]
        return total

    def agg_per_cpu_sec(self, stat: str) -> float:
        """Sum over shards of (its sites' ``stat`` / its CPU-seconds):
        the :attr:`agg_events_per_sec` aggregation for a scenario
        counter (creates, bids, completed requests)."""
        count = {
            r["site"]: r["stats"].get(stat, 0) for r in self.site_results
        }
        total = 0.0
        for s in self.shard_results:
            if s["cpu_s"] > 0:
                total += sum(count[site] for site in s["sites"]) / s["cpu_s"]
        return total

    @property
    def trace_dropped(self) -> int:
        """Trace events dropped by bounded tracers, over all sites.

        Non-zero only when the run was collected with a finite
        ``trace_capacity``; per-site trajectories are unaffected, so
        fingerprints still agree across shard counts as long as every
        run uses the *same* capacity — but a non-zero count means the
        retained window (and hence the fingerprint) covers only the
        tail of the run, which reports must say out loud.
        """
        return sum(
            int(r.get("trace_dropped", 0)) for r in self.site_results
        )

    @property
    def peak_rss_kb(self) -> int:
        """Largest per-process peak RSS across shard workers (KiB)."""
        return max(
            (int(s.get("maxrss_kb", 0)) for s in self.shard_results),
            default=0,
        )

    def fingerprint(self) -> str:
        """Merged-trace fingerprint (requires trace collection)."""
        if self.collect not in ("trace", "fingerprint"):
            raise ValueError(
                "run was executed without trace collection"
            )
        return merged_fingerprint(
            [r["trace_fp"] for r in self.site_results]
        )

    def merged_trace(self):
        """Shard-tagged merged timeline (requires ``collect='trace'``)."""
        if self.collect != "trace":
            raise ValueError("run was executed with collect!='trace'")
        return merge_traces(
            {r["site"]: r["trace"] for r in self.site_results}
        )

    def combined_stats(self) -> Dict[str, float]:
        """Scenario stats summed across sites (numeric fields only)."""
        total: Dict[str, float] = {}
        for r in self.site_results:
            for k, v in r["stats"].items():
                if isinstance(v, (int, float)):
                    total[k] = total.get(k, 0) + v
        return total

    def leaks(self) -> Dict[str, float]:
        """The grid-scope leak audit: every site's ``leak_<dimension>``
        stat summed, keyed by dimension; all zero when clean."""
        return {
            k[len("leak_"):]: v
            for k, v in self.combined_stats().items()
            if k.startswith("leak_")
        }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_sharded(
    plan: ShardedTestbed,
    scenario: Optional[str] = None,
    params: Optional[Dict[str, Any]] = None,
    until: Optional[float] = None,
    collect: Optional[str] = "fingerprint",
    profile_dir: Optional[str] = None,
    deadline_s: Optional[float] = None,
    trace_capacity: Optional[int] = None,
) -> ShardRunResult:
    """Execute a sharding plan; see :class:`ShardRunResult`.

    ``trace_capacity`` bounds each site's tracer to a ring buffer of
    that many events (``None`` — the default every existing caller
    and golden trajectory uses — keeps every event).  Dropped counts
    surface via :attr:`ShardRunResult.trace_dropped`.
    """
    if collect not in (None, "trace", "fingerprint"):
        raise ValueError(
            f"collect must be None, 'trace' or 'fingerprint': {collect!r}"
        )
    if trace_capacity is not None and trace_capacity <= 0:
        raise ValueError("trace_capacity must be positive")
    if until is not None:
        until = float(until)
        if until < 0:
            raise ValueError("until must be non-negative")
    name = scenario or plan.scenario
    sc = get_scenario(name)
    merged = dict(plan.params)
    merged.update(params or {})
    prm = sc.resolve(merged)
    specs = sc.link_specs(plan.sites, prm)
    validate_link_specs(specs, plan.sites)
    eids = endpoint_ids(specs)

    if plan.shards == 1:
        result = _run_inprocess(
            plan,
            sc,
            name,
            prm,
            specs,
            eids,
            until,
            collect,
            profile_dir,
            trace_capacity,
        )
    else:
        result = _run_forked(
            plan,
            name,
            prm,
            specs,
            eids,
            until,
            collect,
            profile_dir,
            deadline_s,
            trace_capacity,
        )
    return result


def _limit_for(until: Optional[float]) -> float:
    # Events at exactly `until` must run (inclusive boundary, same as
    # Environment.run), so the strict execution limit is the next
    # representable float.
    return _INF if until is None else math.nextafter(until, _INF)


def _run_inprocess(
    plan: ShardedTestbed,
    sc: ShardScenario,
    name: str,
    prm: Dict[str, Any],
    specs: Sequence[LinkSpec],
    eids: Dict[Tuple[int, str], int],
    until: Optional[float],
    collect: Optional[str],
    profile_dir: Optional[str],
    trace_capacity: Optional[int] = None,
) -> ShardRunResult:
    wall0 = time.perf_counter()
    site_list = list(range(plan.sites))
    inboxes = {s: SiteInbox() for s in site_list}
    outbox = LocalOutbox(inboxes)
    world = _SiteWorld(
        plan,
        sc,
        prm,
        specs,
        eids,
        site_list,
        collect,
        outbox,
        inboxes,
        trace_capacity,
    )
    limit = _limit_for(until)
    path = (
        os.path.join(profile_dir, "profile_shard0.pstats")
        if profile_dir
        else None
    )
    # Like the forked workers, the measured window covers simulation
    # only — model construction is excluded in every mode.
    sim_wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with maybe_profile(path):
        world.group.advance(limit, {})
    if until is not None:
        for rt in world.runtimes.values():
            rt.env.advance_clock(until)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    sim_wall = time.perf_counter() - sim_wall0
    site_results = [world.site_result(s) for s in site_list]
    shard_results = [
        {
            "shard": 0,
            "sites": site_list,
            "wall_s": sim_wall,
            "cpu_s": cpu,
            "events": sum(r["events"] for r in site_results),
            "sent": {},
            "recv": {},
            "maxrss_kb": _maxrss_kb(),
        }
    ]
    return ShardRunResult(
        sites=plan.sites,
        shards=1,
        partition=tuple(plan.partition),
        scenario=name,
        params=prm,
        until=until,
        collect=collect,
        wall_s=wall,
        site_results=site_results,
        shard_results=shard_results,
    )


# ---------------------------------------------------------------------------
# Forked multi-shard execution
# ---------------------------------------------------------------------------


def _cross_channels(
    specs: Sequence[LinkSpec], partition: Tuple[int, ...]
) -> Dict[Tuple[int, int], float]:
    """Directed cross-shard channels -> minimum lookahead on each."""
    channels: Dict[Tuple[int, int], float] = {}
    for spec in specs:
        a, b = partition[spec.src], partition[spec.dst]
        if a == b:
            continue
        prev = channels.get((a, b))
        if prev is None or spec.latency_s < prev:
            channels[(a, b)] = spec.latency_s
    return channels


def _run_forked(
    plan: ShardedTestbed,
    name: str,
    prm: Dict[str, Any],
    specs: Sequence[LinkSpec],
    eids: Dict[Tuple[int, str], int],
    until: Optional[float],
    collect: Optional[str],
    profile_dir: Optional[str],
    deadline_s: Optional[float],
    trace_capacity: Optional[int] = None,
) -> ShardRunResult:
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        raise NotImplementedError(
            "sharded execution requires the fork start method"
        )
    wall0 = time.perf_counter()
    # Collect before forking so garbage isn't duplicated into every
    # child; each worker then freezes the inherited heap (see
    # _worker_main) so its GC never traverses — and so never
    # copy-on-writes — objects it can't free anyway.
    gc.collect()
    channels = _cross_channels(specs, tuple(plan.partition))
    pipes = {pair: os.pipe() for pair in sorted(channels)}
    conn_pairs = [ctx.Pipe() for _ in range(plan.shards)]
    parent_conns = [p for p, _ in conn_pairs]
    child_conns = [c for _, c in conn_pairs]

    procs = []
    for shard in range(plan.shards):
        p = ctx.Process(
            target=_worker_main,
            args=(
                shard,
                plan,
                name,
                prm,
                specs,
                eids,
                until,
                collect,
                profile_dir,
                channels,
                pipes,
                parent_conns,
                child_conns,
                trace_capacity,
            ),
            daemon=True,
        )
        p.start()
        procs.append(p)
    # The parent takes no part in the rings: close its copies so a
    # dead worker's channels actually reach EOF at the readers.
    for rfd, wfd in pipes.values():
        os.close(rfd)
        os.close(wfd)
    for c in child_conns:
        c.close()

    deadline = (
        time.monotonic() + deadline_s if deadline_s is not None else None
    )
    results: Dict[int, Dict[str, Any]] = {}
    conn_of = {c: i for i, c in enumerate(parent_conns)}
    sentinel_of = {p.sentinel: i for i, p in enumerate(procs)}

    def abort(message: str) -> None:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5)
        raise ShardWorkerError(message)

    # One crash usually produces a cascade: the dying worker reports
    # its exception, then peers observe its closed rings and report
    # BrokenShardError.  Collect reports for a short grace window and
    # surface the root cause, not whichever arrived first.
    errors: Dict[int, Tuple[str, str]] = {}
    error_grace: Optional[float] = None

    def fail_with_errors() -> None:
        ordered = sorted(errors.items())
        primary = [
            (s, r, tb)
            for s, (r, tb) in ordered
            if "BrokenShardError" not in r
        ] or [(s, r, tb) for s, (r, tb) in ordered]
        s, r, tb = primary[0]
        abort(f"shard {s} worker failed: {r}\n{tb}")

    def send_all(msg: tuple) -> None:
        for c in parent_conns:
            try:
                c.send(msg)
            except (BrokenPipeError, OSError):
                pass  # death surfaces via the sentinel

    round_id = 0
    replies: Dict[int, tuple] = {}
    prev_snapshot = None
    stopping = False
    send_all(("probe", round_id))

    try:
        while len(results) < plan.shards:
            ready = mpconn.wait(
                list(parent_conns) + list(sentinel_of), timeout=0.5
            )
            if deadline is not None and time.monotonic() > deadline:
                abort(
                    f"sharded run exceeded deadline of {deadline_s}s"
                )
            if error_grace is not None and time.monotonic() > error_grace:
                fail_with_errors()
            for obj in ready:
                if obj in conn_of:
                    shard = conn_of[obj]
                    try:
                        while obj.poll():
                            msg = obj.recv()
                            kind = msg[0]
                            if kind == "probe_reply":
                                if msg[1] == round_id:
                                    replies[shard] = msg[2:]
                            elif kind == "result":
                                results[msg[1]] = msg[2]
                            elif kind == "error":
                                errors[msg[1]] = (msg[2], msg[3])
                                if error_grace is None:
                                    error_grace = time.monotonic() + 0.25
                    except (EOFError, OSError):
                        if shard not in results and not errors:
                            abort(
                                f"shard {shard} control channel closed "
                                f"unexpectedly"
                            )
                else:
                    shard = sentinel_of[obj]
                    if shard not in results and not errors:
                        abort(
                            f"shard {shard} worker died without a result "
                            f"(exit code {procs[shard].exitcode})"
                        )
            if not stopping and len(replies) == plan.shards:
                stopping = _evaluate_probe(
                    replies, channels, prev_snapshot
                )
                if stopping:
                    send_all(("stop",))
                else:
                    all_idle = all(r[0] for r in replies.values())
                    matched = _counts_match(replies, channels)
                    prev_snapshot = (
                        _snapshot(replies)
                        if (all_idle and matched)
                        else None
                    )
                    round_id += 1
                    replies = {}
                    time.sleep(0.02)
                    send_all(("probe", round_id))
        send_all(("exit",))
        for p in procs:
            p.join(timeout=10)
    except ShardWorkerError:
        raise
    except BaseException:
        for p in procs:
            if p.is_alive():
                p.terminate()
        raise

    wall = time.perf_counter() - wall0
    site_results = sorted(
        (
            sr
            for payload in results.values()
            for sr in payload["site_results"]
        ),
        key=lambda r: r["site"],
    )
    shard_results = [
        {
            k: v
            for k, v in results[shard].items()
            if k != "site_results"
        }
        for shard in range(plan.shards)
    ]
    return ShardRunResult(
        sites=plan.sites,
        shards=plan.shards,
        partition=tuple(plan.partition),
        scenario=name,
        params=prm,
        until=until,
        collect=collect,
        wall_s=wall,
        site_results=site_results,
        shard_results=shard_results,
    )


def _snapshot(replies: Dict[int, tuple]):
    return tuple(
        (shard, idle, tuple(sorted(sent.items())), tuple(sorted(recv.items())))
        for shard, (idle, sent, recv) in sorted(replies.items())
    )


def _counts_match(
    replies: Dict[int, tuple],
    channels: Dict[Tuple[int, int], float],
) -> bool:
    for (a, b) in channels:
        sent = replies[a][1].get(b, 0)
        recv = replies[b][2].get(a, 0)
        if sent != recv:
            return False
    return True


def _evaluate_probe(
    replies: Dict[int, tuple],
    channels: Dict[Tuple[int, int], float],
    prev_snapshot,
) -> bool:
    """Terminate after two consecutive identical clean rounds.

    A clean round: every worker idle and every channel's sent count
    equal to the peer's received count.  Workers drain their in-rings
    before replying, so two identical clean rounds imply nothing is
    in flight anywhere.
    """
    if not all(r[0] for r in replies.values()):
        return False
    if not _counts_match(replies, channels):
        return False
    return prev_snapshot is not None and _snapshot(replies) == prev_snapshot


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(
    shard: int,
    plan: ShardedTestbed,
    name: str,
    prm: Dict[str, Any],
    specs: Sequence[LinkSpec],
    eids: Dict[Tuple[int, str], int],
    until: Optional[float],
    collect: Optional[str],
    profile_dir: Optional[str],
    channels: Dict[Tuple[int, int], float],
    pipes: Dict[Tuple[int, int], Tuple[int, int]],
    parent_conns,
    child_conns,
    trace_capacity: Optional[int] = None,
) -> None:
    # Move the inherited heap to the permanent generation: a worker
    # can never free its parent's objects, but collecting them would
    # fault copy-on-write pages and bill heap-proportional CPU to
    # whichever shard GC happens to fire in — noise that scales with
    # the *parent's* import surface, not the shard's workload.
    gc.freeze()
    conn = child_conns[shard]
    # Drop every inherited descriptor that is not ours, so peer EOFs
    # are observable and a dead worker cannot be masked by our copies.
    for c in parent_conns:
        c.close()
    for i, c in enumerate(child_conns):
        if i != shard:
            c.close()
    read_fds: Dict[int, int] = {}
    write_fds: Dict[int, int] = {}
    for (a, b), (rfd, wfd) in pipes.items():
        if b == shard:
            read_fds[a] = rfd
        else:
            os.close(rfd)
        if a == shard:
            write_fds[b] = wfd
        else:
            os.close(wfd)
    try:
        worker = _ShardWorker(
            shard,
            plan,
            get_scenario(name),
            prm,
            specs,
            eids,
            until,
            collect,
            profile_dir,
            channels,
            read_fds,
            write_fds,
            conn,
            trace_capacity,
        )
        worker.run()
    except BaseException as exc:  # noqa: BLE001 - forwarded to parent
        try:
            conn.send(
                ("error", shard, repr(exc), traceback.format_exc())
            )
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


class _ShardWorker:
    """One forked worker: a site world plus ring synchronization."""

    def __init__(
        self,
        shard: int,
        plan: ShardedTestbed,
        scenario: ShardScenario,
        prm: Dict[str, Any],
        specs: Sequence[LinkSpec],
        eids: Dict[Tuple[int, str], int],
        until: Optional[float],
        collect: Optional[str],
        profile_dir: Optional[str],
        channels: Dict[Tuple[int, int], float],
        read_fds: Dict[int, int],
        write_fds: Dict[int, int],
        conn,
        trace_capacity: Optional[int] = None,
    ):
        self.shard = shard
        self.until = until
        self.collect = collect
        self.profile_dir = profile_dir
        self.conn = conn
        self.limit = _limit_for(until)
        self.site_list = plan.shard_sites(shard)
        self.inboxes = {s: SiteInbox() for s in self.site_list}
        self.ring = RingOutbox(write_fds, on_block=self._ring_block)
        outbox = RouterOutbox(
            self.inboxes, self.ring, tuple(plan.partition), shard
        )
        self.world = _SiteWorld(
            plan,
            scenario,
            prm,
            specs,
            eids,
            self.site_list,
            collect,
            outbox,
            self.inboxes,
            trace_capacity,
        )
        #: Minimum lookahead of each outbound / inbound channel.
        self.out_lookahead = {
            b: lat for (a, b), lat in channels.items() if a == shard
        }
        in_lookahead = {
            a: lat for (a, b), lat in channels.items() if b == shard
        }
        # At t=0 the peer's clock is >= 0, so its first delivery is
        # >= the channel lookahead: that is the initial promise.
        self.readers = {
            src: RingReader(src, fd, in_lookahead[src])
            for src, fd in read_fds.items()
        }
        self.sent_promise = {dst: 0.0 for dst in write_fds}

    # -- synchronization helpers ----------------------------------------
    def _promises(self) -> Dict[int, float]:
        return {src: r.promise for src, r in self.readers.items()}

    def _lower_bound(self) -> float:
        """No event on this shard can execute before this time."""
        lb = _INF
        for rt in self.world.runtimes.values():
            t = next_time(rt)
            if t < lb:
                lb = t
        for r in self.readers.values():
            if r.promise < lb:
                lb = r.promise
        return lb

    def _flush(self) -> None:
        """Ship staged records; keep peers' promises ratcheting."""
        lb = self._lower_bound()
        for dst, lookahead in self.out_lookahead.items():
            promise = lb + lookahead
            if self.ring.flush_channel(dst, promise):
                self.sent_promise[dst] = promise
            elif promise > self.sent_promise[dst]:
                self.ring.send_null(dst, promise)
                self.sent_promise[dst] = promise

    def _drain(self) -> bool:
        got = False
        for r in self.readers.values():
            if r.drain(self.inboxes):
                got = True
        return got

    def _ring_block(self, fd: int) -> None:
        """An outbound ring pipe is full; avoid a mutual-flood deadlock.

        The peer may itself be blocked writing to us, so drain our own
        in-rings (freeing its writer) before waiting for pipe space.
        Arrivals pushed into inboxes mid-advance are safe: an ongoing
        ``group.advance`` uses a promises snapshot that only lags the
        ratchet, so its horizons stay conservative and every new
        delivery time still lies at or beyond them.
        """
        self._drain()
        select.select([], [fd], [], 0.05)

    def _handle_control(self) -> bool:
        """Process queued coordinator messages; True on stop."""
        while self.conn.poll():
            msg = self.conn.recv()
            kind = msg[0]
            if kind == "probe":
                # Drain (and act on) everything already in our rings
                # before answering, so sent/recv counts converge.
                self._drain()
                self.world.group.advance(self.limit, self._promises())
                self._flush()
                self.conn.send(
                    (
                        "probe_reply",
                        msg[1],
                        self.world.group.idle(self.limit),
                        dict(self.ring.sent),
                        {
                            src: r.received
                            for src, r in self.readers.items()
                        },
                    )
                )
            elif kind == "stop":
                return True
        return False

    # -- main loop -------------------------------------------------------
    def run(self) -> None:
        path = (
            os.path.join(
                self.profile_dir, f"profile_shard{self.shard}.pstats"
            )
            if self.profile_dir
            else None
        )
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        with maybe_profile(path):
            self._simulate()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if self.until is not None:
            for rt in self.world.runtimes.values():
                rt.env.advance_clock(self.until)
        site_results = [
            self.world.site_result(s) for s in sorted(self.site_list)
        ]
        payload = {
            "shard": self.shard,
            "sites": list(self.site_list),
            "wall_s": wall,
            "cpu_s": cpu,
            "events": sum(r["events"] for r in site_results),
            "sent": dict(self.ring.sent),
            "recv": {
                src: r.received for src, r in self.readers.items()
            },
            "maxrss_kb": _maxrss_kb(),
            "site_results": site_results,
        }
        self.conn.send(("result", self.shard, payload))
        # Keep our ring write-ends open until every peer has stopped
        # draining (the coordinator releases all workers together),
        # so nobody mistakes our exit for a crash.
        self.conn.recv()

    def _simulate(self) -> None:
        sel = selectors.DefaultSelector()
        for reader in self.readers.values():
            sel.register(reader.fd, selectors.EVENT_READ, reader)
        sel.register(self.conn, selectors.EVENT_READ, None)
        group = self.world.group
        try:
            while True:
                group.advance(self.limit, self._promises())
                self._flush()
                # Block until a peer ships records/promises or the
                # coordinator speaks; drain only what actually fired
                # (each read is a syscall, and sync wakeups are the
                # hot loop's fixed cost).
                ready = sel.select(timeout=0.2)
                control = False
                for key, _ in ready:
                    if key.data is None:
                        control = True
                    else:
                        key.data.drain(self.inboxes)
                if control and self._handle_control():
                    return
        finally:
            sel.close()
