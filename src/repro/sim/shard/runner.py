"""Sharded kernel execution: the coordinator.

The runner executes a :class:`~repro.sim.shard.plan.ShardedTestbed`
plan under the causality rule of :mod:`repro.sim.shard.sync`.  What
varies with the shard count is only process placement: at one shard
every site is co-scheduled in this process (no fork, no pipes);
otherwise sites are packed into the forked workers of
:mod:`repro.sim.shard.worker`.

Termination is parent-coordinated: the coordinator probes workers,
each of which drains its in-rings before replying with an idle flag
and per-channel sent/received message counts; two consecutive
identical all-idle, count-matched rounds prove no event or message
remains in flight.  A worker crash (exception or hard exit) aborts
the whole run with :class:`ShardWorkerError` instead of hanging.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection as mpconn
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.shard.plan import ShardedTestbed, validate_link_specs
from repro.sim.shard.scenarios import get_scenario
from repro.sim.shard.sync import RunContext, SiteWorld
from repro.sim.shard.tracemerge import merge_traces, merged_fingerprint
from repro.sim.shard.worker import worker_main

__all__ = ["ShardRunResult", "ShardWorkerError", "run_sharded"]


class ShardWorkerError(RuntimeError):
    """A shard worker crashed or disappeared; the run was aborted."""


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


def run_sharded(
    plan: ShardedTestbed,
    params: Optional[Dict[str, Any]] = None,
    until: Optional[float] = None,
    collect: Optional[str] = "fingerprint",
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
    sc = get_scenario(plan.scenario)
    prm = sc.resolve({**plan.params, **(params or {})})
    specs = tuple(sc.link_specs(plan.sites, prm))
    validate_link_specs(specs, plan.sites)
    ctx = RunContext(
        plan=plan,
        params=prm,
        specs=specs,
        until=until,
        collect=collect,
        trace_capacity=trace_capacity,
    )
    if plan.shards == 1:
        return _run_inprocess(ctx)
    return _run_forked(ctx, deadline_s)


def _run_inprocess(ctx: RunContext) -> ShardRunResult:
    wall0 = time.perf_counter()
    world = SiteWorld(ctx, 0)
    # Like the forked workers, the measured window covers simulation
    # only — model construction is excluded in every mode.
    sim_wall0 = time.perf_counter()
    cpu0 = time.process_time()
    world.group.advance(ctx.limit, {})
    cpu = time.process_time() - cpu0
    done = time.perf_counter()
    payload = world.result(done - sim_wall0, cpu)
    return _assemble(ctx, done - wall0, [payload])


def _assemble(
    ctx: RunContext, wall_s: float, payloads: List[Dict[str, Any]]
) -> ShardRunResult:
    """The run's result from each shard's payload, in shard order."""
    plan = ctx.plan
    by_site = {
        sr["site"]: sr for p in payloads for sr in p["site_results"]
    }
    return ShardRunResult(
        sites=plan.sites,
        shards=plan.shards,
        partition=plan.partition,
        scenario=plan.scenario,
        params=ctx.params,
        until=ctx.until,
        collect=ctx.collect,
        wall_s=wall_s,
        site_results=[by_site[site] for site in range(plan.sites)],
        shard_results=[
            {k: v for k, v in payload.items() if k != "site_results"}
            for payload in payloads
        ],
    )


# ---------------------------------------------------------------------------
# Forked multi-shard execution
# ---------------------------------------------------------------------------


def _run_forked(
    ctx: RunContext, deadline_s: Optional[float]
) -> ShardRunResult:
    try:
        mp = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        raise NotImplementedError(
            "sharded execution requires the fork start method"
        )
    shards = ctx.plan.shards
    wall0 = time.perf_counter()
    # Collect before forking so garbage isn't duplicated into every
    # child; each worker then freezes the inherited heap (see
    # worker_main) so its GC never traverses — and so never
    # copy-on-writes — objects it can't free anyway.
    gc.collect()
    channels = ctx.channels()
    pipes = {pair: os.pipe() for pair in sorted(channels)}
    parent_conns, child_conns = zip(*(mp.Pipe() for _ in range(shards)))
    procs: List[Any] = []
    try:
        try:
            for shard in range(shards):
                p = mp.Process(
                    target=worker_main,
                    args=(shard, ctx, pipes, parent_conns, child_conns),
                    name=f"shard-{shard}",
                    daemon=True,
                )
                p.start()
                procs.append(p)
        finally:
            # The parent takes no part in the rings: close its copies
            # so a dead worker's channels actually reach EOF at the
            # readers.
            for rfd, wfd in pipes.values():
                os.close(rfd)
                os.close(wfd)
            for c in child_conns:
                c.close()
        coordinator = _Coordinator(channels, parent_conns, procs)
        results = coordinator.run(deadline_s)
        coordinator.send_all(("exit",))
        for p in procs:
            p.join(timeout=10)
    finally:
        _release(parent_conns, procs)
    wall = time.perf_counter() - wall0
    return _assemble(ctx, wall, [results[s] for s in range(shards)])


def _release(parent_conns, procs) -> None:
    """Stop whatever still runs and give the coordinator's descriptors
    back now: a raised error's traceback keeps the frames that hold
    them alive until the next garbage collection."""
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=5)
        p.close()
    for c in parent_conns:
        c.close()


def _exit_status(proc) -> str:
    """How a worker that stopped answering ended.  Joins it (bounded)
    first: its sentinel and control pipe close before it can be
    reaped, so an ``exitcode`` read straight away is usually None."""
    proc.join(timeout=2.0)
    code = proc.exitcode
    if code is None:
        return "still running"
    if code < 0:
        return f"killed by signal {-code}"
    return f"exit code {code}"


@dataclass
class _Coordinator:
    """The parent's side of a forked run: probe rounds until the
    workers are provably quiescent, results gathered, crashes named."""

    channels: Dict[Tuple[int, int], float]
    conns: Tuple[Any, ...]
    procs: List[Any]
    results: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: shard -> (repr of its exception, traceback text).
    errors: Dict[int, Tuple[str, str]] = field(default_factory=dict)

    def send_all(self, msg: tuple) -> None:
        for c in self.conns:
            try:
                c.send(msg)
            except (BrokenPipeError, OSError):
                pass  # death surfaces via the sentinel

    def _died(self, shard: int) -> ShardWorkerError:
        return ShardWorkerError(
            f"shard {shard} worker died without a result "
            f"({_exit_status(self.procs[shard])})"
        )

    def _failure(self) -> ShardWorkerError:
        """The root cause among the collected reports.

        One crash usually produces a cascade: the dying worker reports
        its exception, then peers observe its closed rings and report
        BrokenShardError.  A worker killed outright reports nothing,
        so when every report is a closed ring the cause is whichever
        worker is dead without a word; its peers' reports follow it.
        """
        ordered = sorted(self.errors.items())
        primary = [
            s for s, (r, _) in ordered if "BrokenShardError" not in r
        ]
        silent = [
            s
            for s, p in enumerate(self.procs)
            if s not in self.errors
            and s not in self.results
            and not p.is_alive()
        ]
        if silent and not primary:
            peers = "\n".join(
                f"shard {s}: {r}" for s, (r, _) in ordered
            )
            return ShardWorkerError(
                f"{self._died(silent[0])}; its peers reported:\n{peers}"
            )
        s = primary[0] if primary else ordered[0][0]
        r, tb = self.errors[s]
        return ShardWorkerError(f"shard {s} worker failed: {r}\n{tb}")

    def run(self, deadline_s: Optional[float]) -> Dict[int, Dict[str, Any]]:
        """Every shard's result payload, or :class:`ShardWorkerError`."""
        shards = len(self.procs)
        results = self.results
        errors = self.errors
        deadline = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        conn_of = {c: i for i, c in enumerate(self.conns)}
        sentinel_of = {p.sentinel: i for i, p in enumerate(self.procs)}
        # Collect error reports for a short grace window and surface
        # the root cause, not whichever arrived first.
        error_grace: Optional[float] = None
        round_id = 0
        replies: Dict[int, tuple] = {}
        prev_snapshot = None
        stopping = False
        self.send_all(("probe", round_id))

        while len(results) < shards:
            ready = mpconn.wait(
                list(self.conns) + list(sentinel_of), timeout=0.5
            )
            if deadline is not None and time.monotonic() > deadline:
                raise ShardWorkerError(
                    f"sharded run exceeded deadline of {deadline_s}s"
                )
            if error_grace is not None and time.monotonic() > error_grace:
                raise self._failure()
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
                            raise self._died(shard)
                else:
                    shard = sentinel_of[obj]
                    if shard not in results and not errors:
                        raise self._died(shard)
            if not stopping and len(replies) == shards:
                stopping = _evaluate_probe(
                    replies, self.channels, prev_snapshot
                )
                if stopping:
                    self.send_all(("stop",))
                else:
                    all_idle = all(r[0] for r in replies.values())
                    matched = _counts_match(replies, self.channels)
                    prev_snapshot = (
                        _snapshot(replies)
                        if (all_idle and matched)
                        else None
                    )
                    round_id += 1
                    replies = {}
                    time.sleep(0.02)
                    self.send_all(("probe", round_id))
        return results


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
