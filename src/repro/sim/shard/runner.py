"""Sharded kernel execution: the coordinator.

The runner executes a :class:`~repro.sim.shard.plan.ShardedTestbed`
plan in the lookahead windows of :mod:`repro.sim.shard.sync`.  What
varies with the shard count is only process placement: at one shard
every site runs in this process (no fork, no pipes); otherwise sites
are packed into the forked workers of :mod:`repro.sim.shard.worker`,
which meet at each window's barrier among themselves.

The parent gathers the workers' results.  A channel whose sent and
received record counts then differ fails the run, and so does a
worker crash (exception or hard exit): :class:`ShardWorkerError`
instead of a hang.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.shard.plan import ShardedTestbed, validate_link_specs
from repro.sim.shard.scenarios import get_scenario
from repro.sim.shard.sync import RunContext, SiteWorld
from repro.sim.shard.tracemerge import merge_traces, merged_fingerprint

__all__ = ["ShardRunResult", "ShardWorkerError", "run_sharded"]


class ShardWorkerError(RuntimeError):
    """A shard worker crashed or disappeared; the run was aborted."""


class ShardRunResult:
    """Outcome of one sharded run (any shard count)."""

    def __init__(
        self,
        sites: int,
        shards: int,
        partition: Tuple[int, ...],
        scenario: str,
        params: Dict[str, Any],
        until: Optional[float],
        collect: Optional[str],
        wall_s: float,
        site_results: List[Dict[str, Any]],
        shard_results: List[Dict[str, Any]],
    ):
        self.sites = sites
        self.shards = shards
        self.partition = partition
        self.scenario = scenario
        self.params = params
        self.until = until
        self.collect = collect
        #: Coordinator wall-clock for the whole run (build + sim + sync).
        self.wall_s = wall_s
        #: Per-site outcomes, in site order.
        self.site_results = site_results
        #: Per-worker outcomes, in shard order.
        self.shard_results = shard_results

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
    world.run()
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
    # A forked plan preloaded these while it planned (ShardedTestbed).
    import multiprocessing

    from repro.sim.shard.worker import worker_main

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
    partition = ctx.plan.partition
    channels = {
        (partition[spec.src], partition[spec.dst]) for spec in ctx.specs
    }
    rings = {
        pair: os.pipe() for pair in sorted(channels) if pair[0] != pair[1]
    }
    # One barrier pipe per worker: every peer writes its reports there.
    reports = [os.pipe() for _ in range(shards)]
    parent_conns, child_conns = zip(*(mp.Pipe() for _ in range(shards)))
    procs: List[Any] = []
    try:
        try:
            for shard in range(shards):
                p = mp.Process(
                    target=worker_main,
                    args=(
                        shard, ctx, rings, reports, parent_conns, child_conns
                    ),
                    name=f"shard-{shard}",
                    daemon=True,
                )
                p.start()
                procs.append(p)
        finally:
            # The parent takes no part in the rings or the barrier: close
            # its copies so a dead worker's pipes actually reach EOF at
            # the readers.
            for rfd, wfd in [*rings.values(), *reports]:
                os.close(rfd)
                os.close(wfd)
            for c in child_conns:
                c.close()
        coordinator = _Coordinator(parent_conns, procs)
        results = coordinator.run(deadline_s)
        coordinator.send_all(("exit",))
        for p in procs:
            p.join(timeout=10)
    finally:
        _release(parent_conns, procs)
    wall = time.perf_counter() - wall0
    return _assemble(ctx, wall, results)


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


class _Coordinator:
    """The parent's side of a forked run: results gathered, the
    channels' counts checked, crashes named."""

    def __init__(self, conns: Tuple[Any, ...], procs: List[Any]):
        self.conns = conns
        self.procs = procs
        self.results: Dict[int, Dict[str, Any]] = {}
        #: shard -> (repr of its exception, traceback text).
        self.errors: Dict[int, Tuple[str, str]] = {}

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
        its exception, then peers observe its closed pipes and report
        BrokenShardError.  A worker killed outright reports nothing,
        so when every report is a closed pipe the cause is whichever
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

    def run(self, deadline_s: Optional[float]) -> List[Dict[str, Any]]:
        """Every shard's result payload, in shard order, or
        :class:`ShardWorkerError` — also when a channel ended with
        records sent but not received."""
        from multiprocessing.connection import wait

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
        while len(results) < shards:
            ready = wait(
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
                            if msg[0] == "result":
                                results[msg[1]] = msg[2]
                            elif msg[0] == "error":
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
        for a in range(shards):
            for b, sent in results[a]["sent"].items():
                received = results[b]["recv"].get(a, 0)
                if received != sent:
                    raise ShardWorkerError(
                        f"channel {a}->{b} ended with {sent} records "
                        f"sent and {received} received"
                    )
        return [results[s] for s in range(shards)]
