"""The grid scenario: federated sites on a spill ring, one request path.

Site *i* is a full :func:`~repro.federation.site.build_federated_site`
testbed (rack brokers, site subnet block, spill gateway) living in its
own :class:`~repro.sim.kernel.Environment`.  What differs between the
registered grid scenarios is only the **arrival source** — a callable
``source(hub, site, params)`` returning the site's lazy, time-ordered
stream of :class:`~repro.workloads.traces.Arrival` s, plus the default
parameters that source reads:

* ``federation`` — :func:`poisson_source`: open-loop Poisson arrivals
  of one tenant, ``site``, from the ``federation/arrivals`` stream;
* ``megaload`` — :func:`~repro.workloads.megaload.megaload_source`,
  the tenant-mix source.

Both are registered at the end of this module, which the scenario
registry imports the first time either name is asked for.

Everything after the arrival is :class:`GridScenario`'s, once.  An
arrival passes the gateway's :class:`~repro.federation.admission.
AdmissionController` (always built; with no knob set it admits
everything) and leaves its site in exactly two cases —

* it was drawn as **cross-site traffic** (probability
  ``cross_fraction``, one draw per arrival in arrival order from the
  ``<scenario name>/route`` stream), modelling clients whose work is
  pinned elsewhere, or
* the local site **declines or saturates**
  (:meth:`~repro.federation.gateway.FederationGateway.should_spill`
  over the local rack-broker bids) — decided inside
  :meth:`~repro.federation.gateway.FederationGateway.place`, whose
  one bid round also places every request that stays.

The ring is the only way a request leaves its site.  A spilled
request rides the ``spill`` boundary link to the ring neighbour,
which provisions the VM in *its* shop and answers over the reverse
``ack`` link; the source waits on the ack bounded by
``spill_deadline_s``.  Both links carry ≤4-float payloads and their
latencies are the conservative-sync lookahead.  Every arrival ends in
exactly one of ok / failed / shed in the site's
:class:`~repro.analysis.streaming.WorkloadSummary`, so
``arrivals = ok + failed + shed`` holds per site for every source, and
latency quantiles come from the exactly-mergeable sketch — memory per
site is constant in the number of requests.

Determinism: site builds, arrival streams and route draws are pure
functions of ``(seed, site, params)``, and boundary deliveries follow
the runner's canonical order — merged-trace fingerprints and merged
summary signatures are identical for every shard count.  The names
the pinned trajectories depend on are frozen: the RNG streams above,
and the trace categories — the scenario's own name for
``created-local``, the literal ``federation`` for ``spill-sent`` /
``spill-recv`` / ``ack-recv`` and ``megaload`` for ``preempted``,
whichever source is driving (``tests/test_grid_goldens.py``).

``kernelbench`` (:mod:`repro.sim.shard.scenarios`) is deliberately not
a source of this scenario: it runs plain testbeds with no gateway and
spills fire-and-forget *after* a create, with no ack — folding it in
would make this path branch on its caller.

Chaos composes in: ``fault_plan`` (recorded
:func:`~repro.faults.plan.grid_fault_plan` events) attaches a
:class:`~repro.faults.injector.FaultInjector` to every site worker —
each site slices its own sub-plan by tag, so injection is the same
schedule at any shard count.  Spill resilience rides the same params:
``spill_attempts``/``spill_backoff_s`` retry a failed or timed-out
spill over the ring (each retry uses a fresh wire sequence number so
stale acks cannot collide), and ``local_fallback`` tries the home
site one last time after the ring gives up.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.analysis.streaming import WorkloadSummary
from repro.core.errors import ReproError
from repro.faults.audit import leak_stats
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.federation.addressing import HierarchicalAddressPlan
from repro.federation.admission import AdmissionController
from repro.federation.site import FederatedSite, build_federated_site
from repro.provisioning import ProvisioningConfig
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub
from repro.sim.shard.plan import LinkSpec
from repro.sim.shard.scenarios import ShardScenario, register
from repro.sim.trace import trace
from repro.workloads.megaload import megaload_source
from repro.workloads.requests import experiment_request, poisson_arrivals
from repro.workloads.traces import Arrival, canonical_line

__all__ = ["GridScenario", "Source", "poisson_source"]

#: One site's arrival stream: ``source(hub, site, params)``.
Source = Callable[[RngHub, int, Dict[str, Any]], Iterator[Arrival]]

#: What every grid scenario reads, whatever its source.
SITE_DEFAULTS: Dict[str, Any] = {
    "plants": 8,
    "rack_size": 8,
    "networks_per_plant": 4,
    "memory_mb": 32,
    "rate_per_s": 2.0,
    "requests": 160,
    "hold_s": 40.0,
    #: Fraction of requests pinned to the ring neighbour.
    "cross_fraction": 0.1,
    #: Saturation spill: best local bid above this cost spills
    #: (None = spill only when the site declines outright).
    "spill_threshold": None,
    # A local create runs ~75-120 simulated s; a spill adds two WAN
    # hops, so the default deadline only catches genuinely stuck
    # remotes, not ordinary cross-site provisioning.
    "spill_deadline_s": 400.0,
    "spill_hold_s": 30.0,
    "spill_mb": 4.0,
    "ack_mb": 0.5,
    "link_latency_s": 8.0,
    "link_bandwidth_mbps": 25.0,
    #: Recorded grid fault-plan events (grid_fault_plan(...)
    #: .to_records()); each site slices its sub-plan by tag.
    "fault_plan": None,
    #: Spill rounds per request over the ring (1 = no retry).
    "spill_attempts": 1,
    #: First retry delay; doubles per further round.
    "spill_backoff_s": 0.0,
    #: Try the home site once more after the ring gives up.
    "local_fallback": False,
    #: Blackout failover: arrivals at a dark site ride the spill ring
    #: to the neighbour instead of failing fast (off = a dark site's
    #: own clients are dark too).
    "reroute_on_blackout": False,
    # Streaming-summary sketch configuration.
    "sketch_lo": 1e-3,
    "sketch_hi": 1e6,
    "sketch_rel_err": 0.01,
    # Overload admission control (all off by default; see
    # repro.federation.admission).
    #: Shed a tenant once in-flight depth reaches
    #: shed_depth // (tier + 1)  (None = no shedding).
    "shed_depth": None,
    #: Shed non-tier-0 tenants above this offered rate.
    "shed_rate_per_s": None,
    "rate_window_s": 30.0,
    #: Reclaim idle pooled clones at this depth.
    "preempt_depth": None,
    #: Tenant -> priority tier (lower = higher priority).
    "priorities": None,
    #: Build sites with adaptive speculative pools (gives preemption
    #: something to reclaim).
    "speculative_pools": False,
}


def poisson_source(
    hub: RngHub, site: int, params: Dict[str, Any]
) -> Iterator[Arrival]:
    """``requests`` Poisson arrivals at ``rate_per_s``, tenant ``site``."""
    times = poisson_arrivals(
        hub,
        params["rate_per_s"],
        params["requests"],
        stream="federation/arrivals",
    )
    for seq, at in enumerate(times):
        yield Arrival(
            time=at,
            tenant="site",
            kind="poisson",
            seq=seq,
            memory_mb=params["memory_mb"],
        )


class _GridHandle:
    __slots__ = (
        "fsite",
        "site",
        "env",
        "shop",
        "params",
        "stream",
        "summary",
        "admission",
        "trace_hash",
        "arrivals",
        "spill_link",
        "ack_link",
        "pending",
        "created",
        "destroyed",
        "spills_sent",
        "spills_recv",
        "spilled_ok",
        "spill_failed",
        "spill_timeout",
        "spill_retries",
        "spills_dropped",
        "local_fallbacks",
        "acks_sent",
        "preempted",
        "injector",
    )

    def __init__(
        self,
        fsite: FederatedSite,
        params: Dict[str, Any],
        stream: Iterator[Arrival],
    ):
        self.fsite = fsite
        self.site = fsite.site
        # Bound once: every resume of every request reads these.
        self.env: Environment = fsite.bed.env
        self.shop = fsite.bed.shop
        self.params = params
        #: Lazy arrival iterator (generated or replayed) — never a list.
        self.stream = stream
        #: Every arrival's one outcome: ok (with latency), failed, shed.
        self.summary = WorkloadSummary(
            lo=params["sketch_lo"],
            hi=params["sketch_hi"],
            rel_err=params["sketch_rel_err"],
        )
        self.admission = AdmissionController(
            shed_depth=params["shed_depth"],
            shed_rate_per_s=params["shed_rate_per_s"],
            rate_window_s=params["rate_window_s"],
            preempt_depth=params["preempt_depth"],
            priorities=params["priorities"],
        )
        #: Incremental hash of the stream actually consumed.
        self.trace_hash = hashlib.sha256()
        self.arrivals = 0
        self.spill_link = None
        self.ack_link = None
        #: seq -> ack Event for spills in flight.
        self.pending: Dict[int, Any] = {}
        self.created = 0
        self.destroyed = 0
        self.spills_sent = 0
        self.spills_recv = 0
        self.spilled_ok = 0
        self.spill_failed = 0
        self.spill_timeout = 0
        self.spill_retries = 0
        self.spills_dropped = 0
        self.local_fallbacks = 0
        self.acks_sent = 0
        #: Speculative/pooled clones reclaimed under pressure.
        self.preempted = 0
        #: Attached fault injector (None when ``fault_plan`` is off).
        self.injector = None


class GridScenario(ShardScenario):
    """Federated sites under one arrival source: site-local first,
    spill-over second."""

    def __init__(
        self, name: str, source: Source, source_defaults: Dict[str, Any]
    ):
        self.name = name
        self.source = source
        self.source_defaults = source_defaults

    def defaults(self) -> Dict[str, Any]:
        return {**SITE_DEFAULTS, **self.source_defaults}

    def resolve(self, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Merged params, with the load, the spill knobs and
        ``trace_dir`` checked here — before the runner forks, so a bad
        value is the caller's ValueError, not a worker's crash."""
        prm = super().resolve(params)
        if prm["rate_per_s"] <= 0:
            raise ValueError("rate_per_s must be positive")
        if prm["requests"] < 0:
            raise ValueError("requests must be non-negative")
        if not 0.0 <= prm["cross_fraction"] <= 1.0:
            raise ValueError("cross_fraction must be in [0, 1]")
        if prm["spill_threshold"] is not None and prm["spill_threshold"] < 0:
            raise ValueError("spill_threshold must be non-negative")
        if prm["spill_deadline_s"] is None or prm["spill_deadline_s"] <= 0:
            raise ValueError("spill_deadline_s must be positive")
        if prm["spill_attempts"] < 1:
            raise ValueError("spill_attempts must be >= 1")
        if prm["spill_backoff_s"] < 0:
            raise ValueError("spill_backoff_s must be non-negative")
        if prm.get("trace_dir") is not None:
            raise ValueError(
                "trace_dir: JSONL trace replay was removed; only None "
                "is accepted"
            )
        return prm

    def link_specs(
        self, sites: int, params: Dict[str, Any]
    ) -> List[LinkSpec]:
        if sites < 2:
            return []
        specs = []
        for i in range(sites):
            specs.append(
                LinkSpec(
                    name=f"spill{i}",
                    src=i,
                    dst=(i + 1) % sites,
                    endpoint="spill",
                    bandwidth_mbps=params["link_bandwidth_mbps"],
                    latency_s=params["link_latency_s"],
                )
            )
            specs.append(
                LinkSpec(
                    name=f"ack{i}",
                    src=i,
                    dst=(i - 1 + sites) % sites,
                    endpoint="ack",
                    bandwidth_mbps=params["link_bandwidth_mbps"],
                    latency_s=params["link_latency_s"],
                )
            )
        return specs

    def build_site(
        self,
        env: Environment,
        site: int,
        sites: int,
        seed: int,
        params: Dict[str, Any],
    ) -> _GridHandle:
        fsite = build_federated_site(
            site,
            sites,
            seed=seed,
            n_plants=params["plants"],
            rack_size=params["rack_size"],
            networks_per_plant=params["networks_per_plant"],
            plan=HierarchicalAddressPlan(sites),
            spill_threshold=params["spill_threshold"],
            env=env,
            provisioning=ProvisioningConfig(
                speculative_pools=bool(params["speculative_pools"])
            ),
        )
        return _GridHandle(
            fsite, params, self.source(fsite.bed.rng, site, params)
        )

    def endpoints(
        self, handle: _GridHandle
    ) -> Dict[str, Callable[[tuple], None]]:
        def spill(payload: tuple) -> None:
            handle.spills_recv += 1
            trace(
                handle.env,
                "federation",
                "spill-recv",
                src_site=int(payload[0]),
                seq=int(payload[1]),
            )
            handle.env.process(self._remote_create(handle, payload))

        def ack(payload: tuple) -> None:
            seq = int(payload[1])
            trace(
                handle.env,
                "federation",
                "ack-recv",
                remote_site=int(payload[0]),
                seq=seq,
                ok=int(payload[2]),
            )
            evt = handle.pending.pop(seq, None)
            if evt is not None and not evt.triggered:
                evt.succeed(int(payload[2]))

        return {"spill": spill, "ack": ack}

    def start(self, handle: _GridHandle, links: Dict[str, Any]) -> None:
        handle.spill_link = links.get(f"spill{handle.site}")
        handle.ack_link = links.get(f"ack{handle.site}")
        records = handle.params["fault_plan"]
        if records:
            # This site's slice of the grid fault plan.
            handle.injector = FaultInjector(
                handle.fsite.bed,
                FaultPlan.from_records(records).for_site(handle.site),
                links=dict(links),
                gateway=handle.fsite.gateway,
                site=handle.site,
            )
            handle.injector.start()
        handle.env.process(self._arrivals(handle))

    def collect(self, handle: _GridHandle) -> Dict[str, Any]:
        collector = handle.shop.collector
        gateway = handle.fsite.gateway
        summary = handle.summary
        injector = handle.injector
        stats = {
            "created": handle.created,
            "destroyed": handle.destroyed,
            "arrivals": handle.arrivals,
            "ok": summary.total("ok"),
            "failed": summary.total("failed"),
            "shed": summary.total("shed"),
            "deadline_miss": summary.total("deadline_miss"),
            "spills_sent": handle.spills_sent,
            "spills_recv": handle.spills_recv,
            "spilled_ok": handle.spilled_ok,
            "spill_declined": gateway.spills_declined,
            "spill_saturated": gateway.spills_saturated,
            "spill_failed": handle.spill_failed,
            "spill_timeout": handle.spill_timeout,
            "spill_retries": handle.spill_retries,
            "spills_dropped": handle.spills_dropped,
            "local_fallbacks": handle.local_fallbacks,
            "acks_sent": handle.acks_sent,
            "bid_rounds": collector.collections,
            "bids_collected": collector.bids_collected,
            "transport_calls": handle.shop.transport.calls,
            "preempted": handle.preempted,
            "preempt_signals": handle.admission.preempt_signals,
            "faults_applied": sum(
                1
                for _, phase, _, _ in (injector.applied if injector else ())
                if phase == "inject"
            ),
            "faults_skipped": injector.skipped if injector else 0,
            "final_time": handle.env.now,
            # Strings/dicts ride per-site only (combined_stats sums
            # numeric fields and skips these).
            "trace_signature": handle.trace_hash.hexdigest(),
            "summary_state": summary.to_state(),
        }
        # The grid-scope leak audit: combined_stats sums it over sites.
        stats.update(leak_stats(handle.fsite.bed))
        return stats

    # -- processes ------------------------------------------------------
    def _arrivals(self, handle: _GridHandle):
        env = handle.env
        rng = handle.fsite.bed.rng
        route = f"{self.name}/route"
        cross = float(handle.params["cross_fraction"])
        pools = handle.fsite.bed.pools
        # With pools to shut down after the drain, count the requests
        # still out instead of keeping their processes: a site's memory
        # must not grow with its request count.  ``drained`` fires
        # exactly where ``all_of`` over them would.
        outstanding = 0
        drained = None

        def finished(_proc) -> None:
            nonlocal outstanding
            outstanding -= 1
            if not outstanding and drained is not None:
                drained.succeed()

        for idx, arrival in enumerate(handle.stream):
            handle.trace_hash.update(canonical_line(arrival).encode())
            handle.trace_hash.update(b"\n")
            handle.arrivals += 1
            if arrival.time > env.now:
                yield arrival.time - env.now
            # Route draw here, in stream order, so the trajectory is
            # independent of how request processes interleave later.
            is_cross = rng.uniform(route, 0.0, 1.0) < cross
            proc = env.process(
                self._request(handle, idx, arrival, is_cross)
            )
            if pools:
                outstanding += 1
                proc.callbacks.append(finished)
        if pools:
            # Shut the speculative pools down once the workload has
            # fully drained, so idle prefilled clones are handed back
            # and the end-of-run leak audit measures true leaks (this
            # is shutdown, not pressure — ``preempted`` not touched).
            drained = env.event()
            if not outstanding:
                drained.succeed()
            yield drained
            for pool in pools:
                yield pool.shutdown()

    def _request(
        self,
        handle: _GridHandle,
        idx: int,
        arrival: Arrival,
        cross: bool,
    ):
        """One arrival, from the gateway's door to its one outcome."""
        env = handle.env
        params = handle.params
        gateway = handle.fsite.gateway
        summary = handle.summary
        tenant = arrival.tenant
        can_spill = handle.spill_link is not None
        if gateway.down_until > env.now:
            if not (params["reroute_on_blackout"] and can_spill):
                # Site blackout: arrivals at a dark site fail fast.
                summary.record_failed(tenant)
                return
            cross = True
        adm = handle.admission
        adm_on = adm.enabled
        if adm_on:
            if not adm.admit(tenant, env.now):
                summary.record_shed(tenant)
                return
            if adm.maybe_preempt():
                env.process(self._preempt_pools(handle))
            adm.begin()
        try:
            start = env.now
            request = experiment_request(
                arrival.memory_mb,
                domain=f"site{handle.site}.grid",
                client_id=f"s{handle.site}-{tenant}-{arrival.seq}",
            )
            if not (cross and can_spill):
                # Site-local discovery first: one bid round inside the
                # site decides spill-or-stay and places the stayers.
                try:
                    ad = yield gateway.place(request, can_spill=can_spill)
                except ReproError:
                    summary.record_failed(tenant)
                    return
                if ad is not None:
                    handle.created += 1
                    summary.record_ok(
                        tenant,
                        env.now - start,
                        deadline_s=arrival.deadline_s,
                    )
                    trace(env, self.name, "created-local", req=idx)
                    yield self._hold(handle, ad, params["hold_s"])
                    return
            # Cross-site: spill over the ring, bounded ack waits.
            ok = yield self._spill(handle, idx, arrival.memory_mb)
            if not ok and params["local_fallback"]:
                # Last resort: the home site once more.
                try:
                    ad = yield handle.shop.create(request)
                except ReproError:
                    ad = None
                if ad is not None:
                    handle.local_fallbacks += 1
                    handle.created += 1
                    yield self._hold(handle, ad, params["hold_s"])
                    ok = True
            if ok:
                summary.record_ok(
                    tenant, env.now - start, deadline_s=arrival.deadline_s
                )
            else:
                summary.record_failed(tenant)
        finally:
            if adm_on:
                adm.done()

    def _spill(self, handle: _GridHandle, idx: int, memory_mb: int):
        """Ship one request over the spill ring and wait, bounded, for
        the ack; a failed or timed-out round is retried up to
        ``spill_attempts`` rounds with doubling backoff.  Returns
        whether a remote site created the VM, and keeps the spill
        ledger.

        Each attempt ships a *fresh* wire sequence number
        (``idx * attempts + attempt``) so a stale ack from a slow
        earlier attempt can never satisfy a later one.  With the
        default single attempt the wire seq is exactly ``idx`` — the
        pinned default trajectories see identical payloads.
        """
        env = handle.env
        params = handle.params
        attempts = max(1, int(params["spill_attempts"]))
        for attempt in range(attempts):
            if attempt:
                delay = float(params["spill_backoff_s"]) * (
                    2.0 ** (attempt - 1)
                )
                if delay > 0:
                    yield delay
                handle.spill_retries += 1
            seq = idx if attempts == 1 else idx * attempts + attempt
            evt = env.event()
            handle.pending[seq] = evt
            handle.spills_sent += 1
            trace(env, "federation", "spill-sent", req=seq)
            handle.spill_link.send(
                payload=(handle.site, seq, memory_mb, 0.0),
                size_mb=params["spill_mb"],
            )
            yield env.any_of(
                [evt, env.timeout(params["spill_deadline_s"])]
            )
            if not evt.triggered:
                handle.pending.pop(seq, None)
                handle.spill_timeout += 1
            elif evt.value:
                handle.spilled_ok += 1
                return True
            else:
                handle.spill_failed += 1
        return False

    def _preempt_pools(self, handle: _GridHandle):
        """Reclaim every idle speculative clone on this site."""
        reclaimed = 0
        for pool in handle.fsite.bed.pools:
            count = yield pool.drain()
            reclaimed += count
        handle.preempted += reclaimed
        if reclaimed:
            trace(handle.env, "megaload", "preempted", count=reclaimed)

    def _remote_create(self, handle: _GridHandle, payload: tuple):
        env = handle.env
        params = handle.params
        gateway = handle.fsite.gateway
        if gateway.down_until > env.now:
            # Site dark: the spill vanishes (no ack), the source's
            # bounded wait times out — exactly a dead WAN peer.
            handle.spills_dropped += 1
            return
        if gateway.hang_until > env.now:
            yield gateway.hang_until - env.now
            if gateway.down_until > env.now:
                handle.spills_dropped += 1
                return
        src, seq = int(payload[0]), int(payload[1])
        request = experiment_request(
            int(payload[2]),
            domain=f"fed{src}.grid",
            client_id=f"fed-{src}-{seq}",
        )
        ok = 1
        ad = None
        try:
            ad = yield handle.shop.create(request)
        except ReproError:
            ok = 0
        if handle.ack_link is not None:
            handle.acks_sent += 1
            handle.ack_link.send(
                payload=(handle.site, seq, ok, 0.0),
                size_mb=params["ack_mb"],
            )
        if ad is not None:
            handle.created += 1
            yield self._hold(handle, ad, params["spill_hold_s"])

    @staticmethod
    def _hold(handle: _GridHandle, ad, hold_s: float):
        """Keep a created VM for ``hold_s``, then destroy it."""
        yield hold_s
        try:
            yield handle.shop.destroy(str(ad["vmid"]))
        except ReproError:
            pass  # crash-killed underneath us mid-hold
        handle.destroyed += 1


register(GridScenario("federation", poisson_source, {}))
register(
    GridScenario(
        "megaload",
        megaload_source,
        # The source's own parameters, over the site defaults.
        {
            "requests": 500,
            # Tenant mix.
            "interactive_fraction": 0.5,
            "batch_fraction": 0.4,
            "deadline_s": 300.0,
            "diurnal_amplitude": 0.6,
            "diurnal_period_s": 1800.0,
            "campaign_gap_s": 90.0,
            "campaign_size": 32.0,
            "campaign_spacing_s": 1.0,
            "flash_at_s": 120.0,
            "flash_duration_s": 30.0,
            #: Must be None (every site generates its stream); the
            #: key stays because recorded parameter sets spell it.
            "trace_dir": None,
        },
    )
)
