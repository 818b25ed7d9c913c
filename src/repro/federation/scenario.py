"""The ``federation`` shard scenario: one site per kernel shard.

Site *i* is a full :func:`~repro.federation.site.build_federated_site`
testbed (rack brokers, site subnet block, spill gateway) living in its
own :class:`~repro.sim.kernel.Environment`.  An open-loop Poisson
request stream hits each site; a request leaves its site in exactly
two cases —

* it was drawn as **cross-site traffic** (probability
  ``cross_fraction``, from the deterministic ``federation/route``
  stream), modelling clients whose work is pinned elsewhere, or
* the local site **declines or saturates**
  (:meth:`~repro.federation.gateway.FederationGateway.should_spill`
  over the local rack-broker bids) — decided inside
  :meth:`~repro.federation.gateway.FederationGateway.place_local`,
  whose one bid round also places every request that stays.

A spilled request rides the ``spill`` boundary link to the ring
neighbour, which provisions the VM in *its* shop and answers over the
reverse ``ack`` link; the source waits on the ack bounded by the
policy's ``spill_deadline_s``.  Both links carry ≤4-float payloads
and their latencies are the conservative-sync lookahead, so the
cross-site path is exactly as parallel as the PR 6 kernel allows.

Determinism: site builds, arrival times and route draws are pure
functions of ``(seed, site, params)``, and boundary deliveries follow
the runner's canonical order — merged-trace fingerprints are
identical for every shard count (the contract the federation tests
and the bench's determinism recheck pin).

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

from typing import Any, Callable, Dict, List

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryPolicy
from repro.federation.addressing import HierarchicalAddressPlan
from repro.federation.site import FederatedSite, build_federated_site
from repro.sim.kernel import Environment
from repro.sim.shard.plan import LinkSpec
from repro.sim.shard.scenarios import ShardScenario, register
from repro.sim.trace import trace

__all__ = ["FederationScenario"]


class _FederationHandle:
    __slots__ = (
        "fsite",
        "site",
        "sites",
        "params",
        "times",
        "routes",
        "spill_link",
        "ack_link",
        "pending",
        "created",
        "destroyed",
        "failed",
        "spills_sent",
        "spills_recv",
        "spilled_ok",
        "spill_failed",
        "spill_timeout",
        "spill_retries",
        "spills_dropped",
        "local_fallbacks",
        "acks_sent",
        "latencies",
        "injector",
    )

    def __init__(
        self,
        fsite: FederatedSite,
        sites: int,
        params: Dict[str, Any],
        times: List[float],
        routes: List[bool],
    ):
        self.fsite = fsite
        self.site = fsite.site
        self.sites = sites
        self.params = params
        self.times = times
        #: Per-request cross-site draw (consumed in arrival order).
        self.routes = routes
        self.spill_link = None
        self.ack_link = None
        #: seq -> ack Event for spills in flight.
        self.pending: Dict[int, Any] = {}
        self.created = 0
        self.destroyed = 0
        self.failed = 0
        self.spills_sent = 0
        self.spills_recv = 0
        self.spilled_ok = 0
        self.spill_failed = 0
        self.spill_timeout = 0
        self.spill_retries = 0
        self.spills_dropped = 0
        self.local_fallbacks = 0
        self.acks_sent = 0
        #: Request completion latencies (simulated s), local + spilled.
        self.latencies: List[float] = []
        #: Attached fault injector (None when ``fault_plan`` is off).
        self.injector = None

    @property
    def env(self) -> Environment:
        return self.fsite.bed.env

    @property
    def shop(self):
        return self.fsite.bed.shop


class FederationScenario(ShardScenario):
    """Federated grid under load: site-local first, spill-over second."""

    name = "federation"

    def defaults(self) -> Dict[str, Any]:
        return {
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
            # A local create runs ~75-120 simulated s; a spill adds two
            # WAN hops, so the default deadline only catches genuinely
            # stuck remotes, not ordinary cross-site provisioning.
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
            #: Blackout failover: arrivals at a dark site ride the
            #: spill ring to the neighbour instead of failing fast
            #: (off = a dark site's own clients are dark too).
            "reroute_on_blackout": False,
        }

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
    ) -> _FederationHandle:
        from repro.workloads.requests import poisson_arrivals

        policy = RecoveryPolicy(
            spill_threshold=params["spill_threshold"],
            spill_deadline_s=params["spill_deadline_s"],
            spill_attempts=params["spill_attempts"],
            spill_backoff_s=params["spill_backoff_s"],
        )
        fsite = build_federated_site(
            site,
            sites,
            seed=seed,
            n_plants=params["plants"],
            rack_size=params["rack_size"],
            networks_per_plant=params["networks_per_plant"],
            plan=HierarchicalAddressPlan(sites),
            recovery=policy,
            env=env,
        )
        times = poisson_arrivals(
            fsite.bed.rng,
            params["rate_per_s"],
            params["requests"],
            stream="federation/arrivals",
        )
        routes = [
            fsite.bed.rng.uniform("federation/route", 0.0, 1.0)
            < params["cross_fraction"]
            for _ in range(params["requests"])
        ]
        return _FederationHandle(fsite, sites, params, times, routes)

    def endpoints(
        self, handle: _FederationHandle
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

    def start(
        self, handle: _FederationHandle, links: Dict[str, Any]
    ) -> None:
        handle.spill_link = links.get(f"spill{handle.site}")
        handle.ack_link = links.get(f"ack{handle.site}")
        self._attach_faults(handle, links)
        handle.env.process(self._arrivals(handle))

    def _attach_faults(
        self, handle: _FederationHandle, links: Dict[str, Any]
    ) -> None:
        """Attach this site's slice of the grid fault plan (if any)."""
        records = handle.params["fault_plan"]
        if not records:
            return
        plan = FaultPlan.from_records(records).for_site(handle.site)
        handle.injector = FaultInjector(
            handle.fsite.bed,
            plan,
            links=dict(links),
            gateway=handle.fsite.gateway,
            site=handle.site,
        )
        handle.injector.start()

    def _chaos_stats(self, handle: _FederationHandle) -> Dict[str, Any]:
        """Fault/resilience counters + the grid-scope leak audit."""
        from repro.faults.audit import leak_stats

        injector = handle.injector
        stats = {
            "spill_retries": handle.spill_retries,
            "spills_dropped": handle.spills_dropped,
            "local_fallbacks": handle.local_fallbacks,
            "faults_applied": (
                sum(
                    1
                    for _, phase, _, _ in injector.applied
                    if phase == "inject"
                )
                if injector is not None
                else 0
            ),
            "faults_skipped": (
                injector.skipped if injector is not None else 0
            ),
            "final_time": handle.env.now,
        }
        stats.update(leak_stats(handle.fsite.bed))
        return stats

    def collect(self, handle: _FederationHandle) -> Dict[str, Any]:
        shop = handle.shop
        gateway = handle.fsite.gateway
        stats = {
            "created": handle.created,
            "destroyed": handle.destroyed,
            "failed": handle.failed,
            "spills_sent": handle.spills_sent,
            "spills_recv": handle.spills_recv,
            "spilled_ok": handle.spilled_ok,
            "spill_declined": gateway.spills_declined,
            "spill_saturated": gateway.spills_saturated,
            "spill_failed": handle.spill_failed,
            "spill_timeout": handle.spill_timeout,
            "acks_sent": handle.acks_sent,
            "bid_rounds": shop.collector.collections,
            "bids_collected": shop.collector.bids_collected,
            "transport_calls": shop.transport.calls,
            # Lists ride per-site (combined_stats sums numerics only).
            "latencies": list(handle.latencies),
        }
        stats.update(self._chaos_stats(handle))
        return stats

    # -- processes ------------------------------------------------------
    def _arrivals(self, handle: _FederationHandle):
        env = handle.env
        for i, at in enumerate(handle.times):
            if at > env.now:
                yield env.timeout(at - env.now)
            env.process(self._one_request(handle, i))

    def _one_request(self, handle: _FederationHandle, i: int):
        from repro.core.errors import ReproError
        from repro.workloads.requests import experiment_request

        env = handle.env
        params = handle.params
        gateway = handle.fsite.gateway
        dark = gateway.down_until > env.now
        if dark and not (
            params["reroute_on_blackout"]
            and handle.spill_link is not None
        ):
            # Site blackout: arrivals at a dark site fail fast.
            handle.failed += 1
            return
        start = env.now
        request = experiment_request(
            params["memory_mb"],
            domain=f"site{handle.site}.grid",
            client_id=f"s{handle.site}-r{i}",
        )
        spill = dark or (
            handle.routes[i] and handle.spill_link is not None
        )
        if not spill:
            # Site-local discovery first: one bid round inside the
            # site decides spill-or-stay and places the stayers.
            try:
                ad, _ = yield from gateway.place_local(
                    request, can_spill=handle.spill_link is not None
                )
            except ReproError:
                handle.failed += 1
                return
            if ad is not None:
                handle.created += 1
                handle.latencies.append(env.now - start)
                trace(env, "federation", "created-local", req=i)
                yield env.timeout(params["hold_s"])
                try:
                    yield from handle.shop.destroy(str(ad["vmid"]))
                except ReproError:
                    pass  # crash-killed underneath us mid-hold
                handle.destroyed += 1
                return
        # Cross-site: one spill message out, one bounded ack wait.
        outcome = yield from self._spill_with_retries(
            handle, i, params["memory_mb"]
        )
        if outcome == "ok":
            handle.latencies.append(env.now - start)
        elif params["local_fallback"]:
            ok = yield from self._local_fallback(handle, request)
            if ok:
                handle.latencies.append(env.now - start)

    def _spill_with_retries(
        self, handle: _FederationHandle, idx: int, memory_mb: int
    ):
        """The ring-side failover ladder: retry a failed or timed-out
        spill up to ``spill_attempts`` rounds with doubling backoff.

        Each attempt ships a *fresh* wire sequence number
        (``idx * attempts + attempt``) so a stale ack from a slow
        earlier attempt can never satisfy a later one.  With the
        default single attempt the wire seq is exactly ``idx`` — the
        pinned default trajectories see identical payloads.
        """
        params = handle.params
        env = handle.env
        attempts = max(1, int(params["spill_attempts"]))
        outcome = "failed"
        for attempt in range(attempts):
            if attempt:
                delay = float(params["spill_backoff_s"]) * (
                    2.0 ** (attempt - 1)
                )
                if delay > 0:
                    yield env.timeout(delay)
                handle.spill_retries += 1
            wire_seq = idx if attempts == 1 else idx * attempts + attempt
            outcome = yield from self._spill_and_wait(
                handle, wire_seq, memory_mb
            )
            if outcome == "ok":
                return outcome
        return outcome

    def _local_fallback(self, handle: _FederationHandle, request):
        """Last-resort local create after the spill ring gave up."""
        from repro.core.errors import ReproError

        try:
            ad = yield from handle.shop.create(request)
        except ReproError:
            return False
        handle.local_fallbacks += 1
        handle.created += 1
        yield handle.env.timeout(handle.params["hold_s"])
        try:
            yield from handle.shop.destroy(str(ad["vmid"]))
        except ReproError:
            pass  # crash-killed underneath us mid-hold
        handle.destroyed += 1
        return True

    def _spill_and_wait(
        self, handle: _FederationHandle, seq: int, memory_mb: int
    ):
        """Ship one request over the spill ring; wait bounded for the
        ack.  Returns ``"ok"``, ``"failed"`` or ``"timeout"`` and
        maintains the spill ledger — reused by the ``megaload``
        scenario, which records outcomes into streaming summaries
        instead of latency lists.
        """
        env = handle.env
        params = handle.params
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
            return "timeout"
        if evt.value:
            handle.spilled_ok += 1
            return "ok"
        handle.spill_failed += 1
        return "failed"

    def _remote_create(self, handle: _FederationHandle, payload: tuple):
        from repro.core.errors import ReproError
        from repro.workloads.requests import experiment_request

        env = handle.env
        params = handle.params
        gateway = handle.fsite.gateway
        if gateway.down_until > env.now:
            # Site dark: the spill vanishes (no ack), the source's
            # bounded wait times out — exactly a dead WAN peer.
            handle.spills_dropped += 1
            return
        if gateway.hang_until > env.now:
            yield env.timeout(gateway.hang_until - env.now)
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
            ad = yield from handle.shop.create(request)
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
            yield env.timeout(params["spill_hold_s"])
            try:
                yield from handle.shop.destroy(str(ad["vmid"]))
            except ReproError:
                pass  # crash-killed underneath us mid-hold
            handle.destroyed += 1


register(FederationScenario())
