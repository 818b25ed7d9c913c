"""The ``megaload`` shard scenario: trace-driven federated sites.

One federated site per kernel shard — the same topology, spill ring
and gateway policy as the ``federation`` scenario — but driven by the
lazy multi-tenant arrival streams of :mod:`repro.workloads.traces`
instead of a materialized Poisson list, and measured by the exactly
mergeable summaries of :mod:`repro.analysis.streaming` instead of a
per-request latency list.  That combination is what makes the
million-request rung feasible: per site, the arrival stream costs a
few generator frames and the metrics cost one fixed-size sketch, so
memory is bounded regardless of how many requests flow through.

Each site's tenant mix (derived from the params) layers

* ``interactive`` — diurnal sinusoid-modulated Poisson users with a
  soft completion deadline (deadline misses are counted per tenant);
* ``batch`` — CMS-style production campaigns: bursts of ``size`` jobs
  with exponential inter-campaign gaps;
* ``crowd`` — one flash crowd partway into the run.

Per-tenant draws come from the site hub's ``trace/<tenant>`` streams,
so the trace is a pure function of ``(seed, site, params)`` and a
recorded JSONL trace replays bit-identically (``trace_dir`` points
site *i* at ``<trace_dir>/site<i>.jsonl``).  Each site hashes the
stream it actually consumed (:func:`~repro.workloads.traces`'s
canonical line encoding) and ships the signature with its stats, so
generated-vs-replayed runs can be compared without storing a trace.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict

from repro.analysis.streaming import WorkloadSummary
from repro.federation.scenario import (
    FederationScenario,
    _FederationHandle,
)
from repro.federation.site import FederatedSite
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub
from repro.sim.shard.scenarios import register, site_seed
from repro.sim.trace import trace
from repro.workloads.traces import (
    Arrival,
    TenantSpec,
    TraceSpec,
    _canonical_line,
    write_jsonl,
)

__all__ = [
    "MegaLoadScenario",
    "megaload_trace_spec",
    "record_site_traces",
    "merge_site_summaries",
    "sites_trace_signature",
]


def megaload_trace_spec(params: Dict[str, Any]) -> TraceSpec:
    """The per-site tenant mix implied by the scenario params.

    Request counts are split ``interactive_fraction`` /
    ``batch_fraction`` / remainder (flash crowd) of ``requests``; the
    same spec drives every site — what differs per site is only the
    RNG hub it draws from.
    """
    total = int(params["requests"])
    n_inter = int(round(total * float(params["interactive_fraction"])))
    n_batch = int(round(total * float(params["batch_fraction"])))
    n_inter = min(n_inter, total)
    n_batch = min(n_batch, total - n_inter)
    n_flash = total - n_inter - n_batch
    rate = float(params["rate_per_s"])
    tenants = []
    if n_inter:
        tenants.append(
            TenantSpec(
                name="interactive",
                process="diurnal",
                count=n_inter,
                memory_mb=int(params["memory_mb"]),
                deadline_s=float(params["deadline_s"]),
                params={
                    "rate_per_s": rate
                    * float(params["interactive_fraction"]),
                    "amplitude": float(params["diurnal_amplitude"]),
                    "period_s": float(params["diurnal_period_s"]),
                },
            )
        )
    if n_batch:
        tenants.append(
            TenantSpec(
                name="batch",
                process="campaign",
                count=n_batch,
                memory_mb=int(params["memory_mb"]),
                params={
                    "gap_s": float(params["campaign_gap_s"]),
                    "size": float(params["campaign_size"]),
                    "spacing_s": float(params["campaign_spacing_s"]),
                },
            )
        )
    if n_flash:
        tenants.append(
            TenantSpec(
                name="crowd",
                process="flash",
                count=n_flash,
                memory_mb=int(params["memory_mb"]),
                params={
                    "at_s": float(params["flash_at_s"]),
                    "duration_s": float(params["flash_duration_s"]),
                },
            )
        )
    return TraceSpec(tenants=tuple(tenants))


def record_site_traces(
    seed: int,
    sites: int,
    params: Dict[str, Any],
    out_dir: str,
) -> Dict[int, str]:
    """Record every site's trace to ``<out_dir>/site<i>.jsonl``.

    Uses the same per-site hubs a live run would
    (``RngHub(site_seed(seed, site))``), so a run with
    ``trace_dir=out_dir`` replays the recorded streams bit-identically.
    Returns ``site -> streaming signature``.
    """
    scenario = MegaLoadScenario()
    prm = scenario.resolve(dict(params))
    spec = megaload_trace_spec(prm)
    os.makedirs(out_dir, exist_ok=True)
    sigs: Dict[int, str] = {}
    for site in range(sites):
        hub = RngHub(site_seed(seed, site))
        path = os.path.join(out_dir, f"site{site}.jsonl")
        sigs[site] = write_jsonl(spec.arrivals(hub), path)
    return sigs


class _MegaLoadHandle(_FederationHandle):
    __slots__ = (
        "stream",
        "summary",
        "trace_hash",
        "trace_count",
        "admission",
        "preempted",
    )

    def __init__(self, fsite: FederatedSite, sites: int, params):
        super().__init__(fsite, sites, params, times=[], routes=[])
        #: Lazy arrival iterator (generated or replayed) — never a list.
        self.stream = None
        self.summary: WorkloadSummary = None
        #: Incremental hash of the stream actually consumed.
        self.trace_hash = hashlib.sha256()
        self.trace_count = 0
        #: Gateway admission controller (disabled by default).
        self.admission = None
        #: Speculative/pooled clones reclaimed under pressure.
        self.preempted = 0


class MegaLoadScenario(FederationScenario):
    """Federated sites under lazy multi-tenant trace-driven load."""

    name = "megaload"

    def defaults(self) -> Dict[str, Any]:
        prm = dict(super().defaults())
        prm.update(
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
                # Streaming-summary sketch configuration.
                "sketch_lo": 1e-3,
                "sketch_hi": 1e6,
                "sketch_rel_err": 0.01,
                #: Replay: site i reads <trace_dir>/site<i>.jsonl
                #: instead of generating its stream (None = generate).
                "trace_dir": None,
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
                #: Build sites with adaptive speculative pools (gives
                #: preemption something to reclaim).
                "speculative_pools": False,
            }
        )
        return prm

    def build_site(
        self,
        env: Environment,
        site: int,
        sites: int,
        seed: int,
        params: Dict[str, Any],
    ) -> _MegaLoadHandle:
        from repro.faults.recovery import RecoveryPolicy
        from repro.federation.addressing import HierarchicalAddressPlan
        from repro.federation.admission import AdmissionController
        from repro.federation.site import build_federated_site
        from repro.workloads.traces import read_jsonl

        policy = RecoveryPolicy(
            spill_threshold=params["spill_threshold"],
            spill_deadline_s=params["spill_deadline_s"],
            spill_attempts=params["spill_attempts"],
            spill_backoff_s=params["spill_backoff_s"],
        )
        testbed_kw = {}
        if params["speculative_pools"]:
            from repro.provisioning import ProvisioningConfig

            testbed_kw["provisioning"] = ProvisioningConfig(
                speculative_pools=True
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
            **testbed_kw,
        )
        handle = _MegaLoadHandle(fsite, sites, params)
        handle.admission = AdmissionController(
            shed_depth=params["shed_depth"],
            shed_rate_per_s=params["shed_rate_per_s"],
            rate_window_s=params["rate_window_s"],
            preempt_depth=params["preempt_depth"],
            priorities=params["priorities"],
        )
        if params["trace_dir"] is not None:
            path = os.path.join(
                str(params["trace_dir"]), f"site{site}.jsonl"
            )
            handle.stream = read_jsonl(path)
        else:
            handle.stream = megaload_trace_spec(params).arrivals(
                fsite.bed.rng
            )
        handle.summary = WorkloadSummary(
            lo=params["sketch_lo"],
            hi=params["sketch_hi"],
            rel_err=params["sketch_rel_err"],
        )
        return handle

    # -- processes ------------------------------------------------------
    def _arrivals(self, handle: _MegaLoadHandle):
        env = handle.env
        params = handle.params
        cross = float(params["cross_fraction"])
        procs = []
        for idx, arrival in enumerate(handle.stream):
            handle.trace_hash.update(_canonical_line(arrival).encode())
            handle.trace_hash.update(b"\n")
            handle.trace_count += 1
            if arrival.time > env.now:
                yield env.timeout(arrival.time - env.now)
            # Route draw here, in stream order, so the trajectory is
            # independent of how request processes interleave later.
            is_cross = (
                handle.fsite.bed.rng.uniform("megaload/route", 0.0, 1.0)
                < cross
            )
            procs.append(
                env.process(
                    self._one_arrival(handle, idx, arrival, is_cross)
                )
            )
        if handle.fsite.bed.pools:
            # Shut the speculative pools down once the workload has
            # fully drained, so idle prefilled clones are handed back
            # and the end-of-run leak audit measures true leaks (this
            # is shutdown, not pressure — ``preempted`` not touched).
            yield env.all_of(procs)
            for pool in handle.fsite.bed.pools:
                yield from pool.shutdown()

    def _one_arrival(
        self,
        handle: _MegaLoadHandle,
        idx: int,
        arrival: Arrival,
        is_cross: bool,
    ):
        env = handle.env
        gateway = handle.fsite.gateway
        summary = handle.summary
        adm = handle.admission
        dark = gateway.down_until > env.now
        if dark and not (
            handle.params["reroute_on_blackout"]
            and handle.spill_link is not None
        ):
            # Site blackout: arrivals at a dark site fail fast.
            handle.failed += 1
            summary.record_failed(arrival.tenant)
            return
        adm_on = adm is not None and adm.enabled
        if adm_on:
            if not adm.admit(arrival.tenant, env.now):
                summary.record_shed(arrival.tenant)
                return
            if adm.maybe_preempt():
                env.process(self._preempt_pools(handle))
            adm.begin()
        try:
            yield from self._serve_arrival(
                handle, idx, arrival, is_cross or dark
            )
        finally:
            if adm_on:
                adm.done()

    def _serve_arrival(
        self,
        handle: _MegaLoadHandle,
        idx: int,
        arrival: Arrival,
        is_cross: bool,
    ):
        from repro.core.errors import ReproError
        from repro.workloads.requests import experiment_request

        env = handle.env
        params = handle.params
        gateway = handle.fsite.gateway
        summary = handle.summary
        start = env.now
        request = experiment_request(
            arrival.memory_mb,
            domain=f"site{handle.site}.grid",
            client_id=f"s{handle.site}-{arrival.tenant}-{arrival.seq}",
        )
        spill = is_cross and handle.spill_link is not None
        if not spill:
            try:
                ad, _ = yield from gateway.place_local(
                    request, can_spill=handle.spill_link is not None
                )
            except ReproError:
                handle.failed += 1
                summary.record_failed(arrival.tenant)
                return
            if ad is not None:
                handle.created += 1
                summary.record_ok(
                    arrival.tenant,
                    env.now - start,
                    deadline_s=arrival.deadline_s,
                )
                trace(env, "megaload", "created-local", req=idx)
                yield env.timeout(params["hold_s"])
                try:
                    yield from handle.shop.destroy(str(ad["vmid"]))
                except ReproError:
                    pass  # crash-killed underneath us mid-hold
                handle.destroyed += 1
                return
        outcome = yield from self._spill_with_retries(
            handle, idx, arrival.memory_mb
        )
        if outcome != "ok" and params["local_fallback"]:
            ok = yield from self._local_fallback(handle, request)
            if ok:
                outcome = "ok"
        if outcome == "ok":
            summary.record_ok(
                arrival.tenant,
                env.now - start,
                deadline_s=arrival.deadline_s,
            )
        else:
            handle.failed += 1
            summary.record_failed(arrival.tenant)

    def _preempt_pools(self, handle: _MegaLoadHandle):
        """Reclaim every idle speculative clone on this site."""
        reclaimed = 0
        for pool in handle.fsite.bed.pools:
            count = yield from pool.drain()
            reclaimed += count
        handle.preempted += reclaimed
        if reclaimed:
            trace(
                handle.env, "megaload", "preempted", count=reclaimed
            )

    def collect(self, handle: _MegaLoadHandle) -> Dict[str, Any]:
        shop = handle.shop
        gateway = handle.fsite.gateway
        summary = handle.summary
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
            "arrivals": handle.trace_count,
            "ok": summary.total("ok"),
            "deadline_miss": summary.total("deadline_miss"),
            "shed": summary.total("shed"),
            "preempted": handle.preempted,
            "preempt_signals": (
                handle.admission.preempt_signals
                if handle.admission is not None
                else 0
            ),
            # Strings/dicts ride per-site only (combined_stats sums
            # numeric fields and skips these).
            "trace_signature": handle.trace_hash.hexdigest(),
            "summary_state": summary.to_state(),
        }
        stats.update(self._chaos_stats(handle))
        return stats


def merge_site_summaries(
    site_results,
    group_of: Callable[[int], int] = lambda site: 0,
) -> WorkloadSummary:
    """Merge per-site summary states, partials first.

    Sites are first merged within their ``group_of(site)`` group (in
    site order), then the group partials are merged in group order —
    the exact shape of a coordinator combining per-shard partial
    summaries.  Because the summaries merge exactly, the result is
    bit-identical for *every* grouping, which the megaload experiment
    asserts by comparing state signatures across shard counts.
    """
    groups: Dict[int, WorkloadSummary] = {}
    for r in sorted(site_results, key=lambda r: r["site"]):
        state = r["stats"]["summary_state"]
        partial = WorkloadSummary.from_state(state)
        g = group_of(r["site"])
        if g in groups:
            groups[g].merge(partial)
        else:
            groups[g] = partial
    merged: WorkloadSummary = None
    for g in sorted(groups):
        if merged is None:
            merged = groups[g]
        else:
            merged.merge(groups[g])
    if merged is None:
        raise ValueError("no site summaries to merge")
    return merged


def sites_trace_signature(site_results) -> str:
    """One hash over the per-site consumed-trace signatures."""
    payload = json.dumps(
        {
            str(r["site"]): r["stats"]["trace_signature"]
            for r in site_results
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


register(MegaLoadScenario())
