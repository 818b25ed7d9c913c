"""The ``megaload`` source: trace-driven arrivals for the grid scenario.

``megaload`` is :class:`~repro.federation.scenario.GridScenario` — the
same federated sites, spill ring, admission gate and request path as
``federation`` — registered (in :mod:`repro.federation.scenario`, next
to ``federation``) with a different arrival source,
:func:`megaload_source`: the lazy multi-tenant streams of
:mod:`repro.workloads.traces` instead of one Poisson tenant.  Per
site the stream costs a few generator frames and the metrics one
fixed-size sketch, so memory is bounded regardless of how many
requests flow through — what makes the million-request rung feasible.

Each site's tenant mix (:func:`megaload_trace_spec`, derived from the
params) layers

* ``interactive`` — diurnal sinusoid-modulated Poisson users with a
  soft completion deadline (deadline misses are counted per tenant);
* ``batch`` — CMS-style production campaigns: bursts of ``size`` jobs
  with exponential inter-campaign gaps;
* ``crowd`` — one flash crowd partway into the run.

Per-tenant draws come from the site hub's ``trace/<tenant>`` streams,
so the trace is a pure function of ``(seed, site, params)``.  Each
site hashes the stream it actually consumed
(:func:`~repro.workloads.traces.canonical_line`) and ships the
signature with its stats, so two runs' traces can be compared without
storing either.

The rest of this module is what a coordinator does with the per-site
results of any grid scenario: merge the summaries exactly
(:func:`merge_site_summaries`, :func:`merged_summary`).  Nothing here
imports the federation package, so a process that only merges
summaries never loads the grid stack.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator

from repro.analysis.streaming import WorkloadSummary
from repro.sim.rng import RngHub
from repro.workloads.traces import Arrival, TenantSpec, TraceSpec

__all__ = [
    "megaload_trace_spec",
    "merge_site_summaries",
    "merged_summary",
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


def megaload_source(
    hub: RngHub, site: int, params: Dict[str, Any]
) -> Iterator[Arrival]:
    """Site ``site``'s stream, generated from the tenant mix."""
    return megaload_trace_spec(params).arrivals(hub)


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


def merged_summary(run) -> WorkloadSummary:
    """A run's site summaries, merged per shard and then across shards."""
    return merge_site_summaries(run.site_results, run.partition.__getitem__)
