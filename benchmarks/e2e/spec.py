"""Metric names, units, directions and regression bounds — one table.

Every number the benchmark reports is declared here once;
``run.py`` fills the values, ``compare.py`` applies the bounds, the
smoke test checks the names against ``BENCHMARK.json``.

This is a deterministic discrete-event simulator, so each metric
states its *clock*:

``host``
    what the Python process costs — noisy on a shared box, reported as
    the median of the timed repetitions with quartiles, n and samples;
``sim``
    simulated seconds — repeats exactly for a seed, so two commits
    compare exactly;
``count``
    a count or ratio made by the program — repeats exactly too.

``Metric.bound`` is the share of the baseline median by which a metric
may get worse at the *same seed* before ``compare.py`` calls it a
regression; 0 means "identical to 9 significant digits".
``DRIVER_BOUNDS`` are the bounds in ``BENCHMARK.json``: the driver's
protocol varies the seed between runs, so they leave room for the
seed-to-seed spread measured in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "DRIVER_BOUNDS",
    "DRIVER_END_TO_END",
    "DRIVER_PER_LAYER",
    "DEV_SEED",
    "HELD_OUT_SEED",
    "PAPER_CLONE_256MB_S",
    "by_name",
]

#: Seed used while the benchmark was developed and sized.
DEV_SEED = 2004
#: Seed held back from sizing; a claim must also hold here.
HELD_OUT_SEED = 7919
#: Mean 256 MB clone time the paper reports (Section 4.3) — the only
#: point reference this repository holds.
PAPER_CLONE_256MB_S = 52.5


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" | "sim" | "count"
    bound: float
    doc: str


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", "host", 0.25,
        "fresh interpreter: imports + build testbed / shard plan + "
        "generate requests, images and arrival times, up to the first "
        "simulated event (fastest of the fresh-process probes)",
    ),
    Metric(
        "wall_s", "s", "lower", "host", 0.10,
        "wall-clock of the timed window: first simulated event to "
        "results collected, fork/join included on sharded runs",
    ),
    Metric(
        "cpu_s", "s", "lower", "host", 0.10,
        "user+sys CPU of the benchmark process plus reaped children "
        "over the same window",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", "host", 0.10,
        "max over benchmark process and reaped children of peak RSS",
    ),
    Metric(
        "events_per_request", "count", "lower", "count", 0.0,
        "kernel events executed / arrivals",
    ),
    Metric(
        "py_calls_per_request", "count", "lower", "count", 0.02,
        "Python-level function calls (cProfile, builtins excluded) of one "
        "warm in-process repetition / arrivals: the noise-free stand-in "
        "for host CPU cost",
    ),
    Metric(
        "create_p50_sim_s", "s", "lower", "sim", 0.0,
        "median client-observed create latency of successful requests",
    ),
    Metric(
        "create_p99_sim_s", "s", "lower", "sim", 0.0,
        "p99 of the same (>= 1000 successes per workload, so >= 10 "
        "samples lie beyond it)",
    ),
    Metric(
        "goodput_per_sim_s", "1/s", "higher", "sim", 0.0,
        "successful creates / simulated makespan",
    ),
    Metric(
        "ok_frac", "ratio", "higher", "count", 0.0,
        "successful creates / arrivals (1 - failed_frac; never 0, so "
        "the driver can gate it)",
    ),
    Metric(
        "failed_frac", "ratio", "lower", "count", 0.0,
        "(arrivals - ok) / arrivals; failed, declined and shed all count",
    ),
    Metric(
        "slo_miss_frac", "ratio", "lower", "count", 0.0,
        "(arrivals - ok + ok-but-slower-than-limit) / arrivals",
    ),
    Metric(
        "makespan_sim_s", "s", "lower", "sim", 0.0,
        "simulated time from t=0 to the last completion (drained)",
    ),
    Metric(
        "determinism_ok", "0/1", "higher", "count", 0.0,
        "sim-clock metrics and the summary signature identical across "
        "the warm-up and every timed repetition",
    ),
)

#: (name, unit, better, doc).  ``*_self_s`` come from the traced run
#: (host seconds of one traced repetition); everything else is a count
#: or ratio that repeats exactly.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.kernel.events", "count", "lower", "kernel events executed"),
    ("sim.kernel.events_per_cpu_s", "1/s", "higher",
     "events / untraced cpu_s of the same run"),
    ("sim.kernel.self_s", "s", "lower",
     "run-loop time outside every wrapped callable (includes "
     "unwrapped model code such as the hypervisor lines)"),
    ("sim.network.transfers", "count", "lower",
     "FairShareLink.transfer + BoundaryLink.send calls"),
    ("sim.network.mb", "MB", "lower", "MB carried by every link"),
    ("sim.network.call_self_s", "s", "lower",
     "self time of FairShareLink.transfer / BoundaryLink.send"),
    ("sim.storage.nfs_requests", "count", "lower", "NFS requests served"),
    ("sim.storage.nfs_mb", "MB", "lower", "MB served by the warehouse"),
    ("sim.storage.coalesced", "count", "higher",
     "clone-state copies that shared an in-flight transfer"),
    ("sim.host.cache_hit_ratio", "ratio", "higher",
     "host golden-state cache hits / lookups"),
    ("sim.hypervisor.clones", "count", "lower", "clone records written"),
    ("sim.hypervisor.clone_p50_sim_s", "s", "lower",
     "median clone time (copy + resume)"),
    ("core.matching.selects", "count", "lower", "VMWarehouse.select calls"),
    ("core.matching.memo_hit_ratio", "ratio", "higher",
     "warehouse memo hits / selects"),
    ("core.matching.profiles_tested", "count", "lower",
     "image profiles run through the Section 3.2 tests"),
    ("core.matching.self_s", "s", "lower", "VMWarehouse.select self time"),
    ("core.classad.matches", "count", "lower", "ClassAd.matches calls"),
    ("core.classad.parse_hit_ratio", "ratio", "higher",
     "expression intern-cache hits / constructions"),
    ("core.classad.self_s", "s", "lower",
     "ClassAd.matches + Expression.evaluate self time"),
    ("plant.estimates", "count", "lower", "VMPlant.estimate calls"),
    ("plant.estimate_self_s", "s", "lower", "VMPlant.estimate self time"),
    ("plant.plan_self_s", "s", "lower",
     "ProductionProcessPlanner.plan self time"),
    ("plant.creates", "count", "lower", "VMPlant.create calls"),
    ("plant.create_p50_sim_s", "s", "lower",
     "median simulated duration of VMPlant.create"),
    ("plant.pool_hit_ratio", "ratio", "higher",
     "speculative pool hits / tracked requests"),
    ("plant.pool_residue", "count", "lower",
     "idle pooled clones that outlive pool.shutdown() (0 = clean drain)"),
    ("shop.creates", "count", "lower", "VMShop.create calls"),
    ("shop.bid_rounds", "count", "lower", "bid collection rounds"),
    ("shop.bids_collected", "count", "lower", "bids gathered"),
    ("shop.bid_rounds_per_ok", "ratio", "lower",
     "bid rounds / successful creates (1 = no repeated round)"),
    ("shop.transport_calls", "count", "lower", "transport round trips"),
    ("shop.create_self_s", "s", "lower",
     "VMShop.create/estimate/destroy self time"),
    ("shop.protocol_self_s", "s", "lower",
     "service_request_to_xml / _from_xml self time"),
    ("federation.spills_sent", "count", "lower", "requests sent over the ring"),
    ("federation.spill_ok_ratio", "ratio", "higher",
     "spills acknowledged ok / spills sent"),
    ("federation.shed", "count", "lower", "arrivals shed by admission"),
    ("federation.preempted", "count", "lower", "pooled clones reclaimed"),
    ("federation.admit_calls", "count", "lower",
     "AdmissionController.admit calls"),
    ("federation.gateway_self_s", "s", "lower",
     "FederationGateway.create/place/estimate/should_spill + "
     "AdmissionController.admit self time"),
    ("workloads.traces.arrivals", "count", "lower",
     "arrivals drawn from repro.workloads.traces"),
    ("workloads.traces.gen_arrivals_per_s", "1/s", "higher",
     "the same TraceSpec.arrivals drained standalone"),
    ("analysis.streaming.records", "count", "lower",
     "WorkloadSummary.record_* calls"),
    ("analysis.streaming.record_self_s", "s", "lower",
     "WorkloadSummary.record_* self time"),
    ("analysis.streaming.merge_s", "s", "lower",
     "merge_site_summaries wall time"),
    ("sim.shard.cpu_s_sum", "s", "lower", "sum of shard worker CPU"),
    ("sim.shard.wall_s_max", "s", "lower", "slowest shard worker wall"),
    ("sim.shard.blocked_frac", "ratio", "lower",
     "mean over shards of 1 - cpu_s / wall_s"),
    ("sim.shard.msgs_sent", "count", "lower", "cross-shard ring records"),
    ("sim.shard.sync_cpu_ratio", "ratio", "lower",
     "shard cpu_s_sum / cpu_s of the untraced 1-shard run"),
    ("sim.shard.speedup_wall", "ratio", "higher",
     "1-shard wall / sharded wall"),
    ("sim.shard.fork_join_s", "s", "lower",
     "coordinator wall - slowest shard's simulation wall: fork, "
     "per-worker site build, termination probes, join"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced wall_s / untraced wall_s"),
    ("trace.cpu_s", "s", "lower",
     "cpu_s of the traced repetition: the base of every *_self_s share"),
    ("trace.spans", "count", "lower", "spans recorded by the traced run"),
)

#: What ``BENCHMARK.json`` gates, with the driver's bound for each.
#: Left out, and shown to the driver without a bound among its
#: per-layer metrics instead: ``wall_s`` / ``cpu_s`` (medians of
#: identical runs drift by 25 % and more between quiet and busy spells
#: of a shared box — README, "Noise"), ``failed_frac`` /
#: ``slo_miss_frac`` (0 on the well-provisioned workloads), and
#: ``create_p99_sim_s`` / ``goodput_per_sim_s`` / ``makespan_sim_s``
#: (seed-to-seed spread beyond the driver's largest bound).
#: ``compare.py`` holds all of them to the same-seed bounds above.
DRIVER_BOUNDS: Dict[str, float] = {
    "setup_s": 0.25,
    "peak_rss_mb": 0.10,
    "events_per_request": 0.25,
    "py_calls_per_request": 0.25,
    "create_p50_sim_s": 0.25,
    "ok_frac": 0.25,
    "determinism_ok": 0.0,
}
DRIVER_END_TO_END: Tuple[str, ...] = tuple(DRIVER_BOUNDS)
DRIVER_PER_LAYER: Tuple[str, ...] = tuple(
    m.name for m in END_TO_END if m.name not in DRIVER_BOUNDS
) + tuple(name for name, _, _, _ in PER_LAYER)


def by_name() -> Dict[str, Metric]:
    """All metrics keyed by name (per-layer ones carry no bound)."""
    table = {m.name: m for m in END_TO_END}
    for name, unit, better, doc in PER_LAYER:
        table[name] = Metric(name, unit, better, "layer", 0.0, doc)
    return table
