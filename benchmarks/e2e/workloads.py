"""The five workloads: explicit parameters, input generators, drivers.

Every scenario parameter is written out here — nothing is inherited
from ``defaults()`` or from a keyword default — so a later
re-calibration of the library's defaults cannot silently move this
baseline.  Each workload is a ``setup`` (builds inputs from the seed;
untimed, reported as ``setup_s``) and a ``run`` (the timed window,
returning an :class:`Outcome`).

Counts were sized on a 2-core box so that one repetition costs about
two host seconds (the driver's time cap allows no more) and still ends
with at least 1000 successful creates; ``scaled`` shrinks them for the
smoke test.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis.streaming import WorkloadSummary
from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.errors import ReproError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.experiments.runner import run_creation_suite
from repro.faults.audit import leak_report
from repro.plant.production import CloneMode
from repro.plant.warehouse import GoldenImage
from repro.provisioning import ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.sim.shard import ShardedTestbed
from repro.sim.rng import RngHub
from repro.sim.shard.scenarios import get_scenario, site_seed
from repro.workloads.megaload import (
    megaload_trace_spec,
    merge_site_summaries,
)
from repro.workloads.requests import (
    MANDRAKE_OS,
    experiment_request,
    install_os_action,
)

__all__ = [
    "Outcome",
    "Workload",
    "WORKLOADS",
    "drain_arrivals",
    "usable_cores",
]


@dataclass
class Outcome:
    """What one repetition produced, in workload-independent form."""

    arrivals: int
    #: tenant -> arrivals offered, for the per-tenant accounting check.
    tenant_arrivals: Dict[str, int]
    #: Per-tenant ok/failed/shed counters and the latency sketch.
    summary: WorkloadSummary
    events: int
    makespan_sim_s: float
    created: int
    destroyed: int
    #: VMs still registered with a plant when the run ended.
    live: int
    #: Residual resources after the drain (all zero = no leak).
    leaks: Dict[str, float]
    shards: int = 1
    #: Workload-specific material for checks and layer metrics.
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Latency limit (simulated s) behind ``slo_miss_frac``.
    slo_s: float
    params: Dict[str, Any]
    #: Keys of ``params`` that hold request/image counts.
    count_keys: Tuple[str, ...]
    setup: Callable[[int, Dict[str, Any]], Any]
    run: Callable[[Any], Outcome]
    #: Parameter overrides for the repetitions that must stay in this
    #: process: warm-up, call-counted and traced ones.
    inprocess_overrides: Dict[str, Any] = field(default_factory=dict)
    #: sim metric -> (low, high) the full-size workload must stay in to
    #: still be the load regime its name and ``why`` describe.
    regime: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def scaled(self, scale: float) -> Dict[str, Any]:
        """``params`` with every count multiplied by ``scale`` (>= 1)."""
        out = dict(self.params)
        for key in self.count_keys:
            value = out[key]
            if isinstance(value, dict):  # paper_seq: size -> [count, p]
                out[key] = {
                    k: [max(2, round(c * scale)), p]
                    for k, (c, p) in value.items()
                }
            else:
                out[key] = max(1, round(value * scale))
        return out


def usable_cores() -> int:
    """Cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _poisson_times(rng: random.Random, rate_per_s: float, count: int):
    now = 0.0
    times = []
    for _ in range(count):
        now += rng.expovariate(rate_per_s)
        times.append(now)
    return times


# ---------------------------------------------------------------------------
# paper_seq: the paper's own Section 4.2 closed loop
# ---------------------------------------------------------------------------

PAPER_SEQ = {
    #: Independent suites per repetition, seeds seed*1000 .. +suites-1.
    "suites": 8,
    #: memory MB -> [sequential requests, injected clone-failure prob]
    "runs": {"32": [128, 0.05], "64": [128, 0.02], "256": [40, 0.0]},
    "n_plants": 8,
    "vm_type": "vmware",
    "clone_mode": "link",
}


def _paper_setup(seed: int, params: Dict[str, Any]):
    # run_creation_suite builds its testbeds and request streams
    # itself; the seed is the only input there is to prepare.
    return seed, params


def _paper_run(inputs) -> Outcome:
    seed, params = inputs
    runs = {int(m): tuple(v) for m, v in params["runs"].items()}
    summary = WorkloadSummary()
    tenant_arrivals: Dict[str, int] = {}
    events = 0
    makespan = 0.0
    live = 0
    latencies: Dict[int, List[float]] = {m: [] for m in runs}
    clone_times: Dict[int, List[float]] = {m: [] for m in runs}
    for i in range(params["suites"]):
        suite = run_creation_suite(
            seed=seed * 1000 + i,
            runs=runs,
            n_plants=params["n_plants"],
            vm_type=params["vm_type"],
            clone_mode=CloneMode(params["clone_mode"]),
            cost_model=None,
            parallel=False,
            max_workers=None,
            cache=None,
        )
        for memory, run in suite.items():
            tenant = f"{memory}mb"
            tenant_arrivals[tenant] = (
                tenant_arrivals.get(tenant, 0) + len(run.samples)
            )
            for sample in run.samples:
                if sample.ok:
                    summary.record_ok(tenant, sample.latency)
                else:
                    summary.record_failed(tenant)
            latencies[memory].extend(run.creation_latencies)
            clone_times[memory].extend(run.clone_times)
            bed = run.testbed
            events += bed.env.executed_events
            # One client, one suite after the other: simulated time adds.
            makespan += bed.env.now
            live += sum(len(p.infosys) for p in bed.plants)
    ok = summary.total("ok")
    return Outcome(
        arrivals=sum(tenant_arrivals.values()),
        tenant_arrivals=tenant_arrivals,
        summary=summary,
        events=events,
        makespan_sim_s=makespan,
        # The stream never destroys: every success must still be live.
        created=ok,
        destroyed=0,
        live=live,
        leaks={},
        extra={
            "mean_latency_s": {
                m: sum(v) / len(v) for m, v in latencies.items() if v
            },
            "mean_clone_s": {
                m: sum(v) / len(v) for m, v in clone_times.items() if v
            },
        },
    )


# ---------------------------------------------------------------------------
# site_burst / site_catalog: one site under an open-loop Poisson stream
# ---------------------------------------------------------------------------

_POOL_TUNABLES = {
    "pool_target_hit_rate": 0.9,
    "pool_min_target": 0,
    "pool_max_target": 4,
    "pool_window": 8,
    "pool_lead_time_s": 45.0,
    "pool_bid_discount": 0.25,
}

_TESTBED = {
    "n_plants": 8,
    "memory_sizes": [32, 64, 256],
    "vm_types": ["vmware"],
    "clone_failure_prob": 0.0,
    "action_failure_prob": 0.0,
    "host_memory_mb": 1536.0,
    "networks_per_plant": 4,
    "retry_other_plants": False,
    "nfs_replicas": 1,
}

SITE_BURST = {
    "requests": 2000,
    "memory_mb": 64,
    "rate_per_s": 0.9,
    "hold_s": 90.0,
    "testbed": _TESTBED,
    "provisioning": {
        "host_cache_mb": 512.0,
        "coalesce_transfers": True,
        "speculative_pools": True,
        "distribution_tree": False,
        "replica_placement": False,
        **_POOL_TUNABLES,
    },
}

SITE_CATALOG = {
    "requests": 1000,
    #: Extra golden images published on top of the paper's three.
    "images": 200,
    #: Length of the configuration chain images/requests are cut from.
    "chain": 12,
    #: Variants per chain step (distinct params -> distinct signature).
    "variants": 3,
    #: Share of images in another OS / memory bucket (index-rejectable).
    "noise_frac": 0.18,
    "memory_mb": 64,
    "rate_per_s": 0.1,
    "hold_s": 90.0,
    "testbed": _TESTBED,
    "provisioning": {
        "host_cache_mb": 0.0,
        "coalesce_transfers": False,
        "speculative_pools": False,
        "distribution_tree": False,
        "replica_placement": False,
        **_POOL_TUNABLES,
    },
}

#: Matchmaking expressions drawn per catalog request (all accept every
#: healthy plant: the workload measures evaluation cost, not rejection).
_REQUIREMENTS = (
    "other.networks_free >= 1 && other.active_vms < 64",
    'other.host_memory_mb >= 1024 && other.kind == "vmplant"',
    'member("vmware", other.vm_types) && other.committed_mb < 4096',
    "other.networks_free >= 1 && other.host_memory_mb >= 1024"
    " && other.active_vms < 48",
)


def _build_site(seed: int, params: Dict[str, Any], extra_images=()):
    bed_kw = dict(params["testbed"])
    return build_testbed(
        seed=seed,
        n_plants=bed_kw["n_plants"],
        memory_sizes=tuple(bed_kw["memory_sizes"]),
        vm_types=tuple(bed_kw["vm_types"]),
        clone_failure_prob=bed_kw["clone_failure_prob"],
        action_failure_prob=bed_kw["action_failure_prob"],
        host_memory_mb=bed_kw["host_memory_mb"],
        networks_per_plant=bed_kw["networks_per_plant"],
        retry_other_plants=bed_kw["retry_other_plants"],
        nfs_replicas=bed_kw["nfs_replicas"],
        extra_images=extra_images,
        provisioning=ProvisioningConfig(**params["provisioning"]),
    )


def _burst_setup(seed: int, params: Dict[str, Any]):
    rng = random.Random(f"e2e/site_burst/{seed}")
    n = params["requests"]
    times = _poisson_times(rng, params["rate_per_s"], n)
    requests = [
        experiment_request(
            params["memory_mb"],
            vm_type="vmware",
            os=MANDRAKE_OS,
            domain="acis.ufl.edu",
            client_id=f"burst-{i}",
            username="griduser",
        )
        for i in range(n)
    ]
    return _build_site(seed, params), requests, times, params["hold_s"]


def _chain_step(k: int, variant: int) -> Action:
    if k == 0:
        return install_os_action(MANDRAKE_OS)
    return Action(
        f"install-pkg{k:02d}",
        command=f"rpm -i pkg{k:02d}-{{ver}}.rpm",
        params={"ver": variant},
    )


def _catalog_setup(seed: int, params: Dict[str, Any]):
    rng = random.Random(f"e2e/site_catalog/{seed}")
    chain, variants = params["chain"], params["variants"]
    memory = params["memory_mb"]
    noise = params["noise_frac"]
    images = []
    for i in range(params["images"]):
        depth = rng.randint(1, chain)
        performed = tuple(
            _chain_step(k, rng.randrange(variants)) for k in range(depth)
        )
        image_os, image_mb = MANDRAKE_OS, memory
        draw = rng.random()
        if draw < noise / 2:
            image_os = "linux-redhat-7.2"
        elif draw < noise:
            image_mb = rng.choice([m for m in (32, 128, 256) if m != memory])
        images.append(
            GoldenImage(
                image_id=f"catalog-{i:05d}",
                vm_type="vmware",
                os=image_os,
                hardware=HardwareSpec(memory_mb=image_mb, disk_gb=4.0),
                performed=performed,
                memory_state_mb=float(image_mb),
            )
        )
    requests = []
    for i in range(params["requests"]):
        depth = rng.randint(1, chain)
        actions = [
            _chain_step(k, rng.randrange(variants)) for k in range(depth)
        ]
        # The per-request tail makes every DAG (and fingerprint) unique.
        actions.append(
            Action(f"tail-{i:05d}", command=f"useradd -m user{i:05d}")
        )
        requests.append(
            CreateRequest(
                hardware=HardwareSpec(memory_mb=memory, disk_gb=4.0),
                software=SoftwareSpec(
                    os=MANDRAKE_OS, dag=ConfigDAG.from_sequence(actions)
                ),
                network=NetworkSpec(domain="acis.ufl.edu"),
                client_id=f"catalog-{i}",
                vm_type="vmware",
                requirements=_REQUIREMENTS[rng.randrange(len(_REQUIREMENTS))],
            )
        )
    times = _poisson_times(rng, params["rate_per_s"], len(requests))
    bed = _build_site(seed, params, extra_images=images)
    return bed, requests, times, params["hold_s"]


def _site_run(inputs) -> Outcome:
    """Open loop: every request is its own process, timed from its due
    arrival; finished VMs are held, then destroyed."""
    bed, requests, times, hold_s = inputs
    env, shop = bed.env, bed.shop
    summary = WorkloadSummary()
    counts = {"created": 0, "destroyed": 0}

    def one(at: float, request: CreateRequest):
        yield env.timeout(at)
        start = env.now
        try:
            ad = yield from shop.create(request)
        except ReproError:
            summary.record_failed("site")
            return
        summary.record_ok("site", env.now - start)
        counts["created"] += 1
        yield env.timeout(hold_s)
        yield from shop.destroy(str(ad["vmid"]))
        counts["destroyed"] += 1

    def client():
        yield env.all_of(
            [env.process(one(at, rq)) for at, rq in zip(times, requests)]
        )
        # Hand idle pre-created clones back so the leak audit is exact.
        for pool in bed.pools:
            yield from pool.shutdown()

    bed.run(client())
    leaks = leak_report(bed)
    return Outcome(
        arrivals=len(requests),
        tenant_arrivals={"site": len(requests)},
        summary=summary,
        events=env.executed_events,
        makespan_sim_s=env.now,
        created=counts["created"],
        destroyed=counts["destroyed"],
        live=int(leaks["infosys_vms"]),
        leaks=leaks,
    )


# ---------------------------------------------------------------------------
# grid_steady / grid_overload: four federated sites under megaload traces
# ---------------------------------------------------------------------------

#: Every megaload parameter, pinned (values of PR 10's defaults).
_MEGALOAD = {
    "plants": 8,
    "rack_size": 8,
    "networks_per_plant": 4,
    "memory_mb": 32,
    "rate_per_s": 2.0,
    "requests": 1000,
    "hold_s": 40.0,
    "cross_fraction": 0.1,
    "spill_threshold": None,
    "spill_deadline_s": 400.0,
    "spill_hold_s": 30.0,
    "spill_mb": 4.0,
    "ack_mb": 0.5,
    "link_latency_s": 8.0,
    "link_bandwidth_mbps": 25.0,
    "fault_plan": None,
    "spill_attempts": 1,
    "spill_backoff_s": 0.0,
    "local_fallback": False,
    "reroute_on_blackout": False,
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
    "sketch_lo": 1e-3,
    "sketch_hi": 1e6,
    "sketch_rel_err": 0.01,
    "trace_dir": None,
    "shed_depth": None,
    "shed_rate_per_s": None,
    "rate_window_s": 30.0,
    "preempt_depth": None,
    "priorities": None,
    "speculative_pools": False,
}

GRID_STEADY = {
    "sites": 4,
    "shards": 2,
    **_MEGALOAD,
    "requests": 400,
    "rate_per_s": 0.1,
    "campaign_gap_s": 600.0,
    "campaign_size": 16.0,
    "flash_duration_s": 120.0,
}

GRID_OVERLOAD = {
    "sites": 4,
    "shards": 1,
    **_MEGALOAD,
    "requests": 1000,
    "shed_depth": 240,
    "preempt_depth": 160,
    "speculative_pools": True,
}

#: Abort a sharded run that hangs instead of hanging the benchmark.
_SHARD_DEADLINE_S = 150.0


def _grid_setup(seed: int, params: Dict[str, Any]):
    scenario_params = {
        k: v for k, v in params.items() if k not in ("sites", "shards")
    }
    shards = params["shards"]
    projected = False
    if shards > usable_cores():
        # Fewer cores than shards: an in-process run is the honest
        # number; the record says it stands in for the sharded one.
        shards, projected = 1, True
    plan = ShardedTestbed(
        seed=seed,
        sites=params["sites"],
        shards=shards,
        scenario="megaload",
    )
    return plan, scenario_params, projected


def _grid_run(inputs) -> Outcome:
    plan, scenario_params, projected = inputs
    run = plan.run(
        params=scenario_params, collect=None, deadline_s=_SHARD_DEADLINE_S
    )
    partition = run.partition
    merge_t0 = perf_counter()
    summary = merge_site_summaries(
        run.site_results, group_of=lambda site: partition[site]
    )
    merge_s = perf_counter() - merge_t0
    stats = run.combined_stats()
    leaks = {
        k[len("leak_"):]: v for k, v in stats.items() if k.startswith("leak_")
    }
    spec = megaload_trace_spec(run.params)
    return Outcome(
        arrivals=int(stats["arrivals"]),
        tenant_arrivals={
            t.name: t.count * plan.sites for t in spec.tenants
        },
        summary=summary,
        events=run.total_events,
        makespan_sim_s=max(r["now"] for r in run.site_results),
        created=int(stats["created"]),
        destroyed=int(stats["destroyed"]),
        live=int(leaks["infosys_vms"]),
        leaks=leaks,
        shards=run.shards,
        extra={
            "run": run,
            "stats": stats,
            "merge_s": merge_s,
            "projected": projected,
            "inherited_params": sorted(
                set(get_scenario("megaload").defaults())
                - set(scenario_params)
            ),
        },
    )


def drain_arrivals(seed: int, params: Dict[str, Any]) -> Tuple[int, float]:
    """Draw every site's arrival stream standalone: (arrivals, host s)."""
    spec = megaload_trace_spec(params)
    started = perf_counter()
    count = 0
    for site in range(params["sites"]):
        for _ in spec.arrivals(RngHub(site_seed(seed, site))):
            count += 1
    return count, perf_counter() - started


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_seq",
            why=(
                "the paper's own closed loop (sequential creates, one "
                "client): the accuracy anchor; plant/hypervisor/storage "
                "work, kernel queue nearly empty, no federation or shards"
            ),
            slo_s=90.0,
            params=PAPER_SEQ,
            count_keys=("suites", "runs"),
            setup=_paper_setup,
            run=_paper_run,
        ),
        Workload(
            name="site_burst",
            why=(
                "open-loop Poisson at 0.9 req/s just under one site's "
                "knee: hundreds of concurrent processes, host caches, "
                "coalescing and speculative pools at work; matching is "
                "one memo entry"
            ),
            slo_s=300.0,
            params=SITE_BURST,
            count_keys=("requests",),
            setup=_burst_setup,
            run=_site_run,
        ),
        Workload(
            name="site_catalog",
            why=(
                "same bid path, big image catalog and all-distinct DAGs "
                "with classad requirements: matching is the largest "
                "share of host time, then XML; network concurrency is "
                "negligible"
            ),
            slo_s=300.0,
            params=SITE_CATALOG,
            count_keys=("requests", "images"),
            setup=_catalog_setup,
            run=_site_run,
        ),
        Workload(
            name="grid_steady",
            why=(
                "4 federated sites on 2 forked shards at a load that "
                "finishes its work: traces, gateway, bidding, streaming "
                "merge and cross-shard sync all do real work"
            ),
            slo_s=300.0,
            params=GRID_STEADY,
            count_keys=("requests",),
            setup=_grid_setup,
            run=_grid_run,
            # In-process at one shard: fills the caches the forked workers
            # inherit and supplies the 1-shard signature to check the
            # sharded merge against.
            inprocess_overrides={"shards": 1},
            # Finishes its work, at latencies next to the paper's Fig. 4.
            regime={
                "failed_frac": (0.0, 0.02),
                "create_p50_sim_s": (24.0, 90.0),
            },
        ),
        Workload(
            name="grid_overload",
            why=(
                "the same sites in-process at 20x the rate with admission "
                "on: decline, spill-retry, shed and preempt paths; no "
                "shard sync at all, the no-change case for sync work"
            ),
            slo_s=300.0,
            params=GRID_OVERLOAD,
            count_keys=("requests",),
            setup=_grid_setup,
            run=_grid_run,
            regime={"failed_frac": (0.5, 1.0)},
        ),
    )
}
