"""Command-line interface: ``python -m repro ...`` or ``vmplants``.

Subcommands map one-to-one to the experiment drivers::

    vmplants demo                 # create/query/destroy one VM
    vmplants figure4 [--seed N]   # each paper artifact by name
    vmplants figure5
    vmplants figure6
    vmplants uml [--sbuml]
    vmplants costfn
    vmplants textnumbers
    vmplants ablations
    vmplants concurrency
    vmplants migration
    vmplants scalability
    vmplants matching
    vmplants resilience
    vmplants replicas
    vmplants loadtest [--requests N] [--rates R ...]
    vmplants disttree [--hosts N ...] [--fanout K]
    vmplants kernelbench [--sites N] [--shards S ...]
    vmplants federation [--sites N ...] [--cross F ...] [--plants P]
    vmplants chaos [--mtbf S ...] [--report PATH] [--replay PATH]
    vmplants megaload [--sites N] [--shards S ...]
                      [--requests-per-site N]
    vmplants megachaos [--report PATH] [--replay PATH]
    vmplants all                  # everything, in order
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

__all__ = ["main", "build_parser"]


def _figure4(args) -> str:
    from repro.experiments.figure4 import run_figure4

    return run_figure4(seed=args.seed).render()


def _figure5(args) -> str:
    from repro.experiments.figure5 import run_figure5

    return run_figure5(seed=args.seed).render()


def _figure6(args) -> str:
    from repro.experiments.figure6 import run_figure6

    return run_figure6(seed=args.seed).render()


def _uml(args) -> str:
    if getattr(args, "sbuml", False):
        from repro.experiments.uml import run_sbuml

        return run_sbuml(seed=args.seed).render()
    from repro.experiments.uml import run_uml

    return run_uml(seed=args.seed).render()


def _costfn(args) -> str:
    from repro.experiments.costfn import run_costfn

    return run_costfn(seed=args.seed).render()


def _textnumbers(args) -> str:
    from repro.experiments.textnumbers import run_textnumbers

    return run_textnumbers(seed=args.seed).render()


def _ablations(args) -> str:
    from repro.experiments.ablations import run_all_ablations

    # Fan out across a process pool where the host allows; the merge
    # is deterministic, so the rendered order below never changes.
    results = run_all_ablations(
        seed=args.seed,
        names=("clone_mode", "matching", "speculative", "cost_model"),
    )
    return "\n\n".join(r.render() for r in results.values())


def _concurrency(args) -> str:
    from repro.experiments.concurrency import run_concurrency

    return run_concurrency(seed=args.seed).render()


def _migration(args) -> str:
    from repro.experiments.migration_exp import run_migration

    return run_migration(seed=args.seed).render()


def _scalability(args) -> str:
    from repro.experiments.scalability import run_scalability

    return run_scalability(seed=args.seed).render()


def _matching(args) -> str:
    from repro.experiments.scalability import run_matching_scalability

    return run_matching_scalability(seed=args.seed).render()


def _resilience(args) -> str:
    from repro.experiments.resilience import run_resilience

    return run_resilience(seed=args.seed).render()


def _replicas(args) -> str:
    from repro.experiments.concurrency import run_warehouse_replicas

    return run_warehouse_replicas(seed=args.seed).render()


def _loadtest(args) -> str:
    from repro.experiments.loadtest import run_loadtest

    return run_loadtest(
        seed=args.seed,
        requests=args.requests,
        rates=tuple(args.rates),
        cache_mb=args.cache_mb,
    ).render()


def _megaload(args) -> str:
    import json

    from repro.experiments.megaload import run_megaload

    result = run_megaload(
        seed=args.seed,
        sites=args.sites,
        shard_counts=tuple(args.shards),
        requests_per_site=args.requests_per_site,
        params={
            k: v
            for k, v in (
                ("plants", args.plants),
                ("cross_fraction", args.cross),
                ("rate_per_s", args.rate),
                ("spill_deadline_s", args.spill_deadline),
            )
            if v is not None
        },
        deadline_s=args.deadline,
        trace_capacity=args.trace_capacity,
    )
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_record(), fh, indent=2, sort_keys=True)
    return result.render()


def _megachaos(args) -> str:
    import json

    from repro.experiments.megachaos import run_megachaos

    if args.replay:
        with open(args.replay) as fh:
            report = json.load(fh)
        cfg = report["config"]
        # Replaying a report reuses its recorded plan AND its run
        # parameters, so the schedule meets the exact same traces.
        result = run_megachaos(
            seed=cfg["seed"],
            sites=cfg["sites"],
            shards=cfg["shards"],
            requests_per_site=cfg["requests_per_site"],
            params=cfg.get("extra_params") or None,
            blackout_site=cfg["blackout_site"],
            blackout_at=cfg["blackout_at"],
            blackout_s=cfg["blackout_s"],
            crash_plants_per_site=cfg["crash_plants_per_site"],
            mtbf_s=cfg["mtbf_s"],
            mttr_s=cfg["mttr_s"],
            wan_site=cfg["wan_site"],
            wan_at=cfg["wan_at"],
            wan_s=cfg["wan_s"],
            wan_severity=cfg["wan_severity"],
            spill_attempts=cfg["spill_attempts"],
            spill_backoff_s=cfg["spill_backoff_s"],
            shed_depth=cfg["shed_depth"],
            preempt_depth=cfg["preempt_depth"],
            det_shard_counts=tuple(cfg["det_shard_counts"]),
            determinism_requests=cfg["determinism_requests"],
            deadline_s=args.deadline,
            trace_capacity=args.trace_capacity,
            plan_records=report["plan"]["records"],
        )
    else:
        result = run_megachaos(
            seed=args.seed,
            sites=args.sites,
            shards=args.shards,
            requests_per_site=args.requests_per_site,
            blackout_site=args.blackout_site,
            blackout_at=args.blackout_at,
            blackout_s=args.blackout_duration,
            crash_plants_per_site=args.crash_plants,
            mtbf_s=args.mtbf,
            mttr_s=args.mttr,
            wan_site=args.wan_site,
            wan_severity=args.wan_severity,
            spill_attempts=args.spill_attempts,
            spill_backoff_s=args.spill_backoff,
            shed_depth=args.shed_depth,
            preempt_depth=args.preempt_depth,
            deadline_s=args.deadline,
            trace_capacity=args.trace_capacity,
        )
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_records(), fh, indent=2, sort_keys=True)
    return result.render()


def _disttree(args) -> str:
    import json

    from repro.experiments.disttree import run_disttree

    result = run_disttree(
        seed=args.seed,
        hosts=tuple(args.hosts),
        fanout=args.fanout,
    )
    if args.report:
        record = {
            "seed": result.seed,
            "memory_mb": result.memory_mb,
            "hosts": list(result.hosts),
            "fanout": result.fanout,
            "points": [
                p.as_dict()
                for pts in result.points.values()
                for p in pts
            ],
        }
        with open(args.report, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
    return result.render()


def _kernelbench(args) -> str:
    import json

    from repro.experiments.kernelbench import run_kernelbench

    result = run_kernelbench(
        seed=args.seed,
        sites=args.sites,
        shard_counts=tuple(args.shards),
        requests_per_site=args.requests_per_site,
    )
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_record(), fh, indent=2, sort_keys=True)
    return result.render()


def _federation(args) -> str:
    import json

    from repro.experiments.federation import run_federation

    result = run_federation(
        seed=args.seed,
        site_counts=tuple(args.sites),
        cross_fractions=tuple(args.cross),
        plants_per_site=args.plants,
        requests_per_site=args.requests_per_site,
        params={
            k: v
            for k, v in (
                ("rack_size", args.rack_size),
                ("spill_deadline_s", args.spill_deadline),
            )
            if v is not None
        },
        deadline_s=args.deadline,
    )
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_record(), fh, indent=2, sort_keys=True)
    return result.render()


def _chaos(args) -> str:
    import json

    from repro.experiments.chaos import run_chaos

    plans = None
    kwargs = {}
    if args.replay:
        with open(args.replay) as fh:
            report = json.load(fh)
        plans = {
            float(mtbf): entry["records"]
            for mtbf, entry in report.get("plans", {}).items()
        }
        # Replaying a report reuses its run parameters so the recorded
        # schedule meets the exact same workload.
        kwargs = {
            "seed": report["seed"],
            "memory_mb": report["memory_mb"],
            "requests": report["requests"],
            "rate": report["rate_per_s"],
            "mttr_s": report["mttr_s"],
            "n_plants": report["n_plants"],
            "mtbf_sweep": sorted(plans),
        }
    else:
        kwargs = {
            "seed": args.seed,
            "requests": args.requests,
            "rate": args.rate,
            "mtbf_sweep": tuple(args.mtbf),
            "mttr_s": args.mttr,
        }
    result = run_chaos(plans=plans, **kwargs)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_records(), fh, indent=2, sort_keys=True)
    return result.render()


def _demo(args) -> str:
    from repro import build_testbed, experiment_request

    bed = build_testbed(seed=args.seed)
    ad = bed.run(bed.shop.create(experiment_request(args.memory)))
    lines = [
        f"created {ad['vmid']} on {ad['plant']}",
        f"  image      : {ad['image_id']}",
        f"  ip         : {ad['ip']} ({ad['network_id']})",
        f"  clone      : {ad['clone_time']:.1f}s",
        f"  configure  : {ad['config_time']:.1f}s",
        f"  actions    : {ad['actions_cached']} cached, "
        f"{ad['actions_executed']} executed",
    ]
    status = bed.run(bed.shop.query(str(ad["vmid"])))
    lines.append(f"query: status={status.get('status')}")
    final = bed.run(bed.shop.destroy(str(ad["vmid"])))
    lines.append(
        f"destroyed at t={final.get('collected_at'):.1f}s "
        f"(simulated clock)"
    )
    return "\n".join(lines)


_ARTIFACTS: Dict[str, Callable] = {
    "figure4": _figure4,
    "figure5": _figure5,
    "figure6": _figure6,
    "uml": _uml,
    "costfn": _costfn,
    "textnumbers": _textnumbers,
    "ablations": _ablations,
    "concurrency": _concurrency,
    "migration": _migration,
    "scalability": _scalability,
    "resilience": _resilience,
    "replicas": _replicas,
}


def _all(args) -> str:
    return ("\n\n" + "=" * 70 + "\n\n").join(
        runner(args) for runner in _ARTIFACTS.values()
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="vmplants",
        description=(
            "VMPlants (SC 2004) reproduction: run the demo or "
            "regenerate any paper artifact."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="create/query/destroy one VM")
    demo.add_argument("--seed", type=int, default=2004)
    demo.add_argument(
        "--memory", type=int, default=32, choices=(32, 64, 256)
    )
    demo.set_defaults(runner=_demo)

    for name, runner in _ARTIFACTS.items():
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        cmd.add_argument("--seed", type=int, default=2004)
        if name == "uml":
            cmd.add_argument(
                "--sbuml",
                action="store_true",
                help="compare boot vs. SBUML checkpoint-resume cloning",
            )
        cmd.set_defaults(runner=runner)

    # Not part of ``all``: the selects/s column is host wall-clock,
    # while ``all`` stays deterministic per seed.
    matching = sub.add_parser(
        "matching",
        help="warehouse-size sweep of the indexed matching path",
    )
    matching.add_argument("--seed", type=int, default=2004)
    matching.set_defaults(runner=_matching)

    # Not part of ``all``: a deliberately heavy open-loop sweep of
    # the provisioning-throughput stack (see DESIGN.md).
    loadtest = sub.add_parser(
        "loadtest",
        help=(
            "Poisson-arrival throughput sweep: baseline vs host "
            "caches vs coalescing vs speculative pools"
        ),
    )
    loadtest.add_argument("--seed", type=int, default=2004)
    loadtest.add_argument("--requests", type=int, default=64)
    loadtest.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.05, 0.2, 1.2],
        help="arrival rates to sweep (requests per simulated second)",
    )
    loadtest.add_argument(
        "--cache-mb",
        type=float,
        default=512.0,
        help="per-host golden-state cache budget",
    )
    loadtest.set_defaults(runner=_loadtest)

    # Not part of ``all``: a scale-out ladder far beyond the paper's
    # 8-node testbed (see DESIGN.md, "Image distribution").
    disttree = sub.add_parser(
        "disttree",
        help=(
            "fleet-size ladder of same-image broadcast bursts: "
            "NFS star vs peer distribution tree"
        ),
    )
    disttree.add_argument("--seed", type=int, default=2004)
    disttree.add_argument(
        "--hosts",
        type=int,
        nargs="+",
        default=[8, 32, 128, 512],
        help="fleet sizes to sweep (one VM per host)",
    )
    disttree.add_argument(
        "--fanout",
        type=int,
        default=2,
        help="concurrent peer serves per source (1=chain, 2=binary)",
    )
    disttree.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON record (per-rung points + fingerprints)",
    )
    disttree.set_defaults(runner=_disttree)

    # Not part of ``all``: throughput columns are host wall-clock /
    # CPU-time, while ``all`` stays deterministic per seed.
    kernelbench = sub.add_parser(
        "kernelbench",
        help=(
            "sharded-kernel throughput sweep with merged-trace "
            "determinism cross-check"
        ),
    )
    kernelbench.add_argument("--seed", type=int, default=2004)
    kernelbench.add_argument(
        "--sites",
        type=int,
        default=8,
        help="independent testbed sites on the WAN ring",
    )
    kernelbench.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 4, 8],
        help="shard counts to sweep (must include 1)",
    )
    kernelbench.add_argument(
        "--requests-per-site",
        type=int,
        default=160,
        help="VM creation requests per site per sweep point",
    )
    kernelbench.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON record (points, costs, fingerprint)",
    )
    kernelbench.set_defaults(runner=_kernelbench)

    # Not part of ``all``: throughput columns are host wall-clock /
    # CPU-time; one worker process per site (see DESIGN.md,
    # "Federation & control-plane sharding").
    federation = sub.add_parser(
        "federation",
        help=(
            "federated multi-site sweep: site count x cross-site "
            "traffic fraction, one kernel shard per site"
        ),
    )
    federation.add_argument("--seed", type=int, default=2004)
    federation.add_argument(
        "--sites",
        type=int,
        nargs="+",
        default=[1, 4, 16],
        help="site counts to sweep (include 1 for the one-site base)",
    )
    federation.add_argument(
        "--cross",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.3],
        help="cross-site traffic fractions to sweep",
    )
    federation.add_argument(
        "--plants",
        type=int,
        default=8,
        help="plants per site (16 sites x 625 = the 10k-plant rung)",
    )
    federation.add_argument(
        "--requests-per-site",
        type=int,
        default=160,
        help="VM creation requests per site per sweep point",
    )
    federation.add_argument(
        "--rack-size",
        type=int,
        default=None,
        help="plants per rack broker (default: scenario default, 8)",
    )
    federation.add_argument(
        "--spill-deadline",
        type=float,
        default=None,
        help=(
            "cross-site spill bid/ack deadline in simulated seconds "
            "(default: scenario default, 400; raise it when large "
            "sites push create latency past it)"
        ),
    )
    federation.add_argument(
        "--deadline",
        type=float,
        default=600.0,
        help="wall-clock abort deadline per sharded run (seconds)",
    )
    federation.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON record (points, costs, fingerprint)",
    )
    federation.set_defaults(runner=_federation)

    # Not part of ``all``: fault-injection policy-ladder sweep (see
    # DESIGN.md, "Fault model & recovery").
    chaos = sub.add_parser(
        "chaos",
        help=(
            "deterministic fault injection: sweep MTBF over the "
            "surface/retry/deadline/breaker recovery ladder"
        ),
    )
    chaos.add_argument("--seed", type=int, default=2004)
    chaos.add_argument("--requests", type=int, default=48)
    chaos.add_argument(
        "--rate",
        type=float,
        default=0.1,
        help="arrival rate (requests per simulated second)",
    )
    chaos.add_argument(
        "--mtbf",
        type=float,
        nargs="+",
        default=[300.0, 900.0],
        help="mean time between faults per target (seconds) to sweep",
    )
    chaos.add_argument(
        "--mttr",
        type=float,
        default=60.0,
        help="mean fault duration (seconds)",
    )
    chaos.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON report (metrics + recorded fault plans)",
    )
    chaos.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help=(
            "re-run the fault schedules recorded in a saved report "
            "(ignores --seed/--requests/--rate/--mtbf/--mttr)"
        ),
    )
    chaos.set_defaults(runner=_chaos)

    # Not part of ``all``: the cost columns are host wall-clock /
    # CPU-time (see DESIGN.md, "Workload engine & streaming metrics").
    megaload = sub.add_parser(
        "megaload",
        help=(
            "trace-driven multi-tenant load on federated sites with "
            "streaming metrics; scales to a million requests"
        ),
    )
    megaload.add_argument("--seed", type=int, default=2004)
    megaload.add_argument(
        "--sites",
        type=int,
        default=4,
        help="federated sites (one kernel shard per site at the max)",
    )
    megaload.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="shard counts to sweep (must not exceed --sites)",
    )
    megaload.add_argument(
        "--requests-per-site",
        type=int,
        default=250,
        help=(
            "requests per site (16 sites x 62500 = the 1M-request "
            "rung)"
        ),
    )
    megaload.add_argument(
        "--plants",
        type=int,
        default=None,
        help="plants per site (default: scenario default, 8)",
    )
    megaload.add_argument(
        "--rate",
        type=float,
        default=None,
        help="aggregate arrival rate per site (default: scenario, 2.0)",
    )
    megaload.add_argument(
        "--cross",
        type=float,
        default=None,
        help="cross-site traffic fraction (default: scenario, 0.1)",
    )
    megaload.add_argument(
        "--spill-deadline",
        type=float,
        default=None,
        help="cross-site spill ack deadline (default: scenario, 400)",
    )
    megaload.add_argument(
        "--deadline",
        type=float,
        default=1800.0,
        help="wall-clock abort deadline per sharded run (seconds)",
    )
    megaload.add_argument(
        "--trace-capacity",
        type=int,
        default=100_000,
        metavar="N",
        help=(
            "bounded tracer size per site in the determinism recheck "
            "(dropped events are reported)"
        ),
    )
    megaload.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON record (points, quantiles, fingerprints)",
    )
    megaload.set_defaults(runner=_megaload)

    # Not part of ``all``: the robustness ladder composes a grid
    # fault plan with the flash-crowd trace (see DESIGN.md,
    # "Grid-scale chaos & admission control").
    megachaos = sub.add_parser(
        "megachaos",
        help=(
            "grid resilience ladder: site blackout + flash crowd "
            "over none/faults/failover/admission"
        ),
    )
    megachaos.add_argument("--seed", type=int, default=2004)
    megachaos.add_argument(
        "--sites",
        type=int,
        default=4,
        help="federated sites (one kernel shard per site at the max)",
    )
    megachaos.add_argument(
        "--shards",
        type=int,
        default=4,
        help="kernel shards for the ladder runs (<= --sites)",
    )
    megachaos.add_argument(
        "--requests-per-site",
        type=int,
        default=150,
        help="requests per site per ladder rung",
    )
    megachaos.add_argument(
        "--blackout-site",
        type=int,
        default=1,
        help="which site goes dark",
    )
    megachaos.add_argument(
        "--blackout-at",
        type=float,
        default=110.0,
        help="blackout start (simulated seconds)",
    )
    megachaos.add_argument(
        "--blackout-duration",
        type=float,
        default=60.0,
        help="blackout length (simulated seconds)",
    )
    megachaos.add_argument(
        "--crash-plants",
        type=int,
        default=0,
        help="plants per site on a background crash/recover renewal",
    )
    megachaos.add_argument(
        "--mtbf",
        type=float,
        default=600.0,
        help="mean time between background crashes per plant",
    )
    megachaos.add_argument(
        "--mttr",
        type=float,
        default=60.0,
        help="mean background crash duration",
    )
    megachaos.add_argument(
        "--wan-site",
        type=int,
        default=None,
        help="also partition this site's outbound spill link",
    )
    megachaos.add_argument(
        "--wan-severity",
        type=float,
        default=0.0,
        help=(
            "0 = full partition; 0<s<1 = degrade bandwidth to that "
            "fraction"
        ),
    )
    megachaos.add_argument(
        "--spill-attempts",
        type=int,
        default=3,
        help="spill rounds on the failover/admission rungs",
    )
    megachaos.add_argument(
        "--spill-backoff",
        type=float,
        default=20.0,
        help="base backoff between spill rounds (doubles per round)",
    )
    megachaos.add_argument(
        "--shed-depth",
        type=int,
        default=240,
        help="tier-0 in-flight ceiling on the admission rung",
    )
    megachaos.add_argument(
        "--preempt-depth",
        type=int,
        default=160,
        help="in-flight depth that triggers pool preemption",
    )
    megachaos.add_argument(
        "--deadline",
        type=float,
        default=1800.0,
        help="wall-clock abort deadline per sharded run (seconds)",
    )
    megachaos.add_argument(
        "--trace-capacity",
        type=int,
        default=100_000,
        metavar="N",
        help="bounded tracer size per site in the determinism recheck",
    )
    megachaos.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help=(
            "write the JSON report (ladder points, recorded plan, "
            "fingerprints) — replay-stable, no wall-clock fields"
        ),
    )
    megachaos.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help=(
            "re-run the plan and config recorded in a saved report "
            "(ignores every knob except --deadline/--trace-capacity)"
        ),
    )
    megachaos.set_defaults(runner=_megachaos)

    everything = sub.add_parser("all", help="regenerate every artifact")
    everything.add_argument("--seed", type=int, default=2004)
    everything.set_defaults(runner=_all)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    print(args.runner(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
