#!/usr/bin/env python3
"""The one benchmark command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace [0|1]] [--scale X] [--out FILE]

(also ``PYTHONPATH=src python -m benchmarks.e2e.run ...``).  Prints
every metric by name with its unit, runs the output checks, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``;
the exit status is non-zero when a check fails.

Untraced (``--trace 0``): a warm-up repetition, one under a call
counter, then timed repetitions until ``--seconds`` have passed, with
fresh-interpreter set-up probes in between; host-clock metrics are
medians over the timed repetitions, sim-clock metrics and counts must
repeat exactly.  Traced (``--trace 1``): warm-up, then untraced/traced
repetition pairs; the traced ones run under the timing shims of
``trace.py`` and yield the per-layer metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up probes time from interpreter start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Fresh-interpreter set-up probes per run, spread between the
#: repetitions so that one slow spell of the machine cannot cover them all.
SETUP_PROBES = 5
#: Timed repetitions needed before ``--seconds`` may end the run.
MIN_REPS = 2


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a bare
    checkout and pin the environment the numbers depend on."""
    # The result cache would turn repetitions into cache hits and
    # write outside the checkout.
    os.environ["REPRO_NO_CACHE"] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"e2e: no program to measure: {ROOT / 'src' / 'repro'} missing")
    # Run as a script, this directory leads sys.path and its trace.py
    # would shadow the standard library's.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


_bootstrap()

from benchmarks.e2e import spec  # noqa: E402
from benchmarks.e2e.trace import tracing  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    WORKLOADS,
    Outcome,
    Workload,
    drain_arrivals,
    usable_cores,
)

# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


def _cpu_now() -> float:
    """User+sys CPU of this process and of every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _slower_than(summary, limit_s: float) -> int:
    """Successful creates whose latency bin lies wholly above the limit
    (read from the sketch's public state; resolution = one 1 % bin)."""
    sketch = summary.to_state()["sketch"]
    growth = math.log1p(sketch["rel_err"])
    return sum(
        count
        for index, count in sketch["bins"]
        if index >= 0 and sketch["lo"] * math.exp(index * growth) >= limit_s
    )


def sim_metrics(outcome: Outcome, slo_s: float) -> dict:
    """The sim-clock and count end-to-end metrics of one repetition."""
    summary = outcome.summary
    overall = summary.overall()
    ok = summary.total("ok")
    arrivals = outcome.arrivals
    return {
        "events_per_request": outcome.events / arrivals,
        "create_p50_sim_s": overall.quantile(0.50),
        "create_p99_sim_s": overall.quantile(0.99),
        "goodput_per_sim_s": ok / outcome.makespan_sim_s,
        "ok_frac": ok / arrivals,
        "failed_frac": (arrivals - ok) / arrivals,
        "slo_miss_frac": (arrivals - ok + _slower_than(overall, slo_s))
        / arrivals,
        "makespan_sim_s": outcome.makespan_sim_s,
    }


def _fingerprint(outcome: Outcome, sim: dict) -> tuple:
    """What must repeat exactly for a seed — at any shard count, traced
    or not: the latency-summary signature, the counters and every
    sim-clock metric."""
    return (
        outcome.summary.state_signature(),
        outcome.arrivals,
        outcome.created,
        outcome.destroyed,
        tuple(sorted(sim.items())),
    )


def _repeat_exactly(reps: list) -> bool:
    return len({rep["fingerprint"] for rep in reps}) == 1


def repetition(
    workload: Workload, seed: int, params: dict, count_calls: bool = False
) -> dict:
    """Set up (untimed) and run (timed) once.

    ``count_calls`` runs the window under ``cProfile`` and adds the
    number of Python-level function calls it executed; that repetition's
    times are not measurements.
    """
    gc.collect()
    t0 = time.perf_counter()
    inputs = workload.setup(seed, params)
    setup_s = time.perf_counter() - t0
    counter = cProfile.Profile(builtins=False) if count_calls else None
    cpu0, t0 = _cpu_now(), time.perf_counter()
    with counter or contextlib.nullcontext():
        outcome = workload.run(inputs)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_now() - cpu0
    py_calls = (
        sum(entry.callcount for entry in counter.getstats())
        if counter
        else None
    )
    sim = sim_metrics(outcome, workload.slo_s)
    run = outcome.extra.get("run")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if run is not None:
        rss_kb = max(rss_kb, run.peak_rss_kb)
    return {
        "outcome": outcome,
        "py_calls": py_calls,
        "inprocess_setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "sim": sim,
        "fingerprint": _fingerprint(outcome, sim),
        "shards": outcome.shards,
    }


def setup_probe(args) -> float:
    """One fresh interpreter timing its own imports + set-up
    (``--probe-setup``: interpreter start to inputs ready)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", repr(args.scale), "--probe-setup",
    ]
    done = subprocess.run(
        command, check=True, capture_output=True, text=True, timeout=120
    )
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def run_checks(workload: Workload, reps: list, scale: float) -> dict:
    """name -> {"ok", "detail"}; any failure fails the run."""
    checks = {}

    def check(name: str, ok: bool, detail: str) -> None:
        previous = checks.get(name)
        if previous is None or (previous["ok"] and not ok):
            checks[name] = {"ok": bool(ok), "detail": detail}

    for rep in reps:
        out: Outcome = rep["outcome"]
        summary = out.summary
        ok, failed, shed = (
            summary.total(k) for k in ("ok", "failed", "shed")
        )
        check(
            "accounting",
            out.arrivals == ok + failed + shed,
            f"arrivals {out.arrivals} = ok {ok} + failed {failed} + shed {shed}",
        )
        tenants = {
            t: sum(c[k] for k in ("ok", "failed", "shed"))
            for t, c in summary.counters.items()
        }
        check(
            "accounting_per_tenant",
            tenants == {t: n for t, n in out.tenant_arrivals.items() if n},
            f"offered {out.tenant_arrivals} vs recorded {tenants}",
        )
        # A pool's idle clones are its own creates, outside the
        # workload's created/destroyed counters.
        pooled = int(out.leaks.get("pool_slots", 0))
        check(
            "created_eq_destroyed",
            out.created == out.destroyed + out.live - pooled,
            f"created {out.created} = destroyed {out.destroyed} "
            f"+ still live {out.live} - idle in a pool {pooled}",
        )
        leaks = out.leaks
        check(
            "no_orphans",
            not leaks
            or (
                leaks["host_vms"] == leaks["infosys_vms"] == pooled
                and leaks["admitted_mb"] == 0
                and leaks["network_leases"] <= pooled
                and (leaks["host_memory_mb"] > 0) == (pooled > 0)
            ),
            f"residue after drain {leaks}: all of it belongs to {pooled} "
            "idle pooled clone(s) their pool still accounts for",
        )
        inherited = out.extra.get("inherited_params")
        if inherited is not None:
            check(
                "params_all_explicit",
                not inherited,
                f"scenario parameters left to defaults(): {inherited}",
            )
    shard_counts = sorted({rep["shards"] for rep in reps})
    check(
        "determinism",
        _repeat_exactly(reps),
        f"{len(reps)} repetitions (shard counts {shard_counts}) share one "
        "summary signature and one set of sim-clock metrics",
    )
    extra = reps[-1]["outcome"].extra
    if "mean_latency_s" in extra:  # the paper's suite: its references
        lat = extra["mean_latency_s"]
        check(
            "paper_latency_order",
            lat[32] < lat[64] < lat[256],
            "mean create latency 32 < 64 < 256 MB: "
            + ", ".join(f"{m} MB {lat[m]:.2f} s" for m in sorted(lat)),
        )
        if scale >= 1.0:
            clone = extra["mean_clone_s"][256]
            check(
                "paper_clone_256mb",
                abs(clone - spec.PAPER_CLONE_256MB_S)
                <= 0.10 * spec.PAPER_CLONE_256MB_S,
                f"mean 256 MB clone {clone:.2f} s vs paper "
                f"{spec.PAPER_CLONE_256MB_S} s (Section 4.3), band 10 %",
            )
    if scale >= 1.0:
        sim = reps[-1]["sim"]
        n_ok = reps[-1]["outcome"].summary.total("ok")
        check(
            "p99_has_10_beyond",
            n_ok >= 1000,
            f"{n_ok} successful creates behind create_p99_sim_s",
        )
        for metric, (low, high) in workload.regime.items():
            check(
                f"regime_{metric}",
                low <= sim[metric] <= high,
                f"{metric} {sim[metric]:.6g} within [{low}, {high}]: the "
                "workload still measures what its name says",
            )
    return checks


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    seed: int, params: dict,
    plain: dict, traced: dict, tracer, parse_delta: dict, sharded: dict,
) -> dict:
    """Per-layer numbers of one untraced/traced repetition pair.

    Counts come from public attributes of the testbeds the traced
    repetition built (it follows the same trajectory as the untraced
    one — checked) and from ``site_results[*]["stats"]``; ``*_self_s``
    from the spans.
    """
    spans = tracer.by_name()

    def self_s(*prefixes: str) -> float:
        return sum(
            agg["self_s"] for name, agg in spans.items()
            if name.startswith(prefixes)
        )

    def calls(*prefixes: str) -> int:
        return sum(
            agg["calls"] for name, agg in spans.items()
            if name.startswith(prefixes)
        )

    beds = tracer.beds
    out: Outcome = traced["outcome"]
    stats = out.extra.get("stats", {})
    ok = out.summary.total("ok")
    caches = [h.state_cache for b in beds for h in b.hosts if h.state_cache]
    clones = [r.total_time for b in beds for r in b.clone_records()]
    match = [b.warehouse.match_stats for b in beds]
    pools = [p for b in beds for p in b.pools]
    shops = [b.shop for b in beds]
    bid_rounds = sum(s.collector.collections for s in shops)
    m = {
        "sim.kernel.events": out.events,
        "sim.kernel.events_per_cpu_s": _ratio(
            plain["outcome"].events, plain["cpu_s"]
        ),
        "sim.kernel.self_s": self_s("sim.kernel."),
        "sim.network.transfers": calls("sim.network."),
        "sim.network.mb": sum(link.total_mb for link in tracer.links),
        "sim.network.call_self_s": self_s("sim.network."),
        "sim.storage.nfs_requests": sum(b.nfs.requests_served for b in beds),
        "sim.storage.nfs_mb": sum(b.nfs.mb_served for b in beds),
        "sim.storage.coalesced": sum(
            b.nfs.coalescer.requests_coalesced for b in beds
        ),
        "sim.host.cache_hit_ratio": _ratio(
            sum(c.hits for c in caches),
            sum(c.hits + c.misses for c in caches),
        ),
        "sim.hypervisor.clones": len(clones),
        "sim.hypervisor.clone_p50_sim_s": _median(clones),
        "core.matching.selects": sum(s["queries"] for s in match),
        "core.matching.memo_hit_ratio": _ratio(
            sum(s["memo_hits"] for s in match),
            sum(s["queries"] for s in match),
        ),
        "core.matching.profiles_tested": sum(
            b.warehouse.index_stats["profiles_tested"] for b in beds
        ),
        "core.matching.self_s": self_s("core.matching."),
        "core.classad.matches": calls("core.classad.matches"),
        "core.classad.parse_hit_ratio": _ratio(
            parse_delta["hits"], parse_delta["hits"] + parse_delta["misses"]
        ),
        "core.classad.self_s": self_s("core.classad."),
        "plant.estimates": calls("plant.estimate"),
        "plant.estimate_self_s": self_s("plant.estimate"),
        "plant.plan_self_s": self_s("plant.plan"),
        "plant.creates": calls("plant.create"),
        "plant.create_p50_sim_s": _median(tracer.sim_durations("plant.create")),
        "plant.pool_hit_ratio": _ratio(
            sum(p.hits for p in pools),
            sum(p.hits + p.misses for p in pools),
        ),
        "shop.creates": calls("shop.create"),
        "shop.bid_rounds": bid_rounds,
        "shop.bids_collected": sum(s.collector.bids_collected for s in shops),
        "shop.bid_rounds_per_ok": _ratio(bid_rounds, ok),
        "shop.transport_calls": sum(s.transport.calls for s in shops),
        "shop.create_self_s": self_s(
            "shop.create", "shop.estimate", "shop.destroy"
        ),
        "shop.protocol_self_s": self_s("shop.protocol."),
        "federation.spills_sent": stats.get("spills_sent", 0),
        "federation.spill_ok_ratio": _ratio(
            stats.get("spilled_ok", 0), stats.get("spills_sent", 0)
        ),
        "federation.shed": out.summary.total("shed"),
        "federation.preempted": stats.get("preempted", 0),
        "federation.admit_calls": calls("federation.admission."),
        "federation.gateway_self_s": self_s("federation."),
        "workloads.traces.arrivals": stats.get("arrivals", 0),
        "workloads.traces.gen_arrivals_per_s": 0.0,
        "analysis.streaming.records": calls("analysis.streaming."),
        "analysis.streaming.record_self_s": self_s("analysis.streaming."),
        "analysis.streaming.merge_s": plain["outcome"].extra.get(
            "merge_s", 0.0
        ),
        "plant.pool_residue": int(out.leaks.get("pool_slots", 0)),
        "trace.overhead_ratio": _ratio(traced["wall_s"], plain["wall_s"]),
        "trace.cpu_s": traced["cpu_s"],
        "trace.spans": len(tracer.spans),
    }
    if "stats" in out.extra:
        n, seconds = drain_arrivals(seed, params)
        m["workloads.traces.gen_arrivals_per_s"] = _ratio(n, seconds)
    shard = {
        name: 0.0 for name, _, _, _ in spec.PER_LAYER
        if name.startswith("sim.shard.")
    }
    if sharded is not None and sharded["shards"] > 1:
        run = sharded["outcome"].extra["run"]
        workers = run.shard_results
        cpu_sum = sum(w["cpu_s"] for w in workers)
        wall_max = max(w["wall_s"] for w in workers)
        shard.update({
            "sim.shard.cpu_s_sum": cpu_sum,
            "sim.shard.wall_s_max": wall_max,
            "sim.shard.blocked_frac": statistics.fmean(
                1.0 - _ratio(w["cpu_s"], w["wall_s"]) for w in workers
            ),
            "sim.shard.msgs_sent": sum(
                sum(w["sent"].values()) for w in workers
            ),
            "sim.shard.sync_cpu_ratio": _ratio(cpu_sum, plain["cpu_s"]),
            "sim.shard.speedup_wall": _ratio(
                plain["wall_s"], sharded["wall_s"]
            ),
            "sim.shard.fork_join_s": run.wall_s - wall_max,
        })
    m.update(shard)
    return m


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------


def _quartiles(values: list) -> dict:
    q1 = q3 = values[0]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "q3": q3, "n": len(values), "samples": values}


def warm_up(workload: Workload, seed: int, params: dict) -> list:
    """A plain repetition, then one under the call counter.

    Both run in-process (a sharded workload at one shard: neither the
    counter nor the trace shims cross ``fork``).  The first fills every
    cache and lazy import, so the second counts steady-state work and
    ``py_calls_per_request`` does not depend on the process's history.
    """
    params = {**params, **workload.inprocess_overrides}
    return [
        repetition(workload, seed, params),
        repetition(workload, seed, params, count_calls=True),
    ]


def end_to_end(setup_samples: list, warm: list, timed: list) -> dict:
    """name -> {"value", "unit", "clock"[, "q1", "q3", "n", "samples"]}."""
    host = {
        "setup_s": setup_samples,
        "wall_s": [r["wall_s"] for r in timed],
        "cpu_s": [r["cpu_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    exact = dict(timed[-1]["sim"])
    counted = warm[-1]
    exact["py_calls_per_request"] = (
        counted["py_calls"] / counted["outcome"].arrivals
    )
    exact["determinism_ok"] = 1 if _repeat_exactly(warm + timed) else 0
    values = {}
    for metric in spec.END_TO_END:
        entry = {"unit": metric.unit, "clock": metric.clock}
        if metric.clock == "host":
            samples = host[metric.name]
            # Noise on a shared box only ever adds: the least disturbed
            # set-up probe is the best one.  Peak RSS only ever grows.
            pick = {"setup_s": min, "peak_rss_mb": max}.get(
                metric.name, statistics.median
            )
            entry["value"] = pick(samples)
            entry.update(_quartiles(samples))
        else:
            entry["value"] = exact[metric.name]
        values[metric.name] = entry
    return values


def run_untraced(workload: Workload, args, params: dict) -> dict:
    # Set-up probes go between the repetitions, not in one block.
    setup_samples = [setup_probe(args)]
    warm = warm_up(workload, args.seed, params)
    timed = []
    started = time.perf_counter()
    while (
        len(timed) < MIN_REPS
        or time.perf_counter() - started < args.seconds
    ):
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_probe(args))
        timed.append(repetition(workload, args.seed, params))
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(args))
    return {
        "end_to_end": end_to_end(setup_samples, warm, timed),
        "per_layer": {},
        "checks": run_checks(workload, warm + timed, args.scale),
        "repetitions": {"setup_probes": len(setup_samples),
                        "warmup": len(warm), "timed": len(timed)},
        "last": timed[-1],
    }


def run_traced(workload: Workload, args, params: dict) -> dict:
    from repro.core.classad import parse_cache_info

    # Shims do not cross fork(): trace, and pair with, one shard.
    one_shard = {**params, **workload.inprocess_overrides}
    warm = warm_up(workload, args.seed, params)
    pairs, untraced, reps = [], [], list(warm)
    out_dir = HERE / "out"
    started = time.perf_counter()
    while not pairs or time.perf_counter() - started < args.seconds:
        plain = repetition(workload, args.seed, one_shard)
        sharded = None
        if one_shard != params:
            sharded = repetition(workload, args.seed, params)
        before = parse_cache_info()
        with tracing() as tracer:
            traced = repetition(workload, args.seed, one_shard)
        after = parse_cache_info()
        parse_delta = {k: after[k] - before[k] for k in ("hits", "misses")}
        pairs.append(layer_metrics(
            args.seed, params, plain, traced, tracer, parse_delta, sharded,
        ))
        untraced.append(sharded or plain)
        reps += [r for r in (plain, sharded, traced) if r is not None]
        out_dir.mkdir(exist_ok=True)
        tracer.write(
            out_dir / f"trace_{workload.name}.json",
            {"workload": workload.name, "seed": args.seed,
             "scale": args.scale, "shards": 1},
        )
        del tracer
    layers = {
        name: {"value": statistics.median(p[name] for p in pairs),
               "unit": unit}
        for name, unit, _, _ in spec.PER_LAYER
    }
    return {
        # Few untraced repetitions and an in-process set-up time here:
        # context for the layer numbers, not the figures to compare.
        "end_to_end": end_to_end(
            [warm[0]["inprocess_setup_s"]], warm, untraced
        ),
        "per_layer": layers,
        "checks": run_checks(workload, reps, args.scale),
        "repetitions": {"warmup": len(warm), "pairs": len(pairs)},
        "last": untraced[-1],
    }


# ---------------------------------------------------------------------------
# Record and command line
# ---------------------------------------------------------------------------


def environment(args, params: dict, last: dict) -> dict:
    canonical = json.dumps(params, sort_keys=True, default=str)
    return {
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "REPRO_NO_CACHE": os.environ["REPRO_NO_CACHE"],
        "shards_used": last["shards"],
        "projected": bool(last["outcome"].extra.get("projected", False)),
        "params_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": args.seed,
    }


def driver_line(record: dict, last: dict) -> dict:
    """The contract's last line: gated metrics untraced, the rest traced."""
    e2e, layers = record["end_to_end"], record["per_layer"]
    if record["trace"]:
        names = spec.DRIVER_PER_LAYER
    else:
        names = spec.DRIVER_END_TO_END
    metrics = {}
    for name in names:
        entry = e2e.get(name) or layers[name]
        metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    out: Outcome = last["outcome"]
    summary = out.summary
    lost = abs(
        out.arrivals
        - sum(summary.total(k) for k in ("ok", "failed", "shed"))
    )
    return {
        "correct": record["correct"],
        # A simulated decline or shed is a correct output of the
        # simulator (failed_frac reports it); an operation *fails*
        # when the simulator loses track of a request.
        "attempted": out.arrivals,
        "failed": lost,
        "metrics": metrics,
    }


def print_report(record: dict) -> None:
    print(
        f"# e2e workload={record['workload']} seed={record['seed']} "
        f"scale={record['scale']} trace={record['trace']} "
        f"repetitions={record['repetitions']}"
    )
    for name, entry in record["end_to_end"].items():
        spread = ""
        if "q1" in entry:
            spread = (
                f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                f"n {entry['n']}]"
            )
        print(
            f"{name:34s} {entry['value']:<14.9g} {entry['unit']:6s} "
            f"{entry['clock']}{spread}"
        )
    for name, entry in record["per_layer"].items():
        print(f"{name:34s} {entry['value']:<14.9g} {entry['unit']}")
    for name, entry in record["checks"].items():
        print(f"check {name:28s} {'ok  ' if entry['ok'] else 'FAIL'} "
              f"{entry['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measuring window")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every request/image count (smoke test)")
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    params = workload.scaled(args.scale)
    if args.probe_setup:
        workload.setup(args.seed, params)
        print(repr(time.perf_counter() - _T0))
        return 0
    result = (run_traced if args.trace else run_untraced)(
        workload, args, params
    )
    last = result.pop("last")
    record = {
        "benchmark": "e2e",
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "slo_s": workload.slo_s,
        "n_ok": last["outcome"].summary.total("ok"),
        "env": environment(args, params, last),
        "params": params,
        **result,
    }
    record["correct"] = all(c["ok"] for c in record["checks"].values())
    print_report(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, default=str)
            fh.write("\n")
    print(json.dumps(driver_line(record, last)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
