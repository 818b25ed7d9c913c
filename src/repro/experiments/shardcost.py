"""What a sharded run cost, as measured — shared by every sweep.

Wall-clock, CPU-seconds summed over workers and goodput (successful
creates) per summed CPU-second; against the sweep's one-shard run of
the same work, ``sync_cpu_ratio`` (the CPU price of synchronization)
and ``wall_speedup`` (what a user of the simulator waits for).  A
point run with more shards than this process has cores is
``projected``: its workers were time-sliced, so its wall-clock is not
what that many cores would deliver.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.tables import point_record
from repro.sim.shard.runner import ShardRunResult

__all__ = [
    "COST_COLUMNS",
    "shard_cost",
    "cost_cells",
    "cost_notes",
    "sweep_record",
    "overload_banner",
]

#: The columns :func:`cost_cells` fills (the wall-clock cell ends in the
#: star or a blank, so its header does too).
COST_COLUMNS = {
    "wall (s) ": ">10", "cpu (s)": ">8.2f", "sync cpu": ">9",
    "wall speedup": ">13", "goodput/cpu-s": ">14.1f",
}


def shard_cost(
    run: ShardRunResult, goodput: int, earlier: Sequence = ()
) -> Dict[str, Any]:
    """What ``run`` cost: the ``cost`` of a sweep point, and the part
    of its record every sweep shares.

    ``goodput_per_cpu_s`` is ``goodput`` (the run's successful
    creates) over ``cpu_s`` — unlike events/s it does not fall when a
    create comes to need fewer events.  The two ratios are None unless
    the one-shard run of the same work is ``run`` or among the sweep's
    ``earlier`` points.  ``sync`` is per worker, in shard order.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    workers = run.shard_results
    cpu_s = round(sum(w["cpu_s"] for w in workers), 4)
    cost = {
        "wall_s": round(run.wall_s, 4),
        "cpu_s": cpu_s,
        "goodput_per_cpu_s": round(goodput / cpu_s, 2) if cpu_s else 0.0,
        "usable_cores": cores,
        "projected": run.shards > cores,
        "sync_cpu_ratio": None,
        "wall_speedup": None,
        "sync": [
            {k: round(v, 4) for k, v in w["sync"].items()} for w in workers
        ],
    }
    costs = [cost] + [p.cost for p in earlier]
    base = next((c for c in costs if len(c["sync"]) == 1), None)
    if base and base["cpu_s"] > 0 and cost["wall_s"] > 0:
        cost["sync_cpu_ratio"] = round(cost["cpu_s"] / base["cpu_s"], 3)
        cost["wall_speedup"] = round(base["wall_s"] / cost["wall_s"], 3)
    return cost


def cost_cells(cost: Dict[str, Any]) -> Tuple[Any, ...]:
    """The cells under :data:`COST_COLUMNS`; a projected run's
    wall-clock is starred, a ratio without a one-shard run is None."""
    ratios = (
        None if cost[key] is None else f"{cost[key]:.2f}x"
        for key in ("sync_cpu_ratio", "wall_speedup")
    )
    return (
        f"{cost['wall_s']:.2f}{'*' if cost['projected'] else ' '}",
        cost["cpu_s"],
        *ratios,
        cost["goodput_per_cpu_s"],
    )


def cost_notes(points: Sequence, labels: Sequence[str] = ()) -> List[str]:
    """The lines under a sweep's table, from its points' ``cost``: the
    star's legend, then where every multi-shard point's workers spent
    their wall time (after its label, if any), one value per worker."""
    notes = []
    if any(p.cost["projected"] for p in points):
        notes.append(
            "* more shards than the cores this process may use: "
            "its workers were time-sliced"
        )
    for i, p in enumerate(points):
        sync = p.cost["sync"]
        if len(sync) > 1:
            notes.append(
                f"{labels[i] if labels else ''}{len(sync)} shards: "
                f"simulated {_each(sync, 'advance_s', '.2f')} s, "
                f"flushing {_each(sync, 'flush_s', '.2f')} s, "
                f"blocked {_each(sync, 'select_s', '.2f')} s "
                f"(on full pipes {_each(sync, 'block_s', '.2f')} s); "
                f"{_each(sync, 'turns', ',d')} turns, "
                f"{_each(sync, 'event_turns', ',d')} with events; "
                f"{_each(sync, 'nulls', ',d')} nulls for "
                f"{_each(sync, 'records', ',d')} messages"
            )
    return notes


def sweep_record(result: Any, **grid: Any) -> Dict[str, Any]:
    """What every sharded sweep's record holds: the seed, the ``grid``
    it swept, the resolved scenario parameters, a record per point and
    the determinism recheck."""
    return {
        "seed": result.seed,
        **grid,
        "params": dict(sorted(result.params.items())),
        "points": [point_record(p) for p in result.points],
        "deterministic": result.recheck.ok,
        "fingerprint": result.recheck.fingerprint,
    }


def _each(sync: List[Dict[str, float]], key: str, fmt: str) -> str:
    return " / ".join(format(worker[key], fmt) for worker in sync)


def overload_banner(outcomes: Iterable[Tuple[int, int]]) -> List[str]:
    """The line a report opens with (else nothing) when its worst
    point — of ``(arrivals, succeeded)`` pairs — lost more than half
    its arrivals."""
    arrivals, ok = min(outcomes, key=lambda pair: pair[1] / max(pair[0], 1))
    if 2 * ok >= arrivals:
        return []
    failed = arrivals - ok
    return [
        f"{failed:,} of {arrivals:,} requests failed "
        f"({100 * failed / arrivals:.0f} %): this run measures the "
        "overload path, not throughput"
    ]
