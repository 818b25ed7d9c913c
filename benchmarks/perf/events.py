"""A census of the kernel events a workload executes, by what each wakes.

Run::

    python3 benchmarks/perf/events.py WORKLOAD [--seed N] [--scale X] [--top K] [--json]

It runs one repetition of an e2e workload in this interpreter (its
in-process parameters, counts scaled by ``--scale``) and files every
event the kernel pops under what the event wakes, read off its first
callback at the moment it is popped:

* ``start <generator>``: a process's first step (its ``Initialize``);
* ``resume <generator>:<line>``: a process's wake, by the innermost
  generator and the line it is suspended at;
* ``stale wake``: a wake the process drops (an interrupt superseded
  it, or the process has ended);
* ``train <callback>``: a :meth:`~repro.sim.kernel.Environment.call_each`
  member that could not run on in place;
* ``FairShareLink timer`` and ``FairShareLink timer, superseded``: a
  link's completion timer, live or overtaken by a population change
  (it wakes nothing);
* a callback's qualified name, for every other callback;
* ``nothing (<type>)``: an event with no callback left.

Each row is a count, the count per request and a share; the classes
sum to the run's ``executed_events``.  The count is exact for a seed.
Nothing is installed in ``src/``: the script swaps the kernel module's
heap pop for one that files the event before returning it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Any, Dict

if __package__ in (None, ""):  # run as a script: import the checkout
    ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
from repro.sim import kernel  # noqa: E402

__all__ = ["wake_class", "census", "main"]


def _name(fn: Any) -> str:
    """A callback's qualified name, through bound methods and partials."""
    if isinstance(fn, partial):
        return _name(fn.func)
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__qualname__", type(fn).__qualname__)


def wake_class(event: kernel.Event) -> str:
    """What ``event`` wakes, as a census class (the module docstring)."""
    callbacks = event.callbacks
    if not callbacks:
        return f"nothing ({type(event).__name__})"
    fn = callbacks[0]
    owner = getattr(fn, "__self__", None)
    if type(owner) is kernel.Process and fn.__func__ is kernel.Process._resume:
        if event is not owner._target:
            return "stale wake"
        generator = owner._stack[-1]
        name = generator.gi_code.co_qualname
        if type(event) is kernel.Initialize:
            return f"start {name}"
        return f"resume {name}:{generator.gi_frame.f_lineno}"
    if isinstance(fn, partial) and fn.func is kernel._train:
        return f"train {_name(fn.args[1])}"
    if _name(fn) == "FairShareLink._arm.<locals>.<lambda>":
        link = fn.__closure__[fn.__code__.co_freevars.index("self")]
        if fn.__defaults__[0] != link.cell_contents._timer_gen:
            return "FairShareLink timer, superseded"
        return "FairShareLink timer"
    return _name(fn)


def census(name: str, seed: int = 7919, scale: float = 1.0) -> Dict[str, Any]:
    """Run ``name`` once and file every executed event by
    :func:`wake_class`; the run's requests and ``executed_events``
    beside the classes."""
    workload = WORKLOADS[name]
    params = {**workload.scaled(scale), **workload.inprocess_overrides}
    inputs = workload.setup(seed, params)
    classes: Counter = Counter()
    pop = kernel._heappop

    def filing_pop(queue):
        entry = pop(queue)
        classes[wake_class(entry[3])] += 1
        return entry

    kernel._heappop = filing_pop
    try:
        outcome = workload.run(inputs)
    finally:
        kernel._heappop = pop
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "requests": outcome.arrivals,
        "executed_events": outcome.events,
        "classes": dict(classes.most_common()),
    }


def _table(record: Dict[str, Any], top: int) -> str:
    requests, total = record["requests"], record["executed_events"]
    lines = [
        f"{record['workload']} seed {record['seed']} scale {record['scale']}:"
        f" {total} events, {requests} requests,"
        f" {total / requests:.3f} per request",
        f"{'count':>9} {'per req':>8} {'share':>6}  wakes",
    ]
    rows = list(record["classes"].items())
    shown, rest = rows[:top], rows[top:]
    if rest:
        shown.append((f"({len(rest)} more classes)", sum(n for _, n in rest)))
    for label, count in shown:
        lines.append(
            f"{count:>9} {count / requests:>8.3f} {count / total:>6.1%}  {label}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7919)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    record = census(args.workload, args.seed, args.scale)
    print(json.dumps(record, indent=1) if args.json else _table(record, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
