"""What a create parked at its warehouse transfer holds, by component.

Run::

    python3 benchmarks/perf/parked.py [--out F]

It steps site 0 of a ``grid_overload`` grid on its own (the workload's
parameters at seed :data:`SEED`, no spill links, so every arrival is
placed at home) until :data:`PARKED` of its creates are parked at
their warehouse transfer, and measures what goes when they go: each
parked generator is closed, innermost first, the collector runs, and
the traced bytes freed are divided by their number.  The generators
themselves are counted with ``sys.getsizeof``; the rest of the freed
bytes are grouped by the file that allocated them, where a block
allocated in generated code (``<string>``: a ``NamedTuple``'s
``__new__``) counts in the nearest ``src/repro/`` file that called it.
A second site repeats it with ``cProfile`` enabled while it steps, as
``benchmarks/e2e/run.py``'s call-counting repetition does: a profiler
gives every live generator a frame object of its own.  The plain
figure repeats within 1 B; one profiled run cannot resolve less than
about 50 B a create (repeated runs read 6,512–6,564 B).

Every figure is ``tracemalloc`` net of what was freed, so the script
runs in an interpreter traced from its start, :data:`FRAMES` frames
deep (it re-executes itself under ``-X tracemalloc=FRAMES`` when it is
not).  It prints one JSON record.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

if __package__ in (None, ""):  # run as a script: import the checkout
    ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
from repro.sim.kernel import Environment, Process  # noqa: E402
from repro.sim.shard.scenarios import get_scenario  # noqa: E402
from repro.sim.storage import NFSServer  # noqa: E402

__all__ = [
    "REQUEST_FRAME",
    "SEED",
    "PARKED",
    "park_grid_creates",
    "held_bytes",
    "measure",
]

#: The outermost frame of a grid site's create.
REQUEST_FRAME = "GridScenario._request"

#: The grid's seed and how many creates the record parks.
SEED = 7919
PARKED = 100
#: Frames a traced block keeps: the allocating one and its caller, the
#: ``src/repro/`` frame that calls a ``NamedTuple``'s ``__new__``.
FRAMES = 2


class _NotingEnvironment(Environment):
    """An environment that keeps the processes of a grid site's
    requests, for the measurement to find them."""

    def __init__(self) -> None:
        super().__init__()
        self.requests: List[Process] = []

    def process(self, generator) -> Process:
        proc = super().process(generator)
        if generator.gi_code.co_qualname == REQUEST_FRAME:
            self.requests.append(proc)
        return proc


def park_grid_creates(count: int):
    """Step site 0 of a ``grid_overload`` grid until at least ``count``
    of its creates are parked at their warehouse transfer; return the
    site's handle and the parked processes."""
    workload = WORKLOADS["grid_overload"]
    scenario = get_scenario("megaload")
    params = scenario.resolve(
        {
            k: v
            for k, v in workload.scaled(0.25).items()
            if k not in ("sites", "shards")
        }
    )
    env = _NotingEnvironment()
    # The run seed, as the runner passes it: the site derives its own.
    handle = scenario.build_site(
        env, 0, workload.params["sites"], SEED, params
    )
    scenario.start(handle, {})
    transfer = NFSServer.copy_to_host.__code__
    parked: List[Process] = []
    while len(parked) < count:
        env.step()
        parked = [
            proc
            for proc in env.requests
            if proc._stack is not None and proc._stack[-1].gi_code is transfer
        ]
    return handle, parked


def _where(filename: str) -> str:
    """A traced block's file, from the package or library root."""
    for marker in ("/src/", "/lib/python3"):
        if marker in filename:
            return filename.split(marker, 1)[1].split("/", 1)[-1]
    return filename


def _booked(traceback: tracemalloc.Traceback) -> str:
    """The file a traced block counts in: the one that allocated it,
    or for generated code the nearest ``src/repro/`` caller (a
    traceback lists its frames oldest first)."""
    frames = list(reversed(traceback))
    if frames[0].filename == "<string>":
        for frame in frames[1:]:
            if "/src/repro/" in frame.filename:
                return _where(frame.filename)
    return _where(frames[0].filename)


def held_bytes(parked: Sequence[Process]) -> Dict[str, float]:
    """What ``parked`` hold, per create: the traced bytes freed when
    they go, split into their generators (each with its frame) and the
    rest, by the file that allocated it."""
    count = len(parked)
    depth = len(parked[0]._stack)
    frames = 0
    by_file: Counter = Counter()
    for proc in parked:
        for gen in proc._stack:
            size = sys.getsizeof(gen)
            frames += size
            by_file[_booked(tracemalloc.get_object_traceback(gen))] -= size
    gc.collect()
    before = tracemalloc.take_snapshot()
    total = tracemalloc.get_traced_memory()[0]
    for proc in parked:
        stack, proc._stack, proc._target = proc._stack, None, None
        while stack:
            stack.pop().close()
    del stack
    gc.collect()
    freed = total - tracemalloc.get_traced_memory()[0]
    after = tracemalloc.take_snapshot()
    for stat in after.compare_to(before, "traceback"):
        by_file[_booked(stat.traceback)] -= stat.size_diff
    return {
        "held_b": round(freed / count, 1),
        "frames_b": round(frames / count, 1),
        "frames": depth,
        "records_b": round((freed - frames) / count, 1),
        "records_by_file_b": {
            name: size / count for name, size in by_file.most_common()
        },
    }


#: A file whose records come to less than this many bytes a create in
#: the plain run is counted under ``other``.
OTHER_BELOW_B = 50.0


def measure() -> dict:
    """One record: a plain site and a profiled one, each at
    :data:`PARKED` parked creates, and the records each holds by allocating file (a
    file under :data:`OTHER_BELOW_B` in the plain run is ``other``;
    under the profiler each generator's frame object is counted in the
    file of its code)."""
    site, parked = park_grid_creates(PARKED)
    chain = [gen.gi_code.co_qualname for gen in parked[0]._stack]
    at = site.env.now
    runs = {"plain": held_bytes(parked)}
    del site, parked
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        site, parked = park_grid_creates(PARKED)
    finally:
        profile.disable()
    runs["profiled"] = held_bytes(parked)
    files = {run: runs[run].pop("records_by_file_b") for run in runs}
    by_file: Dict[str, Dict[str, float]] = {}
    other = dict.fromkeys(runs, 0.0)
    for name in {name for sizes in files.values() for name in sizes}:
        sizes = {run: files[run].get(name, 0.0) for run in runs}
        if sizes["plain"] < OTHER_BELOW_B:
            for run, size in sizes.items():
                other[run] += size
        else:
            by_file[name] = sizes
    by_file = dict(sorted(by_file.items(), key=lambda kv: -kv[1]["plain"]))
    by_file["other"] = other
    for sizes in by_file.values():
        for run in sizes:
            sizes[run] = round(sizes[run], 1)
    return {
        "command": "python3 benchmarks/perf/parked.py",
        "python": platform.python_version(),
        "seed": SEED,
        "parked": PARKED,
        "sim_t": round(at, 3),
        "chain": chain,
        "runs": runs,
        "records_by_file_b": by_file,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the record here")
    args = parser.parse_args(argv)
    if not (
        tracemalloc.is_tracing()
        and sys._xoptions.get("tracemalloc")
        and tracemalloc.get_traceback_limit() >= FRAMES
    ):
        os.execv(
            sys.executable,
            [sys.executable, "-X", f"tracemalloc={FRAMES}", __file__,
             *sys.argv[1:]],
        )
    record = measure()
    text = json.dumps(record, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
