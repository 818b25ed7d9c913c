"""A/B comparison of two revisions on one end-to-end workload.

Run::

    python3 benchmarks/perf/ab.py REV_A REV_B --workload W \\
        [--seed S] [--pairs N] [--reps K] [--scale X]

``REV_A`` is the base (the parent), ``REV_B`` the change.  Each is a
git revision, extracted with ``git archive`` into a temporary directory
(the repository's ``.git`` and working tree are only read), or a
directory holding a checkout.

A *sample* is one fresh child interpreter pinned to one core
(``os.sched_setaffinity``).  It imports its side's
``benchmarks.e2e.workloads``, runs the workload once to warm every
cache and lazy import, then ``K`` more times, and reports:

* ``cpu_s``: the least user+sys CPU (``getrusage``) of the ``K`` runs,
  set-up excluded, so every sample measures the same fixed work;
* ``peak_rss_mb``: the child's ``ru_maxrss``;
* ``setup_s``: host seconds from the child's first line to its first
  ``workload.setup()`` returning — what ``run.py``'s set-up probe
  measures.  ``benchmarks.e2e.run`` (and the standard library it
  loads) is imported only after that, so the figure is this script's
  own imports, the side's library and the set-up;
* the sim side: ``benchmarks/e2e/run.py``'s ``sim_metrics``, the
  outcome's counts (arrivals, VMs created, destroyed and left live)
  and the event count of every run, which must be equal across runs.

Every sample of a side reads and writes its bytecode under that side's
own ``PYTHONPYCACHEPREFIX`` in the scratch directory (the caller's
``PYTHONDONTWRITEBYTECODE`` and prefix are not passed on), and one
untimed sample a side fills it first: both sides run warm, from
bytecode compiled for them, whatever state the checkouts' own
``__pycache__`` directories are in.  An RSS verdict within about 1 %
could otherwise measure the compiler's heap.  The report names this
state.

Samples come in ``N`` pairs, one per side, with the side that goes first
alternating.  Grid workloads run in process at one shard (their
``inprocess_overrides``), so all the work is the child's own.

For each metric the report gives each side's median and quartiles, the
pairs ``B`` won, tied and lost, a two-sided sign test, the median of the
per-pair ratios ``B / A`` and a verdict under the claim rule of the
choosing-metrics guide (section 8): *claimed* when ``B`` wins at least
nine tenths of at least ten pairs and the medians differ by more than
``A``'s interquartile range, *worse* when the same holds the other way,
*unresolved* otherwise.  A comparison is refused when the sim side
differs within a side, events included, or when a sim-clock metric or
an outcome count differs between the sides: the two revisions did not
do the same work.  The kernel's event counts (:data:`EVENT_KEYS`) may
differ between the sides — a kernel change that queues fewer events
does the same simulated work — and the report prints them per side as
a count row, not as a verdict.

The report also prints the host's load average (``os.getloadavg``) at
the start and at the end of the run.  A busy neighbour can flip a
``setup_s`` verdict without moving either median, and these two lines
show it; no verdict reads them.

Exit status: 0 when compared (whatever the verdicts), 1 when refused or
a child failed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s times a child from its first line

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

__all__ = [
    "METRICS",
    "EVENT_KEYS",
    "MIN_PAIRS",
    "CLAIM_SHARE",
    "Refused",
    "sign_test",
    "compare",
    "sim_mismatch",
    "verdicts",
    "event_counts",
    "snapshot",
    "main",
]

ROOT = Path(__file__).resolve().parents[2]

#: The host-side metrics a sample records; lower is better for each.
METRICS = ("cpu_s", "peak_rss_mb", "setup_s")
#: Sim-side keys that count kernel events: equal within a side,
#: reported per side, free to differ between the sides.
EVENT_KEYS = ("events", "events_per_request")
#: Pairs needed before a verdict other than *unresolved* (section 8).
MIN_PAIRS = 10
#: Share of all pairs run that one side must win to resolve.
CLAIM_SHARE = 0.9


class Refused(Exception):
    """The two sides did not do the same simulated work."""


# ---------------------------------------------------------------------------
# Verdict logic: pure functions of the samples
# ---------------------------------------------------------------------------


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value; ties are left out beforehand."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


def _quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; quartiles as ``run.py`` takes them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def compare(a: Sequence[float], b: Sequence[float]) -> dict:
    """Paired samples of one lower-is-better metric -> summary and verdict.

    ``a[i]`` and ``b[i]`` are pair ``i``; ``B`` wins a pair when its
    value is lower, ties count for neither side.
    """
    if len(a) != len(b) or not a:
        raise ValueError("need the same non-zero number of samples per side")
    wins = sum(1 for x, y in zip(a, b) if y < x)
    losses = sum(1 for x, y in zip(a, b) if y > x)
    qa, qb = _quartiles(a), _quartiles(b)
    iqr_a = qa[2] - qa[0]
    gain = qa[1] - qb[1]  # how far B's median is below A's
    pairs = len(a)
    verdict = "unresolved"
    if pairs >= MIN_PAIRS:
        if wins >= CLAIM_SHARE * pairs and gain > iqr_a:
            verdict = "claimed"
        elif losses >= CLAIM_SHARE * pairs and -gain > iqr_a:
            verdict = "worse"
    ratios = [y / x for x, y in zip(a, b) if x]
    return {
        "a": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
        "b": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
        "pairs": pairs,
        "wins": wins,
        "ties": pairs - wins - losses,
        "losses": losses,
        "sign_p": sign_test(wins, losses),
        "ratio": statistics.median(ratios) if ratios else float("nan"),
        "verdict": verdict,
    }


def sim_mismatch(samples: Sequence[dict]) -> List[str]:
    """Sim-side keys whose value is not the same in every sample.

    Values are compared by ``repr``, so a NaN equals a NaN here.
    """
    keys = sorted(set().union(*(s.keys() for s in samples)))
    return [
        key for key in keys
        if len({repr(s.get(key)) for s in samples}) != 1
    ]


def verdicts(a: Sequence[dict], b: Sequence[dict]) -> Dict[str, dict]:
    """:func:`compare` of every metric in :data:`METRICS` over paired
    samples; :class:`Refused` when a sim-side value differs within a
    side, or one outside :data:`EVENT_KEYS` between the sides."""
    for label, side in (("A", a), ("B", b)):
        mismatch = sim_mismatch([sample["sim"] for sample in side])
        if mismatch:
            raise Refused(f"the sim side of {label} differs in {mismatch}")
    mismatch = sim_mismatch([
        {k: v for k, v in side[0]["sim"].items() if k not in EVENT_KEYS}
        for side in (a, b)
    ])
    if mismatch:
        raise Refused(f"the sim side differs in {mismatch}")
    return {
        metric: compare([s[metric] for s in a], [s[metric] for s in b])
        for metric in METRICS
    }


def event_counts(a: Sequence[dict], b: Sequence[dict]) -> Dict[str, tuple]:
    """``key -> (A's value, B's value)`` for each of :data:`EVENT_KEYS`
    (one value a side, as :func:`verdicts` checks)."""
    return {key: (a[0]["sim"][key], b[0]["sim"][key]) for key in EVENT_KEYS}


# ---------------------------------------------------------------------------
# One sample: a fresh child interpreter
# ---------------------------------------------------------------------------


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def child(
    side: Path, workload_name: str, seed: int, reps: int, scale: float
) -> dict:
    """Measure one sample in this process (which must be fresh)."""
    for path in (side / "src", side):
        sys.path.insert(0, str(path))
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    params = {**workload.scaled(scale), **workload.inprocess_overrides}
    inputs = workload.setup(seed, params)
    setup_s = time.perf_counter() - _T0
    from benchmarks.e2e.run import sim_metrics

    cpu, sims = [], []
    for rep in range(reps + 1):  # the first one warms up
        if rep:
            gc.collect()
            inputs = workload.setup(seed, params)
        start = _cpu_s()
        outcome = workload.run(inputs)
        elapsed = _cpu_s() - start
        sim = sim_metrics(outcome, workload.slo_s)
        sims.append({
            **sim,
            "events": outcome.events,
            "arrivals": outcome.arrivals,
            "created": outcome.created,
            "destroyed": outcome.destroyed,
            "live": outcome.live,
        })
        del inputs, outcome
        if rep:
            cpu.append(elapsed)
    mismatch = sim_mismatch(sims)
    if mismatch:
        raise Refused(f"{side}: runs of one child differ in {mismatch}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cpu_s": min(cpu),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": setup_s,
        "sim": sims[0],
    }


#: Environment variables a sample does not inherit: the child imports
#: nothing but its side's code, and sets its own bytecode state.
_NOT_INHERITED = (
    "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"
)

#: The bytecode state every sample runs under, as the report states it.
BYTECODE_STATE = (
    "warm: each side's own PYTHONPYCACHEPREFIX, written by one untimed "
    "sample of that side"
)


def _sample(side: Path, args, core: int, pycache: Path) -> dict:
    """One child's sample of ``side``; the child imports nothing but
    ``side``'s code (``PYTHONPATH`` is not passed on) and reads and
    writes its bytecode under ``pycache``, that side's own prefix,
    whatever the caller's environment says about bytecode."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", str(side),
        "--core", str(core), "--workload", args.workload,
        "--seed", str(args.seed), "--reps", str(args.reps),
        "--scale", repr(args.scale),
    ]
    env = {k: v for k, v in os.environ.items() if k not in _NOT_INHERITED}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    done = subprocess.run(
        command, capture_output=True, text=True, env=env, cwd=side
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"a sample of {side} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Sides
# ---------------------------------------------------------------------------


def _describe(rev: str) -> str:
    """``rev`` and the commit it names, or the directory's absolute path."""
    if Path(rev).is_dir():
        return str(Path(rev).resolve())
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    return f"{rev} ({commit})"


def snapshot(rev: str, scratch: Path) -> Path:
    """A directory holding ``rev``: itself if it is one, else a
    ``git archive`` of the revision extracted under ``scratch``."""
    if Path(rev).is_dir():
        side = Path(rev).resolve()
    else:
        side = Path(tempfile.mkdtemp(prefix="side-", dir=scratch))
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(
            ["tar", "-x", "-C", str(side)], input=archive, check=True
        )
    if not (side / "benchmarks" / "e2e" / "workloads.py").is_file():
        raise SystemExit(f"ab: {rev}: no benchmarks/e2e/workloads.py to run")
    return side


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report(
    args, labels: Sequence[str], core: int, results: Dict[str, dict],
    counts: Dict[str, tuple], sim_values: int, load: Sequence[tuple],
) -> None:
    pairs = next(iter(results.values()))["pairs"]
    print(
        f"ab: {args.workload} seed {args.seed} scale {args.scale}: "
        f"{pairs} pairs, min of {args.reps} runs a sample, core {core}"
    )
    print(f"  A = {labels[0]}\n  B = {labels[1]}")
    print(f"  bytecode {BYTECODE_STATE}")
    for when, avg in zip(("start", "end"), load):
        print(
            f"  load average at the {when} (1, 5, 15 min): "
            + " ".join(f"{x:.2f}" for x in avg)
        )
    print(
        f"  sim side identical in all {2 * pairs} samples "
        f"({sim_values} values), bar the event counts between A and B"
    )
    for key, (a, b) in counts.items():
        ratio = f"  B/A {b / a:.4f}" if a else ""
        print(f"{key:12s} A {a:g}  B {b:g}{ratio}  (a count)")
    for metric, r in results.items():
        qa, qb = r["a"], r["b"]
        print(
            f"{metric:12s}"
            f" A {qa['median']:.4f} [{qa['q1']:.4f}, {qa['q3']:.4f}]"
            f"  B {qb['median']:.4f} [{qb['q1']:.4f}, {qb['q3']:.4f}]"
            f"  B/A {r['ratio']:.4f}  B won {r['wins']}, tied {r['ties']},"
            f" lost {r['losses']}  sign p {r['sign_p']:.3g}"
        )
    for metric, r in results.items():
        print(f"verdict {metric}: {r['verdict']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # Optional only for the hidden --child form a sample runs as.
    parser.add_argument("rev_a", nargs="?",
                        help="base: git revision or checkout directory")
    parser.add_argument("rev_b", nargs="?",
                        help="change: git revision or checkout directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--reps", type=int, default=3,
                        help="timed runs per sample, after one warm-up")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every request/image count")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--core", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.reps < 1:
        parser.error("--pairs and --reps must be at least 1")
    if args.child:
        os.sched_setaffinity(0, {args.core})
        sample = child(
            Path(args.child), args.workload, args.seed, args.reps, args.scale
        )
        print(json.dumps(sample))
        return 0
    if not (args.rev_a and args.rev_b):
        parser.error("REV_A and REV_B are required")

    revs = (args.rev_a, args.rev_b)
    core = max(os.sched_getaffinity(0))
    load = [os.getloadavg()]
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        try:
            labels = [_describe(rev) for rev in revs]
            sides = [snapshot(rev, Path(scratch)) for rev in revs]
        except subprocess.CalledProcessError as exc:
            print(f"ab: not a directory or a revision: {exc.stderr}",
                  file=sys.stderr)
            return 1
        try:
            # One untimed sample a side compiles its bytecode into its
            # own prefix (the standard library's too) and fills the file
            # cache: every timed sample of both sides then starts warm.
            caches = [Path(scratch) / f"pycache-{i}" for i in (0, 1)]
            for side, cache in zip(sides, caches):
                _sample(side, args, core, cache)
            samples: List[List[dict]] = [[], []]
            for pair in range(args.pairs):
                for which in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    samples[which].append(
                        _sample(sides[which], args, core, caches[which])
                    )
            load.append(os.getloadavg())
            results = verdicts(*samples)
            counts = event_counts(*samples)
        except Refused as exc:
            print(f"ab: refused: {exc}", file=sys.stderr)
            return 1
        except RuntimeError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
    report(
        args, labels, core, results, counts, len(samples[0][0]["sim"]), load
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
