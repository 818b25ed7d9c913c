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
* the sim side: ``benchmarks/e2e/run.py``'s ``sim_metrics`` and the
  event count of every run, which must be equal across runs.

Samples come in ``N`` pairs, one per side, with the side that goes first
alternating.  Grid workloads run in process at one shard (their
``inprocess_overrides``), so all the work is the child's own.

For each metric the report gives each side's median and quartiles, the
pairs ``B`` won, tied and lost, a two-sided sign test, the median of the
per-pair ratios ``B / A`` and a verdict under the claim rule of the
choosing-metrics guide (section 8): *claimed* when ``B`` wins at least
nine tenths of at least ten pairs and the medians differ by more than
``A``'s interquartile range, *worse* when the same holds the other way,
*unresolved* otherwise.  A comparison whose sim side differs between or
within the sides is refused: the two revisions did not do the same work.

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
    "MIN_PAIRS",
    "CLAIM_SHARE",
    "Refused",
    "sign_test",
    "compare",
    "sim_mismatch",
    "verdicts",
    "snapshot",
    "main",
]

ROOT = Path(__file__).resolve().parents[2]

#: The host-side metrics a sample records; lower is better for each.
METRICS = ("cpu_s", "peak_rss_mb", "setup_s")
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
    samples; :class:`Refused` when any sim-side value differs."""
    mismatch = sim_mismatch([sample["sim"] for sample in (*a, *b)])
    if mismatch:
        raise Refused(f"the sim side differs in {mismatch}")
    return {
        metric: compare([s[metric] for s in a], [s[metric] for s in b])
        for metric in METRICS
    }


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
        sims.append({**sim, "events": outcome.events})
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


def _sample(side: Path, args, core: int) -> dict:
    """One child's sample of ``side``; the child imports nothing but
    ``side``'s code (``PYTHONPATH`` is not passed on)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", str(side),
        "--core", str(core), "--workload", args.workload,
        "--seed", str(args.seed), "--reps", str(args.reps),
        "--scale", repr(args.scale),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
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
    sim_values: int,
) -> None:
    pairs = next(iter(results.values()))["pairs"]
    print(
        f"ab: {args.workload} seed {args.seed} scale {args.scale}: "
        f"{pairs} pairs, min of {args.reps} runs a sample, core {core}"
    )
    print(f"  A = {labels[0]}\n  B = {labels[1]}")
    print(
        f"  sim side identical in all {2 * pairs} samples "
        f"({sim_values} values)"
    )
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
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        try:
            labels = [_describe(rev) for rev in revs]
            sides = [snapshot(rev, Path(scratch)) for rev in revs]
        except subprocess.CalledProcessError as exc:
            print(f"ab: not a directory or a revision: {exc.stderr}",
                  file=sys.stderr)
            return 1
        try:
            for side in sides:  # compiles bytecode, fills the file cache
                _sample(side, args, core)
            samples: List[List[dict]] = [[], []]
            for pair in range(args.pairs):
                for which in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    samples[which].append(_sample(sides[which], args, core))
            results = verdicts(*samples)
        except Refused as exc:
            print(f"ab: refused: {exc}", file=sys.stderr)
            return 1
        except RuntimeError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
    report(args, labels, core, results, len(samples[0][0]["sim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
