#!/usr/bin/env python
"""Regenerate every figure and in-text number of the paper's evaluation.

Runs the full Section 4 methodology on the simulated testbed and
prints paper-style tables for Figures 4-6, the UML study, the
Section 3.4 cost-function illustration, the Section 4.3 prose
numbers and the ablations.  This is the same code the benchmark
harness drives.

Independent sections fan out across a process pool (see
``repro.experiments.parallel``) and every result is memoized in the
on-disk cache, so a repeat invocation with unchanged source prints
the identical report from cache in a fraction of the time.

Run:  python examples/reproduce_paper.py [seed] [--no-cache] [--serial]
"""

import argparse
import sys
import time

from repro.experiments.ablations import ABLATIONS
from repro.experiments.cache import ResultCache
from repro.experiments.costfn import run_costfn
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.parallel import Job, rendered, run_jobs
from repro.experiments.runner import run_creation_suite
from repro.experiments.textnumbers import run_textnumbers
from repro.experiments.uml import run_uml

#: Sections whose drivers build their own testbeds — safe to fan out.
INDEPENDENT_SECTIONS = [("uml", run_uml), ("costfn", run_costfn)] + [
    (f"ablation-{name}", fn) for name, fn in ABLATIONS.items()
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seed", nargs="?", type=int, default=2004)
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and bypass the on-disk result cache",
    )
    parser.add_argument(
        "--serial",
        action="store_true",
        help="disable the process-pool fan-out",
    )
    args = parser.parse_args()
    seed = args.seed
    print(f"(seed {seed})\n")
    started = time.perf_counter()

    cache = ResultCache(enabled=not args.no_cache)
    mode = "serial" if args.serial else "auto"

    # The three creation streams: cached per-run, fanned out on miss.
    suite = run_creation_suite(
        seed=seed, parallel=not args.serial, cache=cache
    )

    # Sections with their own testbeds: rendered in workers, memoized
    # as text.
    texts = {}
    pending = []
    for name, fn in INDEPENDENT_SECTIONS:
        hit = cache.get(f"section-{name}", {"seed": seed})
        if hit is not None:
            texts[name] = hit
        else:
            pending.append(
                Job(key=name, fn=rendered, kwargs={"fn": fn, "seed": seed})
            )
    if pending:
        for name, text in run_jobs(pending, mode=mode).items():
            cache.put(f"section-{name}", {"seed": seed}, text)
            texts[name] = text

    sections = [
        run_figure4(suite=suite).render(),
        run_figure5(suite=suite).render(),
        run_figure6(suite=suite).render(),
        texts["uml"],
        texts["costfn"],
        run_textnumbers(seed=seed, suite=suite).render(),
        *(texts[f"ablation-{name}"] for name in ABLATIONS),
    ]
    print(("\n\n" + "=" * 70 + "\n\n").join(sections))

    elapsed = time.perf_counter() - started
    print(
        f"\n[{elapsed:.2f}s, cache hits={cache.hits} "
        f"misses={cache.misses} ({cache.root})]",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
