#!/usr/bin/env python
"""Regenerate every figure and in-text number of the paper's evaluation.

Runs the full Section 4 methodology on the simulated testbed and
prints paper-style tables for Figures 4-6, the UML study, the
Section 3.4 cost-function illustration, the Section 4.3 prose
numbers and the ablations: the report ``vmplants all`` prints.

Run:  python examples/reproduce_paper.py [seed]
"""

import argparse

from repro.cli import run_all


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seed", nargs="?", type=int, default=2004)
    seed = parser.parse_args().seed
    print(f"(seed {seed})\n")
    print(run_all(seed))


if __name__ == "__main__":
    main()
