"""Figure 6 — cloning time as a function of VM sequence number.

The sequence number is the order of the client's creation requests
through VMShop.  The paper's observation: cloning times grow once
plants host many VMs — most noticeable for the 64 MB run (up to 16
clones per 1.5 GB host) and 256 MB run (5 per host) — which our host
memory-pressure model reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.stats import sequence_series
from repro.analysis.tables import render_series
from repro.experiments.runner import ExperimentRun, run_creation_suite

__all__ = ["Figure6Result", "run_figure6"]


@dataclass
class Figure6Result:
    """Reproduced Figure 6 data."""

    #: label → [(sequence number, cloning time)].
    series: Dict[str, List[Tuple[int, float]]]
    runs: Dict[int, ExperimentRun]

    def render(self, max_rows: int = 26) -> str:
        """The figure as a paper-style series table."""
        return render_series(
            "Figure 6: cloning time vs. VM sequence number",
            self.series,
            x_label="sequence",
            max_rows=max_rows,
        )

    def trend_slope(self, label: str) -> float:
        """Least-squares slope (s per request) of one series."""
        points = self.series[label]
        xs = np.array([x for x, _ in points], dtype=float)
        ys = np.array([y for _, y in points], dtype=float)
        if xs.size < 2:
            return 0.0
        return float(np.polyfit(xs, ys, 1)[0])

    def head_tail_ratio(self, label: str, k: int = 10) -> float:
        """Mean of the last ``k`` points over the first ``k``."""
        points = [y for _, y in self.series[label]]
        k = min(k, max(1, len(points) // 2))
        head = float(np.mean(points[:k]))
        tail = float(np.mean(points[-k:]))
        return tail / head if head > 0 else float("nan")


def run_figure6(
    seed: int = 2004,
    suite: Optional[Dict[int, ExperimentRun]] = None,
) -> Figure6Result:
    """Reproduce Figure 6 (reusing a precomputed suite if given)."""
    runs = suite or run_creation_suite(seed=seed)
    series: Dict[str, List[Tuple[int, float]]] = {}
    for memory in sorted(runs):
        label = f"{memory} MB"
        series[label] = sequence_series(runs[memory].clone_times)
    return Figure6Result(series=series, runs=runs)
