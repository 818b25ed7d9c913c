"""Figures 4 and 5 — distributions of creation and cloning latency.

Figure 4 bins the end-to-end latency (client request → VMShop
response) of every successful creation into the paper's 5–85 s
layout.  Figure 5 bins the cloning latency, measured "from the time
the PPP requests cloning to the completion of the VMware resume
operation on a cloned machine", which is exactly what the production
lines' clone records capture, into 5–70 s.  Both are normalized, one
series per golden-machine memory size, and differ only in what is
binned, the bin centres, the title and the x label.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.histograms import (
    FIG4_BIN_CENTERS,
    FIG5_BIN_CENTERS,
    Histogram,
    histogram,
)
from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import render_histogram_table
from repro.experiments.runner import ExperimentRun, run_creation_suite

__all__ = ["HistogramFigure", "run_figure4", "run_figure5"]


@dataclass
class HistogramFigure:
    """One reproduced histogram figure."""

    title: str
    x_label: str
    histograms: Dict[str, Histogram]
    summaries: Dict[str, Summary]
    runs: Dict[int, ExperimentRun]

    def render(self) -> str:
        """The figure as a paper-style table."""
        return render_histogram_table(
            self.title, self.histograms, x_label=self.x_label
        )


def _histogram_figure(
    title: str,
    x_label: str,
    values: Callable[[ExperimentRun], List[float]],
    centers: Sequence[float],
    seed: int,
    suite: Optional[Dict[int, ExperimentRun]],
) -> HistogramFigure:
    runs = suite or run_creation_suite(seed=seed)
    histograms: Dict[str, Histogram] = {}
    summaries: Dict[str, Summary] = {}
    for memory in sorted(runs):
        label = f"{memory} MB"
        binned = values(runs[memory])
        histograms[label] = histogram(binned, centers)
        summaries[label] = summarize(binned)
    return HistogramFigure(title, x_label, histograms, summaries, runs)


def run_figure4(
    seed: int = 2004,
    suite: Optional[Dict[int, ExperimentRun]] = None,
) -> HistogramFigure:
    """Reproduce Figure 4 (reusing a precomputed suite if given)."""
    return _histogram_figure(
        "Figure 4: distribution of overall VM creation latencies "
        "(normalized frequency of occurrence)",
        "overall latency (s)",
        attrgetter("creation_latencies"),
        FIG4_BIN_CENTERS,
        seed,
        suite,
    )


def run_figure5(
    seed: int = 2004,
    suite: Optional[Dict[int, ExperimentRun]] = None,
) -> HistogramFigure:
    """Reproduce Figure 5 (reusing a precomputed suite if given)."""
    return _histogram_figure(
        "Figure 5: distribution of VM cloning latencies "
        "(normalized frequency of occurrence)",
        "cloning time (s)",
        attrgetter("clone_times"),
        FIG5_BIN_CENTERS,
        seed,
        suite,
    )
