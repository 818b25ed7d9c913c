"""Normalized frequency-of-occurrence distributions (Figures 4 and 5).

The paper plots creation/cloning latency distributions as normalized
occurrence counts over labelled bins.  Bins are specified by their
*centers* — Figure 4 uses 5, 15, …, 85 s; Figure 5 uses 5, 10, …, 60,
70 s (note the irregular final bin) — with bin edges at the midpoints
between consecutive centers.  Out-of-range values clamp into the first
or last bin, matching how the paper's end bins absorb the tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "FIG4_BIN_CENTERS",
    "FIG5_BIN_CENTERS",
    "Histogram",
    "histogram",
]

#: Figure 4 (overall creation latency) bin centers, seconds.
FIG4_BIN_CENTERS: Tuple[float, ...] = tuple(range(5, 86, 10))
#: Figure 5 (cloning latency) bin centers, seconds.
FIG5_BIN_CENTERS: Tuple[float, ...] = tuple(range(5, 61, 5)) + (70.0,)


@dataclass(frozen=True)
class Histogram:
    """A binned distribution with normalized frequencies."""

    centers: Tuple[float, ...]
    counts: Tuple[int, ...]
    total: int

    @property
    def frequencies(self) -> Tuple[float, ...]:
        """Counts normalized by the sample total."""
        if self.total == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(c / self.total for c in self.counts)

    @property
    def mode_center(self) -> float:
        """Center of the most populated bin (first on ties)."""
        idx = max(range(len(self.counts)), key=lambda i: self.counts[i])
        return self.centers[idx]

    def mean_estimate(self) -> float:
        """Distribution mean estimated from bin centers."""
        if self.total == 0:
            return float("nan")
        return (
            sum(c * n for c, n in zip(self.centers, self.counts))
            / self.total
        )


def histogram(
    values: Sequence[float], centers: Sequence[float]
) -> Histogram:
    """Bin ``values`` into center-labelled bins.

    Edges sit midway between consecutive centers; values below the
    first edge land in the first bin, values above the last edge in
    the last bin.
    """
    centers = tuple(float(c) for c in centers)
    if len(centers) < 2:
        raise ValueError("need at least two bin centers")
    if any(b <= a for a, b in zip(centers, centers[1:])):
        raise ValueError("bin centers must be strictly increasing")
    edges = np.array(
        [(a + b) / 2.0 for a, b in zip(centers, centers[1:])]
    )
    data = np.asarray(list(values), dtype=float)
    counts = [0] * len(centers)
    if data.size:
        idx = np.searchsorted(edges, data, side="right")
        for i in idx:
            counts[int(i)] += 1
    return Histogram(
        centers=centers, counts=tuple(counts), total=int(data.size)
    )
