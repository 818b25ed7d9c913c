"""Summary statistics and sequence profiles (Figure 6 support)."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "Summary",
    "summarize",
    "sequence_series",
    "latency_fingerprint",
]


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of ``values`` (NaNs rejected)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    if np.isnan(data).any():
        raise ValueError("sample contains NaN")
    return Summary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        p25=float(np.percentile(data, 25)),
        median=float(np.percentile(data, 50)),
        p75=float(np.percentile(data, 75)),
        maximum=float(data.max()),
    )


def sequence_series(
    values: Sequence[float],
) -> List[Tuple[int, float]]:
    """(1-based sequence number, value) pairs — Figure 6's x/y."""
    return [(i + 1, float(v)) for i, v in enumerate(values)]


def latency_fingerprint(latencies: Sequence[float]) -> str:
    """SHA-256 prefix over ``latencies`` at 1 ns (determinism checks)."""
    payload = ",".join(f"{v:.9f}" for v in latencies)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
