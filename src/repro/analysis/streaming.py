"""Mergeable constant-memory streaming summaries.

The million-request loadtest rung cannot keep a per-request latency
list in RAM — and with one kernel shard per federated site it cannot
even *see* all latencies in one process.  This module provides
summaries that are

* **streaming** — one sample at a time, O(1) state per sample;
* **constant-memory** — bounded by the sketch configuration, never by
  the stream length;
* **exactly mergeable** — ``merge`` is associative and commutative,
  and a merge of per-shard partial summaries is *bit-identical*
  (quantile outputs and serialized state) to one summary fed the
  whole stream, however the stream was split.

Exactness is the part that matters for the sharded runs: the
coordinator combines per-site summaries exactly like
:mod:`repro.sim.shard.tracemerge` combines traces, so the 1-shard and
N-shard runs of the same trace must produce the same numbers — the
determinism contract extended from trajectories to metrics.

Three building blocks:

:class:`QuantileSketch`
    A fixed-centroid (geometric-bin) histogram: bin edges are a pure
    function of the configuration, so a sample lands in the same bin
    on every shard and merging is integer addition.  Quantile reads
    carry a guaranteed relative error bound of ``rel_err`` inside the
    configured range.  (A P² sketch would adapt its markers to the
    stream — and two P² sketches cannot be merged exactly, which
    disqualifies it here.)

:class:`Moments`
    Streaming count/mean/variance over *exact* binary fixed-point
    accumulators (every float is a dyadic rational; integer sums of
    them are associative).  This is strictly stronger than Welford's
    online algorithm: where Welford bounds the rounding error of a
    float accumulator, these sums have no rounding error at all, so
    the Chan-style merge is exact rather than approximately so.

:class:`WorkloadSummary`
    Per-tenant latency summaries plus goodput / failure /
    deadline-miss counters, with the same merge contract.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ExactSum",
    "Moments",
    "QuantileSketch",
    "StreamSummary",
    "WorkloadSummary",
]


class ExactSum:
    """Exact sum of floats as a dyadic rational ``num * 2**-shift``.

    ``float.as_integer_ratio`` decomposes every finite float into an
    integer over a power of two; summing those with arbitrary-precision
    integers is exact, and therefore associative and commutative —
    any split of a stream sums to the same (``num``, ``shift``) pair.
    ``shift`` only ratchets up (to the max of all contributions), so
    even the *representation* is split-invariant, which is what lets
    serialized summary state compare equal across shard counts.
    """

    __slots__ = ("num", "shift")

    def __init__(self, num: int = 0, shift: int = 0):
        self.num = num
        self.shift = shift

    def _add_ratio(self, n: int, d: int) -> None:
        # d is a power of two for every finite float.
        k = d.bit_length() - 1
        if k > self.shift:
            self.num <<= k - self.shift
            self.shift = k
        self.num += n << (self.shift - k)

    def add(self, value: float) -> None:
        """Add one float exactly (rejects NaN/inf)."""
        self._add_ratio(*float(value).as_integer_ratio())

    def add_square(self, value: float) -> None:
        """Add the exact square of ``value`` (not the rounded float)."""
        n, d = float(value).as_integer_ratio()
        self._add_ratio(n * n, d * d)

    def merge(self, other: "ExactSum") -> None:
        self._add_ratio(other.num, 1 << other.shift)

    @property
    def value(self) -> float:
        """The sum, correctly rounded to the nearest float."""
        if self.shift == 0:
            return float(self.num)
        return self.num / (1 << self.shift)

    def as_pair(self) -> Tuple[int, int]:
        return (self.num, self.shift)

    @classmethod
    def from_pair(cls, pair: Iterable[int]) -> "ExactSum":
        num, shift = pair
        return cls(int(num), int(shift))


class Moments:
    """Streaming count / mean / variance with an exact merge.

    Accumulates the exact sum and sum of squares (see
    :class:`ExactSum`); mean and variance are computed from exact
    integer arithmetic and rounded only at the final division, so two
    half-stream summaries merged together report *identical* floats to
    one full-stream summary.
    """

    __slots__ = ("n", "_sum", "_sumsq", "_min", "_max")

    def __init__(self) -> None:
        self.n = 0
        self._sum = ExactSum()
        self._sumsq = ExactSum()
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise ValueError("samples must be finite")
        self.n += 1
        self._sum.add(value)
        self._sumsq.add_square(value)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "Moments") -> None:
        self.n += other.n
        self._sum.merge(other._sum)
        self._sumsq.merge(other._sumsq)
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max

    @property
    def mean(self) -> float:
        if self.n == 0:
            return math.nan
        # num / (n << shift): one correctly rounded integer division.
        return self._sum.num / (self.n << self._sum.shift)

    @property
    def variance(self) -> float:
        """Unbiased sample variance, exact up to the final rounding."""
        if self.n < 2:
            return 0.0 if self.n else math.nan
        # n*sumsq - sum^2 over a common power-of-two denominator.
        s, q = self._sum, self._sumsq
        shift = max(2 * s.shift, q.shift)
        numer = (self.n * q.num << (shift - q.shift)) - (
            s.num * s.num << (shift - 2 * s.shift)
        )
        denom = self.n * (self.n - 1) << shift
        return max(0.0, numer / denom)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self.n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self.n else math.nan

    def to_state(self) -> dict:
        return {
            "n": self.n,
            "sum": list(self._sum.as_pair()),
            "sumsq": list(self._sumsq.as_pair()),
            "min": self._min if self.n else None,
            "max": self._max if self.n else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Moments":
        m = cls()
        m.n = int(state["n"])
        m._sum = ExactSum.from_pair(state["sum"])
        m._sumsq = ExactSum.from_pair(state["sumsq"])
        m._min = math.inf if state["min"] is None else float(state["min"])
        m._max = -math.inf if state["max"] is None else float(state["max"])
        return m


class QuantileSketch:
    """Fixed-centroid quantile sketch with a relative error bound.

    Bins are geometric — edge *i* sits at ``lo * growth**i`` with
    ``growth = 1 + rel_err`` — so for any sample inside ``[lo, hi)``
    the reported quantile and the true quantile fall in the same bin,
    whose width bounds the relative error by ``rel_err``.  Bin
    placement is a pure function of the configuration, never of the
    data: two sketches over different slices of a stream hold integer
    counts in *identical* bins, and merging is elementwise addition —
    associative, commutative, and exactly equal to sketching the
    un-split stream.

    Values below ``lo`` (including 0) land in an underflow bin and
    values at or above ``hi`` in an overflow bin; both are tracked
    with exact ``min``/``max`` so extreme quantiles stay clamped to
    observed samples.  Negative samples are rejected — this is a
    latency sketch.
    """

    __slots__ = (
        "lo",
        "hi",
        "rel_err",
        "_log_growth",
        "_nbins",
        "count",
        "_bins",
        "_min",
        "_max",
    )

    #: Bin index of the underflow/overflow buckets.
    _UNDER = -1

    def __init__(
        self, lo: float = 1e-3, hi: float = 1e6, rel_err: float = 0.01
    ):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        if not 0 < rel_err < 1:
            raise ValueError("rel_err must be in (0, 1)")
        self.lo = float(lo)
        self.hi = float(hi)
        self.rel_err = float(rel_err)
        self._log_growth = math.log1p(rel_err)
        self._nbins = (
            int(math.ceil(math.log(hi / lo) / self._log_growth)) + 1
        )
        self.count = 0
        self._bins: Dict[int, int] = {}
        self._min = math.inf
        self._max = -math.inf

    def _index(self, value: float) -> int:
        if value < self.lo:
            return self._UNDER
        if value >= self.hi:
            return self._nbins
        # Same value -> same bin on every shard: the index is a pure
        # function of (value, config), float rounding included.
        i = int(math.log(value / self.lo) / self._log_growth)
        return min(max(i, 0), self._nbins - 1)

    def _edges(self, index: int) -> Tuple[float, float]:
        if index == self._UNDER:
            return (0.0, self.lo)
        if index >= self._nbins:
            return (self.hi, math.inf)
        lo = self.lo * math.exp(index * self._log_growth)
        return (lo, lo * (1.0 + self.rel_err))

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise ValueError("samples must be finite")
        if value < 0:
            raise ValueError("latency samples must be non-negative")
        self.count += 1
        idx = self._index(value)
        self._bins[idx] = self._bins.get(idx, 0) + 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def _config(self) -> Tuple[float, float, float]:
        return (self.lo, self.hi, self.rel_err)

    def merge(self, other: "QuantileSketch") -> None:
        if self._config() != other._config():
            raise ValueError(
                f"cannot merge sketches with different configs: "
                f"{self._config()} vs {other._config()}"
            )
        self.count += other.count
        for idx, c in other._bins.items():
            self._bins[idx] = self._bins.get(idx, 0) + c
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]), ``nan`` when empty.

        Uses the nearest-rank convention (rank ``ceil(q*n) - 1`` into
        the sorted stream); the result is clamped into the observed
        ``[min, max]`` and carries relative error ≤ ``rel_err`` for
        samples inside the configured range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return math.nan
        rank = max(0, math.ceil(q * self.count) - 1)
        seen = 0
        for idx in sorted(self._bins):
            c = self._bins[idx]
            if seen + c > rank:
                lo, hi = self._edges(idx)
                if idx == self._UNDER:
                    # Sub-range bin: midpoint, clamped below.
                    value = 0.5 * (lo + hi)
                elif idx >= self._nbins:
                    # Overflow: only the exact max is trustworthy.
                    value = self._max
                else:
                    # Geometric interpolation inside the bin keeps the
                    # result within the bin edges for any local rank.
                    frac = (rank - seen + 0.5) / c
                    value = lo * math.exp(frac * self._log_growth)
                return min(max(value, self._min), self._max)
            seen += c
        return self._max  # pragma: no cover - ranks always found

    def to_state(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "rel_err": self.rel_err,
            "count": self.count,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "bins": [
                [idx, self._bins[idx]] for idx in sorted(self._bins)
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        sk = cls(
            lo=float(state["lo"]),
            hi=float(state["hi"]),
            rel_err=float(state["rel_err"]),
        )
        sk.count = int(state["count"])
        sk._bins = {int(i): int(c) for i, c in state["bins"]}
        sk._min = math.inf if state["min"] is None else float(state["min"])
        sk._max = (
            -math.inf if state["max"] is None else float(state["max"])
        )
        return sk


class StreamSummary:
    """One latency stream: quantile sketch + exact moments."""

    __slots__ = ("sketch", "moments")

    def __init__(
        self,
        lo: float = 1e-3,
        hi: float = 1e6,
        rel_err: float = 0.01,
    ):
        self.sketch = QuantileSketch(lo=lo, hi=hi, rel_err=rel_err)
        self.moments = Moments()

    def add(self, value: float) -> None:
        self.sketch.add(value)
        self.moments.add(value)

    def merge(self, other: "StreamSummary") -> None:
        self.sketch.merge(other.sketch)
        self.moments.merge(other.moments)

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    @property
    def mean(self) -> float:
        return self.moments.mean

    def to_state(self) -> dict:
        return {
            "sketch": self.sketch.to_state(),
            "moments": self.moments.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamSummary":
        s = cls.__new__(cls)
        s.sketch = QuantileSketch.from_state(state["sketch"])
        s.moments = Moments.from_state(state["moments"])
        return s

    def state_signature(self) -> str:
        """Content hash of the serialized state (equality checks)."""
        payload = json.dumps(self.to_state(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


class WorkloadSummary:
    """Per-tenant workload metrics with the same exact-merge contract.

    Tracks, per tenant: completed requests (goodput), failures,
    deadline misses, and a latency :class:`StreamSummary`.  The
    overall summary is derived by merging the per-tenant ones in
    sorted tenant order, so it needs no separate (and potentially
    divergent) accumulator.
    """

    __slots__ = ("lo", "hi", "rel_err", "tenants", "counters")

    _COUNTERS = ("ok", "failed", "deadline_miss", "shed")

    def __init__(
        self,
        lo: float = 1e-3,
        hi: float = 1e6,
        rel_err: float = 0.01,
    ):
        self.lo = lo
        self.hi = hi
        self.rel_err = rel_err
        self.tenants: Dict[str, StreamSummary] = {}
        self.counters: Dict[str, Dict[str, int]] = {}

    def _tenant(self, tenant: str) -> StreamSummary:
        summary = self.tenants.get(tenant)
        if summary is None:
            summary = StreamSummary(
                lo=self.lo, hi=self.hi, rel_err=self.rel_err
            )
            self.tenants[tenant] = summary
            self.counters[tenant] = {k: 0 for k in self._COUNTERS}
        return summary

    def record_ok(
        self,
        tenant: str,
        latency_s: float,
        deadline_s: Optional[float] = None,
    ) -> None:
        """One completed request; counts a miss past its deadline."""
        self._tenant(tenant).add(latency_s)
        counters = self.counters[tenant]
        counters["ok"] += 1
        if deadline_s is not None and latency_s > deadline_s:
            counters["deadline_miss"] += 1

    def record_failed(self, tenant: str) -> None:
        self._tenant(tenant)
        self.counters[tenant]["failed"] += 1

    def record_shed(self, tenant: str) -> None:
        """One request turned away by admission control (not failed —
        the grid chose not to attempt it)."""
        self._tenant(tenant)
        self.counters[tenant]["shed"] += 1

    def merge(self, other: "WorkloadSummary") -> None:
        for tenant in sorted(other.tenants):
            self._tenant(tenant).merge(other.tenants[tenant])
            mine = self.counters[tenant]
            for key, v in other.counters[tenant].items():
                mine[key] = mine.get(key, 0) + v

    def overall(self) -> StreamSummary:
        """All tenants merged, in sorted tenant order."""
        total = StreamSummary(
            lo=self.lo, hi=self.hi, rel_err=self.rel_err
        )
        for tenant in sorted(self.tenants):
            total.merge(self.tenants[tenant])
        return total

    def total(self, counter: str) -> int:
        """Sum of one counter over tenants (any of ``_COUNTERS``)."""
        return sum(c.get(counter, 0) for c in self.counters.values())

    def to_state(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "rel_err": self.rel_err,
            "tenants": {
                t: {
                    "summary": self.tenants[t].to_state(),
                    "counters": dict(
                        sorted(self.counters[t].items())
                    ),
                }
                for t in sorted(self.tenants)
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "WorkloadSummary":
        w = cls(
            lo=float(state["lo"]),
            hi=float(state["hi"]),
            rel_err=float(state["rel_err"]),
        )
        for tenant, entry in state["tenants"].items():
            w.tenants[tenant] = StreamSummary.from_state(
                entry["summary"]
            )
            w.counters[tenant] = {
                k: int(v) for k, v in entry["counters"].items()
            }
        return w

    def state_signature(self) -> str:
        payload = json.dumps(self.to_state(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def tenant_rows(self) -> List[Tuple[str, int, int, int, float]]:
        """(tenant, ok, failed, misses, p95) rows, sorted by tenant."""
        rows = []
        for tenant in sorted(self.tenants):
            c = self.counters[tenant]
            rows.append(
                (
                    tenant,
                    c["ok"],
                    c["failed"],
                    c["deadline_miss"],
                    self.tenants[tenant].quantile(0.95),
                )
            )
        return rows
