"""Overload admission control at a site gateway.

Under a flash crowd (or a neighbour's blackout spilling its load
here) a site can accept more work than it can finish before the
deadlines blow — the classic congestion collapse the paper's economy
section gestures at.  The :class:`AdmissionController` is the
gateway-side answer: a queue-depth / arrival-rate load shedder with
per-tenant priority tiers, plus a preemption signal that lets the
scenario reclaim speculative/pooled clones when pressure builds.

Shedding is *accounting, not failure*: a shed request is recorded in
the :class:`~repro.analysis.streaming.WorkloadSummary`'s ``shed``
counter and the run keeps going — availability over the *served*
stream is what the megachaos ladder reports.

The controller is pure bookkeeping — no RNG, no simulation events —
so a disabled controller (all knobs ``None``, the default) cannot
perturb golden trajectories, and an enabled one is a deterministic
function of the arrival sequence, which keeps the 1-vs-N-shard
fingerprint contract intact.

**Priority tiers**: ``priorities`` maps tenant name → tier, lower
tier = higher priority (unmapped tenants get tier 0).  A tier-``t``
tenant is shed once the site's in-flight depth reaches
``shed_depth // (t + 1)`` — low-priority tenants hit their ceiling
first, and tier 0 only sheds at the full ``shed_depth``, so a
starving crowd can never push interactive users off the site (the
fairness property the tests pin).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

__all__ = ["AdmissionController"]


class AdmissionController:
    """Queue-depth / arrival-rate shedding with priority tiers."""

    __slots__ = (
        "shed_depth",
        "shed_rate_per_s",
        "rate_window_s",
        "preempt_depth",
        "priorities",
        "in_flight",
        "peak_in_flight",
        "shed_by_tenant",
        "preempt_signals",
        "_arrivals",
        "_preempt_armed",
    )

    def __init__(
        self,
        *,
        shed_depth: Optional[int] = None,
        shed_rate_per_s: Optional[float] = None,
        rate_window_s: float = 30.0,
        preempt_depth: Optional[int] = None,
        priorities: Optional[Dict[str, int]] = None,
    ):
        if shed_depth is not None and shed_depth < 1:
            raise ValueError("shed_depth must be >= 1")
        if shed_rate_per_s is not None and shed_rate_per_s <= 0:
            raise ValueError("shed_rate_per_s must be positive")
        if rate_window_s <= 0:
            raise ValueError("rate_window_s must be positive")
        if preempt_depth is not None and preempt_depth < 1:
            raise ValueError("preempt_depth must be >= 1")
        self.shed_depth = shed_depth
        self.shed_rate_per_s = shed_rate_per_s
        self.rate_window_s = rate_window_s
        self.preempt_depth = preempt_depth
        self.priorities = dict(priorities or {})
        for tenant, tier in self.priorities.items():
            if tier < 0:
                raise ValueError(
                    f"tenant {tenant!r} has negative priority tier"
                )
        #: Requests currently being served (between begin and done).
        self.in_flight = 0
        self.peak_in_flight = 0
        self.shed_by_tenant: Dict[str, int] = {}
        self.preempt_signals = 0
        #: Offered-arrival times inside the sliding rate window.
        self._arrivals: Deque[float] = deque()
        self._preempt_armed = True

    @property
    def enabled(self) -> bool:
        return (
            self.shed_depth is not None
            or self.shed_rate_per_s is not None
            or self.preempt_depth is not None
        )

    def tier(self, tenant: str) -> int:
        return self.priorities.get(tenant, 0)

    def depth_limit(self, tenant: str) -> Optional[int]:
        """This tenant's in-flight ceiling (None = unlimited)."""
        if self.shed_depth is None:
            return None
        return max(1, self.shed_depth // (self.tier(tenant) + 1))

    # -- the admission decision ---------------------------------------------
    def admit(self, tenant: str, now: float) -> bool:
        """Admit or shed one offered request at time ``now``.

        Counts every offered arrival toward the rate window (shed or
        not — the *offered* load is the overload signal), then sheds
        when the tenant's depth ceiling is hit, or when the offered
        rate exceeds ``shed_rate_per_s`` and the tenant is not tier 0
        (rate shedding protects the highest tier outright).
        """
        if self.shed_rate_per_s is not None:
            self._arrivals.append(now)
            cutoff = now - self.rate_window_s
            while self._arrivals and self._arrivals[0] < cutoff:
                self._arrivals.popleft()
        limit = self.depth_limit(tenant)
        if limit is not None and self.in_flight >= limit:
            self._shed(tenant)
            return False
        if (
            self.shed_rate_per_s is not None
            and self.tier(tenant) > 0
            and len(self._arrivals)
            > self.shed_rate_per_s * self.rate_window_s
        ):
            self._shed(tenant)
            return False
        return True

    def _shed(self, tenant: str) -> None:
        self.shed_by_tenant[tenant] = (
            self.shed_by_tenant.get(tenant, 0) + 1
        )

    # -- in-flight depth tracking -------------------------------------------
    def begin(self) -> None:
        """An admitted request started being served."""
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight

    def done(self) -> None:
        """A served request finished (ok or failed)."""
        if self.in_flight <= 0:
            raise RuntimeError("done() without matching begin()")
        self.in_flight -= 1
        if (
            self.preempt_depth is not None
            and self.in_flight < self.preempt_depth
        ):
            self._preempt_armed = True

    # -- preemption signal ---------------------------------------------------
    def maybe_preempt(self) -> bool:
        """True once per pressure episode when depth crosses
        ``preempt_depth`` — the caller reclaims speculative/pooled
        clones; the signal re-arms after depth drops back below."""
        if self.preempt_depth is None:
            return False
        if self.in_flight >= self.preempt_depth and self._preempt_armed:
            self._preempt_armed = False
            self.preempt_signals += 1
            return True
        return False
