"""Shop-side recovery policy knobs.

All defaults are *off*: a :class:`RecoveryPolicy()` shop behaves
bit-identically to the seed trajectories (single attempt, no
deadlines, no quarantine).  The chaos experiment's policy ladder
(surface → retry → deadline+backoff → circuit-breaker) is built by
progressively enabling these knobs; see ``experiments/chaos.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["RecoveryPolicy", "DEADLINE_BACKOFF", "CIRCUIT_BREAKER"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Per-shop fault-recovery configuration (all-off by default)."""

    #: Abort a dispatched plant create after this many simulated
    #: seconds and treat it as failed (None = wait forever).
    create_deadline_s: Optional[float] = None
    #: Total creation attempts per request; each attempt re-bids with
    #: a *fresh* vmid (1 = seed behaviour, no re-bid).
    max_attempts: int = 1
    #: First re-bid delay in seconds (0 = retry immediately); it
    #: doubles on each further attempt.
    backoff_base_s: float = 0.0
    #: Give up on bidders that have not answered an estimate after
    #: this many seconds; their late bids are dropped (None = wait
    #: for every bidder, the seed behaviour).
    bid_deadline_s: Optional[float] = None
    #: Quarantine a plant after this many *consecutive* creation
    #: failures (0 = circuit breaker disabled).
    quarantine_threshold: int = 0
    #: Seconds a quarantined plant sits out before a half-open probe.
    quarantine_s: float = 300.0

    def __post_init__(self) -> None:
        if self.create_deadline_s is not None and self.create_deadline_s <= 0:
            raise ValueError("create_deadline_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.bid_deadline_s is not None and self.bid_deadline_s <= 0:
            raise ValueError("bid_deadline_s must be positive")
        if self.quarantine_threshold < 0:
            raise ValueError("quarantine_threshold must be non-negative")
        if self.quarantine_s <= 0:
            raise ValueError("quarantine_s must be positive")

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before ``attempt`` (1-based; 0 for the first)."""
        if attempt <= 1 or self.backoff_base_s <= 0:
            return 0.0
        return self.backoff_base_s * 2.0 ** (attempt - 2)


#: Deadline + bounded exponential-backoff re-bid (no quarantine).
DEADLINE_BACKOFF = RecoveryPolicy(
    create_deadline_s=240.0,
    max_attempts=4,
    backoff_base_s=10.0,
    bid_deadline_s=10.0,
)

#: The full ladder: deadline/backoff plus plant quarantine.
CIRCUIT_BREAKER = replace(
    DEADLINE_BACKOFF,
    quarantine_threshold=2,
    quarantine_s=240.0,
)
