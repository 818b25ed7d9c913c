"""Per-plant health tracking: the shop's circuit breaker.

Standard three-state breaker driven by creation outcomes:

* **CLOSED** — healthy; every bid request reaches the plant.
* **OPEN** — quarantined after ``threshold`` consecutive failures;
  the plant is excluded from bidding for ``quarantine_s`` seconds.
* **HALF_OPEN** — quarantine elapsed; the plant re-enters bidding as
  a probe.  A success closes the breaker, another failure re-opens it
  immediately (with a fresh quarantine window).

The breaker is pure bookkeeping — no simulation events, no RNG — so
an idle breaker cannot perturb golden trajectories.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["BreakerState", "PlantHealth"]


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class PlantHealth:
    """Circuit breaker for one plant, keyed by creation outcomes."""

    __slots__ = (
        "name",
        "threshold",
        "quarantine_s",
        "state",
        "consecutive_failures",
        "opened_at",
        "failures",
        "successes",
        "times_opened",
        "probes",
    )

    def __init__(self, name: str, threshold: int, quarantine_s: float):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if quarantine_s <= 0:
            raise ValueError("quarantine_s must be positive")
        self.name = name
        self.threshold = threshold
        self.quarantine_s = quarantine_s
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.failures = 0
        self.successes = 0
        self.times_opened = 0
        self.probes = 0

    def allows(self, now: float) -> bool:
        """May this plant receive a bid request at ``now``?

        Mutates OPEN → HALF_OPEN once the quarantine window has
        elapsed (the half-open probe admission).
        """
        if self.threshold <= 0 or self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.quarantine_s:
                self.state = BreakerState.HALF_OPEN
                self.probes += 1
                return True
            return False
        return True  # HALF_OPEN: keep admitting until an outcome lands

    def record_success(self, now: float) -> bool:
        """Record a successful creation; returns True when the
        breaker closed from a non-closed state."""
        self.successes += 1
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            return True
        return False

    def record_failure(self, now: float) -> bool:
        """Record a failed creation; returns True when the breaker
        (re)opened — the caller traces the quarantine."""
        self.failures += 1
        self.consecutive_failures += 1
        if self.threshold <= 0:
            return False
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.times_opened += 1
            return True
        return False
