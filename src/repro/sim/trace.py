"""Structured event tracing for simulations.

A :class:`Tracer` records (time, category, message, data) events.
Attach one to an environment (``env.tracer = Tracer()``) and every
instrumented component — shop, PPP, production lines — emits through
:func:`trace`; without a tracer attached the call is a cheap no-op, so
experiments pay nothing by default.  The trace points every create
passes (shop, PPP, the clone's line) test ``env.tracer`` first and make
no call at all without one.

Traces are the raw material for debugging latency anomalies and for
custom analyses beyond the canned experiments::

    bed = build_testbed(seed=1)
    tracer = Tracer()
    bed.env.tracer = tracer
    bed.run(bed.shop.create(experiment_request(32)))
    for event in tracer.select(category="ppp"):
        print(event)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.sim.kernel import Environment

__all__ = ["TraceEvent", "Tracer", "trace"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event."""

    time: float
    category: str
    message: str
    data: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Append-only event log with simple filtering.

    With ``capacity`` set the log is a fixed-size ring buffer: the
    oldest events are dropped in O(1) once the buffer is full, so a
    long load-test run can stay instrumented without growing memory
    unboundedly.  The default (``capacity=None``) keeps every event —
    the behaviour the seed experiments and golden trajectories pin.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (a fresh list)."""
        return list(self._events)

    def record(
        self,
        time: float,
        category: str,
        message: str,
        **data: Any,
    ) -> None:
        """Append an event (oldest dropped beyond capacity)."""
        events = self._events
        if events.maxlen is not None and len(events) == events.maxlen:
            self.dropped += 1
        events.append(TraceEvent(time, category, message, dict(data)))

    def select(
        self,
        category: Optional[str] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[TraceEvent]:
        """Events filtered by category and time window."""
        return [
            e
            for e in self._events
            if (category is None or e.category == category)
            and since <= e.time <= until
        ]

    def categories(self) -> List[str]:
        """Distinct categories seen, sorted."""
        return sorted({e.category for e in self._events})

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


def trace(
    env: Environment, category: str, message: str, **data: Any
) -> None:
    """Record an event on ``env``'s tracer, if one is attached."""
    tracer = getattr(env, "tracer", None)
    if tracer is not None:
        tracer.record(env.now, category, message, **data)
