"""A kernel that queues every decided event: the reference for the
third in-place path.

The live kernel fires a decided event (a process that ended, a finished
transfer, a bid round's last landing) in place when nothing can
overtake it: ``Environment._fire`` runs its callbacks at once instead
of putting it on the heap.  Here ``_fire`` always queues it, under the
event id it reserved, which is exactly what ``succeed`` and
``schedule_at`` did before the path existed.  A run under
:func:`every_decided_event_queued` and a live run must agree on
everything but ``executed_events``: every clock, draw, log, event id
and fingerprint.

The swap is on the class, so it holds in shard workers forked while it
is on.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappush
from typing import Iterator

from repro.sim.kernel import PRIORITY_NORMAL, Environment

__all__ = ["every_decided_event_queued"]


def _queue(env, event, at, eid, _woke) -> None:
    heappush(env._queue, (at, PRIORITY_NORMAL, eid, event))


@contextmanager
def every_decided_event_queued() -> Iterator[None]:
    """Within the block, ``Environment._fire`` queues every event."""
    live = Environment._fire
    Environment._fire = _queue
    try:
        yield
    finally:
        Environment._fire = live
