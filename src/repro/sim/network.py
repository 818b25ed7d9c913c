"""Bandwidth-shared network links (processor-sharing flow model).

The testbed's 100 Mbit/s NFS path and gigabit inter-node switch are
modelled as :class:`FairShareLink` instances: concurrent transfers
share the link bandwidth equally, and a flow's completion time is
recomputed whenever the flow population changes — the standard
processor-sharing fluid approximation, implemented event-driven so it
is exact for piecewise-constant populations.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.kernel import Environment, Event

__all__ = ["FairShareLink", "BoundaryLink"]


class _Flow:
    __slots__ = ("flow_id", "remaining", "event")

    def __init__(self, flow_id: int, size: float, event: Event):
        self.flow_id = flow_id
        self.remaining = size
        self.event = event


class FairShareLink:
    """A link of ``bandwidth_mbps`` MB/s shared fairly among flows."""

    #: Completion slack for floating-point drain arithmetic.
    _EPS = 1e-9

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_mbps: float,
    ):
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.name = name
        self.bandwidth_mbps = bandwidth_mbps
        self._flows: Dict[int, _Flow] = {}
        self._next_id = 0
        self._last_update = env.now
        #: While paused (partition fault) flows make zero progress.
        self._paused = False
        self._timer_gen = 0
        #: Absolute fire time of the valid pending timer (None if idle).
        self._timer_deadline: Optional[float] = None
        # Accounting for utilization reports.
        self.total_mb = 0.0
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    # -- public API --------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of in-flight transfers."""
        return len(self._flows)

    def transfer(self, size_mb: float) -> Event:
        """Start a transfer; the returned event fires at completion."""
        if size_mb < 0:
            raise ValueError("size must be non-negative")
        done = self.env.event()
        self._start_flow(size_mb, done)
        return done

    def set_bandwidth(self, mbps: float) -> None:
        """Change the link rate; in-flight flows keep their progress.

        Used by the fault injector to degrade (and later restore) the
        link: flows are drained at the old rate up to *now*, then the
        completion timer is re-armed at the new rate.
        """
        if mbps <= 0:
            raise ValueError("bandwidth must be positive")
        least = self._walk(None)
        self.bandwidth_mbps = mbps
        self._timer_deadline = None  # re-arm even at the same instant
        self._arm(least)

    def pause(self) -> None:
        """Partition the link: in-flight flows freeze in place."""
        if self._paused:
            return
        self._walk(None)
        self._paused = True
        self._timer_gen += 1
        self._timer_deadline = None

    def resume(self) -> None:
        """Heal a partition: frozen flows resume from where they were."""
        if not self._paused:
            return
        self._paused = False
        self._last_update = self.env.now
        self._arm(self._walk(None))

    def abort_flows(
        self, exc_factory: Callable[[], BaseException]
    ) -> int:
        """Fail every in-flight flow (outage semantics); returns count.

        Each flow's completion event fails with a fresh exception from
        ``exc_factory`` — waiters see it as an aborted transfer.
        """
        flows = list(self._flows.values())
        self._flows.clear()
        self._timer_gen += 1
        self._timer_deadline = None
        if self._busy_since is not None:
            self.busy_time += self.env.now - self._busy_since
            self._busy_since = None
        for flow in flows:
            flow.event.fail(exc_factory())
        return len(flows)

    def utilization(self) -> float:
        """Fraction of elapsed time the link was busy."""
        now = self.env.now
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return busy / now if now > 0 else 0.0

    # -- internals -------------------------------------------------------------
    def _start_flow(self, size_mb: float, done: Event) -> None:
        least = self._walk(None)
        if size_mb <= self._EPS:
            done.succeed()
            return
        self._next_id += 1
        flow = _Flow(self._next_id, size_mb, done)
        if not self._flows:
            self._busy_since = self.env.now
        self._flows[flow.flow_id] = flow
        self.total_mb += size_mb
        self._arm(size_mb if size_mb < least else least)

    def _walk(self, finished: Optional[list]) -> float:
        """Drain every flow to *now* and return the least remaining.

        The one pass over the flows per population change.  Given
        ``finished`` (a live timer firing), a flow finishes, in flow-id
        order, when it is drained to within :attr:`_EPS` or when what
        it has left, at the walk's per-flow rate, is too little to move
        the clock (far out in time, a residue above :attr:`_EPS` can
        be, and a timer armed for it would fire at ``now`` again and
        again with nothing drained): its event succeeds
        under the event id ``succeed`` would have given it, and goes
        onto ``finished`` as ``(event id, event)`` to fire once the
        link is re-armed.  The least is taken over the survivors.
        """
        env = self.env
        now = env.now
        elapsed = now - self._last_update
        self._last_update = now
        flows = self._flows
        least = float("inf")
        if not flows:
            return least
        rate = self.bandwidth_mbps / len(flows)
        drained = 0.0
        if elapsed > 0 and not self._paused:
            drained = rate * elapsed
        complete = finished is not None
        # Completing deletes from the dict, so it walks a snapshot.
        for flow in list(flows.values()) if complete else flows.values():
            remaining = flow.remaining = flow.remaining - drained
            if complete and (
                remaining <= self._EPS or now + remaining / rate == now
            ):
                del flows[flow.flow_id]
                event = flow.event
                event._ok = True
                env._eid = eid = env._eid + 1
                finished.append((eid, event))
            elif remaining < least:
                least = remaining
        if not flows:
            self.busy_time += now - self._busy_since
            self._busy_since = None
        return least

    def _arm(self, least: float) -> None:
        """(Re)arm the completion timer for the flow with ``least``
        remaining.

        The timer is a pooled :meth:`~repro.sim.kernel.Environment.call_later`
        with a direct callback — no generator/process machinery on this
        hot path.  Population changes that leave the next completion
        time unchanged are *batched*: the already-armed timer is kept
        instead of being superseded, so a burst of same-instant
        arrivals costs one timer, not one per arrival.
        """
        if not self._flows or self._paused:
            # Invalidate any pending timer; the link went idle (or is
            # partitioned — resume() re-arms it).
            self._timer_gen += 1
            self._timer_deadline = None
            return
        now = self.env.now
        rate = self.bandwidth_mbps / len(self._flows)
        deadline = now + max(0.0, least / rate)
        if deadline == self._timer_deadline:
            return  # batched: the armed timer already fires then
        self._timer_gen += 1
        gen = self._timer_gen
        self._timer_deadline = deadline
        self.env.call_later(
            deadline - now, lambda timer, gen=gen: self._on_timer(gen, timer)
        )

    def _on_timer(self, gen: int, timer: Event) -> None:
        if gen != self._timer_gen:
            return  # superseded by a population change
        self._timer_deadline = None
        finished: list = []
        self._arm(self._walk(finished))
        # The timer is the link's own: one finished flow fires in place
        # when nothing can overtake it; of several, each but the first
        # would still be due at this instant, so all go on the heap.
        env = self.env
        now, woke = env.now, timer if len(finished) == 1 else None
        for eid, event in finished:
            env._fire(event, now, eid, woke)


class BoundaryLink(FairShareLink):
    """An inter-site link whose deliveries cross a shard boundary.

    The send side is an ordinary fair-shared link living in the
    *source* site's environment: concurrent sends share
    ``bandwidth_mbps``.  When a send's last byte clears the link, the
    message is *staged* into an outbox — a batched, struct-packed
    event ring when the destination site runs in another worker
    process, or the destination's in-process inbox when it does not —
    and is delivered to the destination endpoint exactly
    ``latency_s`` later.

    ``latency_s`` is the link's propagation delay **and** the
    conservative-sync lookahead: a message sent at or after a window's
    start is due at or after its end, so sites run a window without
    hearing from each other.  A zero latency would make every window
    empty, so it is rejected outright.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_mbps: float,
        latency_s: float,
        src_site: int,
        dst_site: int,
        endpoint: int,
        outbox,
    ):
        if src_site == dst_site:
            raise ValueError(
                f"boundary link {name!r} connects site {src_site} to "
                f"itself; use a FairShareLink for intra-site traffic"
            )
        if latency_s <= 0:
            raise ValueError(
                f"boundary link {name!r} ({src_site}->{dst_site}) has "
                f"zero lookahead: conservative parallel sync requires "
                f"a positive inter-site latency_s (got {latency_s})"
            )
        super().__init__(env, name, bandwidth_mbps)
        self.latency_s = latency_s
        self.src_site = src_site
        self.dst_site = dst_site
        self.endpoint = endpoint
        #: Staging target; duck-typed — see ``repro.sim.shard.ring``.
        self.outbox = outbox

    def send(self, payload: tuple = (), size_mb: float = 0.0) -> Event:
        """Send ``payload`` (up to 4 numbers) across the boundary.

        The returned event fires in the *source* environment when the
        message has fully cleared the shared link; the destination
        endpoint fires ``latency_s`` later in its own environment.
        """
        if len(payload) > 4:
            raise ValueError(
                "boundary payloads are at most 4 numeric fields"
            )
        values = tuple(float(v) for v in payload)
        done = self.env.event()
        done.callbacks.append(lambda _ev: self._stage(values))
        self._start_flow(size_mb, done)
        return done

    def _stage(self, payload: tuple) -> None:
        self.outbox.emit(
            dst_site=self.dst_site,
            deliver_time=self.env.now + self.latency_s,
            src_site=self.src_site,
            endpoint=self.endpoint,
            payload=payload,
        )
