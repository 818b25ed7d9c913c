"""Bandwidth-shared network links (processor-sharing flow model).

The testbed's 100 Mbit/s NFS path and gigabit inter-node switch are
modelled as :class:`FairShareLink` instances: concurrent transfers
share the link bandwidth equally, and a flow's completion time is
recomputed whenever the flow population changes — the standard
processor-sharing fluid approximation, implemented event-driven so it
is exact for piecewise-constant populations.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from repro.sim.kernel import Environment, Event

__all__ = ["FairShareLink", "BoundaryLink"]


class _Flow:
    __slots__ = ("flow_id", "remaining", "event", "size")

    def __init__(self, flow_id: int, size: float, event: Event):
        self.flow_id = flow_id
        self.size = size
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
        latency_s: float = 0.0,
    ):
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.name = name
        self.bandwidth_mbps = bandwidth_mbps
        self.latency_s = latency_s
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
        if self.latency_s > 0:
            self.env.process(self._delayed_start(size_mb, done))
        else:
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
        self._drain()
        self.bandwidth_mbps = mbps
        if self._flows and not self._paused:
            self._timer_gen += 1
            self._timer_deadline = None
            self._reschedule()

    def pause(self) -> None:
        """Partition the link: in-flight flows freeze in place."""
        if self._paused:
            return
        self._drain()
        self._paused = True
        self._timer_gen += 1
        self._timer_deadline = None

    def resume(self) -> None:
        """Heal a partition: frozen flows resume from where they were."""
        if not self._paused:
            return
        self._paused = False
        self._last_update = self.env.now
        self._reschedule()

    def abort_flows(
        self, exc_factory: Callable[[], BaseException]
    ) -> int:
        """Fail every in-flight flow (outage semantics); returns count.

        Each flow's completion event fails with a fresh exception from
        ``exc_factory`` — waiters see it as an aborted transfer.
        """
        self._drain()
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
    def _delayed_start(self, size_mb: float, done: Event) -> Generator:
        yield self.latency_s
        self._start_flow(size_mb, done)

    def _start_flow(self, size_mb: float, done: Event) -> None:
        self._drain()
        if size_mb <= self._EPS:
            done.succeed()
            return
        self._next_id += 1
        flow = _Flow(self._next_id, size_mb, done)
        if not self._flows:
            self._busy_since = self.env.now
        self._flows[flow.flow_id] = flow
        self.total_mb += size_mb
        self._reschedule()

    def _rate(self) -> float:
        return self.bandwidth_mbps / len(self._flows)

    def _drain(self) -> None:
        """Advance all flows to the current time."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if not self._flows or elapsed <= 0 or self._paused:
            return
        rate = self._rate()
        for flow in self._flows.values():
            flow.remaining -= rate * elapsed

    def _complete_due(self) -> None:
        done = [
            f for f in self._flows.values() if f.remaining <= self._EPS
        ]
        for flow in done:
            del self._flows[flow.flow_id]
            flow.event.succeed()
        if not self._flows and self._busy_since is not None:
            self.busy_time += self.env.now - self._busy_since
            self._busy_since = None

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the earliest-finishing flow.

        The timer is a bare :class:`~repro.sim.kernel.Timeout` with a
        direct callback — no generator/process machinery on this hot
        path.  Population changes that leave the next completion time
        unchanged are *batched*: the already-armed timer is kept
        instead of being superseded, so a burst of same-instant
        arrivals costs one timer, not one per arrival.
        """
        if not self._flows or self._paused:
            # Invalidate any pending timer; the link went idle (or is
            # partitioned — resume() re-arms it).
            self._timer_gen += 1
            self._timer_deadline = None
            return
        # A plain loop, not min(genexpr): no frame per flow on a path
        # every flow start and completion takes.
        min_remaining = float("inf")
        for flow in self._flows.values():
            if flow.remaining < min_remaining:
                min_remaining = flow.remaining
        deadline = self.env.now + max(0.0, min_remaining / self._rate())
        if self._timer_deadline is not None and self._timer_deadline == deadline:
            return  # batched: the armed timer already fires then
        self._timer_gen += 1
        gen = self._timer_gen
        self._timer_deadline = deadline
        # Pooled timer: same single heap push as a Timeout (so the
        # trajectory is bit-identical) without the per-re-arm alloc.
        self.env.call_later(
            deadline - self.env.now,
            lambda _ev, gen=gen: self._on_timer(gen),
        )

    def _on_timer(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # superseded by a population change
        self._timer_deadline = None
        self._drain()
        self._complete_due()
        self._reschedule()


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
        super().__init__(env, name, bandwidth_mbps, latency_s=0.0)
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
