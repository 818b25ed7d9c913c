"""One forked shard worker: a site world plus ring synchronization.

The worker builds the :class:`~repro.sim.shard.sync.SiteWorld` of its
shard, then alternates between advancing it as far as its peers'
promises allow, shipping staged records and fresh promises, and
blocking until a peer or the coordinator speaks.  It counts what that
loop did and where its wall time went (the ``sync`` block of its
result): a run whose workers take turns instead of overlapping shows
up as ``select_s`` close to the peers' ``advance_s``.
"""

from __future__ import annotations

import gc
import os
import select
import selectors
import time
import traceback
from typing import Dict, Tuple

from repro.sim.shard.ring import RingOutbox, RingReader
from repro.sim.shard.sync import SYNC_KEYS, RunContext, SiteWorld, next_time

__all__ = ["worker_main"]

_INF = float("inf")


def worker_main(
    shard: int,
    ctx: RunContext,
    pipes: Dict[Tuple[int, int], Tuple[int, int]],
    parent_conns,
    child_conns,
) -> None:
    """Process entry point: run shard ``shard``, report, exit."""
    # Move the inherited heap to the permanent generation: a worker
    # can never free its parent's objects, but collecting them would
    # fault copy-on-write pages and bill heap-proportional CPU to
    # whichever shard GC happens to fire in — noise that scales with
    # the *parent's* import surface, not the shard's workload.
    gc.freeze()
    conn = child_conns[shard]
    # Drop every inherited descriptor that is not ours, so peer EOFs
    # are observable and a dead worker cannot be masked by our copies.
    for c in parent_conns:
        c.close()
    for i, c in enumerate(child_conns):
        if i != shard:
            c.close()
    read_fds: Dict[int, int] = {}
    write_fds: Dict[int, int] = {}
    for (a, b), (rfd, wfd) in pipes.items():
        if b == shard:
            read_fds[a] = rfd
        else:
            os.close(rfd)
        if a == shard:
            write_fds[b] = wfd
        else:
            os.close(wfd)
    try:
        _ShardWorker(shard, ctx, read_fds, write_fds, conn).run()
    except BaseException as exc:  # noqa: BLE001 - forwarded to parent
        try:
            conn.send(
                ("error", shard, repr(exc), traceback.format_exc())
            )
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


class _ShardWorker:
    """The loop of one worker, and its counters."""

    def __init__(
        self,
        shard: int,
        ctx: RunContext,
        read_fds: Dict[int, int],
        write_fds: Dict[int, int],
        conn,
    ):
        self.conn = conn
        self.limit = ctx.limit
        self.ring = RingOutbox(write_fds, on_block=self._ring_block)
        self.world = SiteWorld(ctx, shard, self.ring)
        channels = ctx.channels()
        #: Minimum lookahead of each outbound / inbound channel.
        self.out_lookahead = {
            b: lat for (a, b), lat in channels.items() if a == shard
        }
        in_lookahead = {
            a: lat for (a, b), lat in channels.items() if b == shard
        }
        # At t=0 the peer's clock is >= 0, so its first delivery is
        # >= the channel lookahead: that is the initial promise.
        self.readers = {
            src: RingReader(src, fd, in_lookahead[src])
            for src, fd in read_fds.items()
        }
        self.sent_promise = {dst: 0.0 for dst in write_fds}
        #: Loop turns, and those whose advance executed something.
        self.turns = 0
        self.event_turns = 0
        #: Null messages sent (promises on channels with nothing staged).
        self.nulls = 0
        #: Wall seconds in ``group.advance``, in ``_flush`` and blocked
        #: in the loop's ``select``; ``block_s`` is the part of the
        #: first two spent waiting for space in a full ring pipe.
        self.advance_s = 0.0
        self.flush_s = 0.0
        self.select_s = 0.0
        self.block_s = 0.0

    @property
    def records(self) -> int:
        """Boundary messages shipped (null messages excluded)."""
        return sum(self.ring.sent.values())

    # -- synchronization helpers ----------------------------------------
    def _promises(self) -> Dict[int, float]:
        return {src: r.promise for src, r in self.readers.items()}

    def _received(self) -> Dict[int, int]:
        return {src: r.received for src, r in self.readers.items()}

    def _lower_bound(self) -> float:
        """No event on this shard can execute before this time."""
        lb = _INF
        for rt in self.world.runtimes.values():
            t = next_time(rt)
            if t < lb:
                lb = t
        for r in self.readers.values():
            if r.promise < lb:
                lb = r.promise
        return lb

    def _flush(self) -> None:
        """Ship staged records; keep peers' promises ratcheting."""
        lb = self._lower_bound()
        for dst, lookahead in self.out_lookahead.items():
            promise = lb + lookahead
            if self.ring.flush_channel(dst, promise):
                self.sent_promise[dst] = promise
            elif promise > self.sent_promise[dst]:
                self.ring.send_null(dst, promise)
                self.sent_promise[dst] = promise
                self.nulls += 1

    def _drain(self) -> None:
        for r in self.readers.values():
            r.drain(self.world.inboxes)

    def _ring_block(self, fd: int) -> None:
        """An outbound ring pipe is full; avoid a mutual-flood deadlock.

        The peer may itself be blocked writing to us, so drain our own
        in-rings (freeing its writer) before waiting for pipe space.
        Arrivals pushed into inboxes mid-advance are safe: an ongoing
        ``group.advance`` uses a promises snapshot that only lags the
        ratchet, so its horizons stay conservative and every new
        delivery time still lies at or beyond them.
        """
        t0 = time.perf_counter()
        self._drain()
        select.select([], [fd], [], 0.05)
        self.block_s += time.perf_counter() - t0

    def _handle_control(self) -> bool:
        """Process queued coordinator messages; True on stop."""
        while self.conn.poll():
            msg = self.conn.recv()
            kind = msg[0]
            if kind == "probe":
                # Drain (and act on) everything already in our rings
                # before answering, so sent/recv counts converge.
                self._drain()
                self.world.group.advance(self.limit, self._promises())
                self._flush()
                self.conn.send(
                    (
                        "probe_reply",
                        msg[1],
                        self.world.group.idle(self.limit),
                        dict(self.ring.sent),
                        self._received(),
                    )
                )
            elif kind == "stop":
                return True
        return False

    # -- main loop -------------------------------------------------------
    def run(self) -> None:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        self._simulate()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        payload = self.world.result(wall, cpu)
        payload["sent"] = dict(self.ring.sent)
        payload["recv"] = self._received()
        payload["sync"] = {key: getattr(self, key) for key in SYNC_KEYS}
        self.conn.send(("result", self.world.shard, payload))
        # Keep our ring write-ends open until every peer has stopped
        # draining (the coordinator releases all workers together),
        # so nobody mistakes our exit for a crash.
        self.conn.recv()

    def _simulate(self) -> None:
        sel = selectors.DefaultSelector()
        for reader in self.readers.values():
            sel.register(reader.fd, selectors.EVENT_READ, reader)
        sel.register(self.conn, selectors.EVENT_READ, None)
        group = self.world.group
        try:
            while True:
                t0 = time.perf_counter()
                progressed = group.advance(self.limit, self._promises())
                t1 = time.perf_counter()
                self._flush()
                t2 = time.perf_counter()
                # Block until a peer ships records/promises or the
                # coordinator speaks; drain only what actually fired
                # (each read is a syscall, and sync wakeups are the
                # hot loop's fixed cost).
                ready = sel.select(timeout=0.2)
                self.turns += 1
                self.event_turns += progressed
                self.advance_s += t1 - t0
                self.flush_s += t2 - t1
                self.select_s += time.perf_counter() - t2
                control = False
                for key, _ in ready:
                    if key.data is None:
                        control = True
                    else:
                        key.data.drain(self.world.inboxes)
                if control and self._handle_control():
                    return
        finally:
            sel.close()
