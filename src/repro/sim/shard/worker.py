"""One forked shard worker: a site world behind a window barrier.

The worker builds the :class:`~repro.sim.shard.sync.SiteWorld` of its
shard and runs the same window loop as an in-process run.  At each
barrier it sends every other worker one report, ``(next_time,
sent)`` — its sites' next time, lowered to the earliest record it
staged, and how many records it has shipped to that worker in all —
and then ships the records.  The least next time over its own and
every peer's report is the global ``T``; it drains its in-rings until
the reported counts are in, then runs the window.  While it waits it
keeps draining: one window can carry more records than a pipe holds,
and a peer blocked on a full pipe to us would never reach the
barrier.  Its ``sync`` counters say how many windows it ran and where
its wall time went.
"""

from __future__ import annotations

import gc
import os
import select
import struct
import time
import traceback
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.sim.shard.ring import BrokenShardError, RingOutbox, RingReader
from repro.sim.shard.sync import RunContext, SiteWorld

__all__ = ["worker_main"]

#: One barrier report: the sender, its next time, and the records it
#: has shipped the reader in all.  Far below PIPE_BUF, so the reports
#: every peer writes into one worker's barrier pipe never interleave.
REPORT = struct.Struct("<idq")


def worker_main(
    shard: int,
    ctx: RunContext,
    pipes: Dict[Tuple[int, int], Tuple[int, int]],
    reports: List[Tuple[int, int]],
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
    # Our barrier pipe's read end, and every peer's write end.
    report_out: Dict[int, int] = {}
    for i, (rfd, wfd) in enumerate(reports):
        if i == shard:
            os.close(wfd)
        else:
            os.close(rfd)
            report_out[i] = wfd
    try:
        _ShardWorker(
            shard, ctx, read_fds, write_fds, reports[shard][0], report_out,
            conn,
        ).run()
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
    """The barrier side of one worker's window loop."""

    def __init__(
        self,
        shard: int,
        ctx: RunContext,
        read_fds: Dict[int, int],
        write_fds: Dict[int, int],
        report_in: int,
        report_out: Dict[int, int],
        conn,
    ):
        self.conn = conn
        self.ring = RingOutbox(write_fds, on_block=self._ring_block)
        self.world = SiteWorld(ctx, shard, self.ring)
        #: in-ring fd -> its reader.
        self.readers = {
            fd: RingReader(src, fd) for src, fd in read_fds.items()
        }
        #: This worker's barrier pipe, and each peer's.
        self.report_in = report_in
        self.report_out = report_out
        #: peer -> its reports read and not yet used, oldest first: a
        #: peer can be one window ahead.
        self.reports: Dict[int, Deque[Tuple[float, int]]] = {
            src: deque() for src in report_out
        }

    def _ring_block(self, fd: int) -> None:
        """An outbound ring pipe is full, and its reader may itself be
        blocked writing to us: drain our in-rings (records drained
        mid-window are due after it), then wait for pipe space."""
        for r in self.readers.values():
            r.drain(self.world.inboxes)
        select.select([], [fd], [], 0.05)

    def _barrier(self, next_time: float) -> float:
        """Report this shard's next time; the global ``T``, once every
        record the peers shipped before reporting theirs is in."""
        world = self.world
        t0 = time.perf_counter()
        # Report first, so the peers learn T while our records travel.
        sent = self.ring.sent
        for dst, fd in self.report_out.items():
            try:
                os.write(
                    fd, REPORT.pack(world.shard, next_time, sent.get(dst, 0))
                )
            except BrokenPipeError as exc:
                raise BrokenShardError(
                    f"barrier pipe to shard {dst} closed mid-run "
                    f"(worker died?)"
                ) from exc
        self.ring.flush()
        t1 = time.perf_counter()
        reports = self.reports
        watched = [self.report_in, self.conn.fileno(), *self.readers]
        while not all(reports.values()):
            for fd in select.select(watched, [], [])[0]:
                if fd in self.readers:
                    self.readers[fd].drain(world.inboxes)
                    continue
                if fd != self.report_in:
                    raise BrokenShardError("coordinator gone mid-run")
                data = os.read(fd, 1 << 16)
                if not data:
                    raise BrokenShardError(
                        "every peer closed its barrier pipe mid-run"
                    )
                for src, peer_time, count in REPORT.iter_unpack(data):
                    reports[src].append((peer_time, count))
        t = next_time
        expected: Dict[int, int] = {}
        for src, queue in reports.items():
            peer_time, expected[src] = queue.popleft()
            if peer_time < t:
                t = peer_time
        t2 = time.perf_counter()
        for reader in self.readers.values():
            while reader.received < expected[reader.src_shard]:
                select.select([reader.fd], [], [])
                reader.drain(world.inboxes)
        world.exchange_s += (t1 - t0) + (time.perf_counter() - t2)
        world.wait_s += t2 - t1
        return t

    def run(self) -> None:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        self.world.run(self._barrier)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        payload = self.world.result(wall, cpu)
        payload["recv"] = {
            r.src_shard: r.received for r in self.readers.values()
        }
        self.conn.send(("result", self.world.shard, payload))
        # Keep our write ends open until every peer has stopped
        # reading (the coordinator releases all workers together), so
        # nobody mistakes our exit for a crash.
        self.conn.recv()
