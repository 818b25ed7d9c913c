"""Batched, pickle-free event rings between kernel shards.

Cross-shard boundary messages travel as fixed-size struct-packed
records over one unidirectional OS pipe per directed shard pair — no
pickling on the hot path.  Each record carries routing (source site,
destination site, endpoint id, a per-channel sequence number), the
``deliver_time`` at which the destination endpoint fires, and up to
four float payload fields.  Under the window protocol of
:mod:`repro.sim.shard.sync` every record sent in a window is due at
or after its end, and the receiver runs the next window only once it
holds as many records as the senders shipped.

The same staging interface serves in-process delivery: when source
and destination sites run in the same process, :class:`RouterOutbox`
pushes records straight into the destination's :class:`SiteInbox`
with identical (src_site, seq) ordering metadata — which is what
makes N-shard runs trace-identical to single-shard runs.
"""

from __future__ import annotations

import heapq
import os
import struct
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "RECORD",
    "SiteInbox",
    "RouterOutbox",
    "RingOutbox",
    "RingReader",
    "BrokenShardError",
    "SyncError",
]

#: src_site, dst_site, endpoint, seq, deliver_time, payload[4] — 56
#: bytes per record, little-endian.
RECORD = struct.Struct("<iiiqddddd")

#: Records buffered before an eager flush (batching amortizes the
#: pipe write; a flush also always happens at a window's end).
FLUSH_BATCH = 128

#: Bytes asked of a ring pipe per read.
READ_CHUNK = 1 << 16

Payload = Tuple[float, ...]


class SyncError(RuntimeError):
    """The window protocol's bookkeeping caught a causality violation."""


class SiteInbox:
    """Pending boundary deliveries for one destination site.

    A heap ordered by ``(deliver_time, src_site, seq)`` — the
    canonical cross-mode delivery order.  Two messages arriving at
    the same instant are handled lower-source-site first, then in
    channel sequence order, regardless of how (or when) the records
    physically arrived.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, int, Payload]] = []

    def push(
        self,
        deliver_time: float,
        src_site: int,
        seq: int,
        endpoint: int,
        payload: Payload,
    ) -> None:
        heapq.heappush(
            self._heap, (deliver_time, src_site, seq, endpoint, payload)
        )

    def peek_time(self) -> float:
        """Earliest pending delivery time (``inf`` when empty)."""
        return self._heap[0][0] if self._heap else float("inf")

    def pop_at(
        self, time: float
    ) -> List[Tuple[float, int, int, int, Payload]]:
        """Remove and return every delivery at exactly ``time``."""
        out = []
        heap = self._heap
        while heap and heap[0][0] == time:
            out.append(heapq.heappop(heap))
        return out


class RouterOutbox:
    """Splits emissions between local inboxes and a cross-shard ring.

    Every process stages boundary sends through one of these: a
    destination site living in the same shard is delivered in-process,
    anything else is struct-packed onto the ring for its shard (a
    one-shard run has no such destination, and no ring).  Sequence
    numbers are assigned per directed *site* pair in send order on
    both paths, so delivery order is the same at every shard count.

    ``window_end`` is the end of the window being run: a record due
    before it would be delivered in a window its destination may
    already have run, so staging one raises :class:`SyncError`.
    ``earliest`` is the earliest delivery staged since the window
    began — part of this process's next time.
    """

    __slots__ = (
        "inboxes", "ring", "partition", "shard", "_seq", "window_end",
        "earliest",
    )

    def __init__(
        self,
        inboxes: Dict[int, SiteInbox],
        ring: Optional["RingOutbox"],
        partition: Tuple[int, ...],
        shard: int,
    ):
        self.inboxes = inboxes
        self.ring = ring
        self.partition = partition
        self.shard = shard
        self._seq: Dict[Tuple[int, int], int] = {}
        self.window_end = float("-inf")
        self.earliest = float("inf")

    def emit(
        self, dst_site: int, deliver_time: float, src_site: int,
        endpoint: int, payload: Payload,
    ) -> None:
        if deliver_time < self.window_end:
            raise SyncError(
                f"site {src_site} staged a record to site {dst_site} due "
                f"at {deliver_time}, inside its window ending at "
                f"{self.window_end}"
            )
        if deliver_time < self.earliest:
            self.earliest = deliver_time
        key = (src_site, dst_site)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        if self.partition[dst_site] == self.shard:
            self.inboxes[dst_site].push(
                deliver_time, src_site, seq, endpoint, payload
            )
        else:
            self.ring.pack(
                self.partition[dst_site], src_site, dst_site, endpoint, seq,
                deliver_time, payload,
            )


class RingOutbox:
    """Write side of the per-destination-shard event rings.

    Write fds are non-blocking: when a pipe fills, :meth:`_write`
    invokes ``on_block`` so the owner can drain its *own* in-rings —
    the peer may itself be blocked writing to us, and draining breaks
    the cycle — then retries until every byte is shipped.
    """

    __slots__ = ("fds", "bufs", "sent", "on_block")

    def __init__(self, fds: Dict[int, int], on_block: Callable[[int], None]):
        #: dst shard -> pipe write fd
        self.fds = fds
        self.bufs: Dict[int, bytearray] = {s: bytearray() for s in fds}
        #: dst shard -> records staged for it.
        self.sent: Dict[int, int] = {s: 0 for s in fds}
        #: Called with the blocked fd when a pipe write would block.
        self.on_block = on_block
        for fd in fds.values():
            os.set_blocking(fd, False)

    def pack(
        self, dst_shard: int, src_site: int, dst_site: int, endpoint: int,
        seq: int, deliver_time: float, payload: Payload,
    ) -> None:
        buf = self.bufs[dst_shard]
        buf += RECORD.pack(
            src_site, dst_site, endpoint, seq, deliver_time,
            *payload, *(0.0,) * (4 - len(payload)),
        )
        self.sent[dst_shard] += 1
        if len(buf) >= FLUSH_BATCH * RECORD.size:
            self._write(dst_shard)

    def flush(self) -> None:
        """Ship every buffered record."""
        for dst_shard, buf in self.bufs.items():
            if buf:
                self._write(dst_shard)

    def _write(self, dst_shard: int) -> None:
        buf = self.bufs[dst_shard]
        data = memoryview(bytes(buf))
        buf.clear()
        fd = self.fds[dst_shard]
        while data:
            try:
                n = os.write(fd, data)
            except BlockingIOError:
                # Pipe full: the peer may be blocked writing to us.
                self.on_block(fd)
                continue
            except BrokenPipeError as exc:
                raise BrokenShardError(
                    f"event ring to shard {dst_shard} closed "
                    f"mid-run (worker died?)"
                ) from exc
            data = data[n:]


class RingReader:
    """Read side: decodes records from one source shard's ring."""

    __slots__ = ("src_shard", "fd", "_buf", "received")

    def __init__(self, src_shard: int, fd: int):
        self.src_shard = src_shard
        self.fd = fd
        os.set_blocking(fd, False)
        self._buf = bytearray()
        #: Records routed into inboxes so far.
        self.received = 0

    def drain(self, inboxes: Dict[int, SiteInbox]) -> None:
        """Consume available bytes and route whole records.

        Raises ``BrokenShardError`` on EOF — a peer died mid-run.
        """
        while True:
            try:
                chunk = os.read(self.fd, READ_CHUNK)
            except BlockingIOError:
                break
            if not chunk:
                raise BrokenShardError(
                    f"event ring from shard {self.src_shard} closed "
                    f"mid-run (worker died?)"
                )
            self._buf += chunk
        buf = self._buf
        usable = len(buf) - (len(buf) % RECORD.size)
        for src_site, dst_site, endpoint, seq, deliver_time, *payload in (
            RECORD.iter_unpack(buf[:usable])
        ):
            inboxes[dst_site].push(
                deliver_time, src_site, seq, endpoint, tuple(payload)
            )
        self.received += usable // RECORD.size
        del buf[:usable]


class BrokenShardError(RuntimeError):
    """A peer shard's ring or barrier pipe closed unexpectedly."""
