"""Batched, pickle-free event rings between kernel shards.

Cross-shard boundary messages travel as fixed-size struct-packed
records over one unidirectional OS pipe per directed shard pair — no
pickling on the hot path.  Each record carries:

* ``kind`` — ``MSG`` (a boundary delivery) or ``NULL`` (a pure
  lookahead promise, the conservative-sync "null message");
* routing — source site, destination site, endpoint id, a
  per-channel sequence number;
* ``deliver_time`` — the simulation time the destination endpoint
  fires;
* ``promise`` — the sender's guarantee that no *future* record on
  this channel will deliver earlier than this time (its clock floor
  plus the channel lookahead);
* up to four float payload fields.

The same staging interface serves in-process delivery: when source
and destination sites run in the same process, :class:`RouterOutbox`
pushes records straight into the destination's :class:`SiteInbox`
with identical (src_site, seq) ordering metadata — which is what
makes N-shard runs trace-identical to single-shard runs.
"""

from __future__ import annotations

import heapq
import os
import select
import struct
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "RECORD",
    "KIND_NULL",
    "KIND_MSG",
    "SiteInbox",
    "RouterOutbox",
    "RingOutbox",
    "RingReader",
    "BrokenShardError",
]

#: kind(u8)+pad, src_site, dst_site, endpoint, seq, deliver_time,
#: promise, payload[4] — 72 bytes per record, little-endian.
RECORD = struct.Struct("<Bxxxiiiqdddddd")

#: Byte offsets of the deliver_time / promise fields within a record.
_OFF_DELIVER = 24
_OFF_PROMISE = 32
_F64 = struct.Struct("<d")

KIND_NULL = 0
KIND_MSG = 1

#: Records buffered before an eager flush (batching amortizes the
#: pipe write; a flush also always happens when the shard blocks).
FLUSH_BATCH = 128

#: Bytes asked of a ring pipe per read.
READ_CHUNK = 1 << 16

Payload = Tuple[float, ...]


def _pad4(payload: Payload) -> Tuple[float, float, float, float]:
    vals = tuple(float(v) for v in payload)[:4]
    return vals + (0.0,) * (4 - len(vals))


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

    def __len__(self) -> int:
        return len(self._heap)


class RouterOutbox:
    """Splits emissions between local inboxes and a cross-shard ring.

    Every process stages boundary sends through one of these: a
    destination site living in the same shard is delivered in-process,
    anything else is struct-packed onto the ring for its shard (a
    one-shard run has no such destination, and no ring).  Sequence
    numbers are assigned per directed *site* pair in send order on
    both paths, so delivery order is the same at every shard count.
    """

    __slots__ = ("inboxes", "ring", "partition", "shard", "_seq")

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

    def emit(
        self,
        dst_site: int,
        deliver_time: float,
        src_site: int,
        endpoint: int,
        payload: Payload,
    ) -> None:
        key = (src_site, dst_site)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        if self.partition[dst_site] == self.shard:
            self.inboxes[dst_site].push(
                deliver_time, src_site, seq, endpoint, payload
            )
        else:
            self.ring.pack(
                self.partition[dst_site],
                KIND_MSG,
                src_site,
                dst_site,
                endpoint,
                seq,
                deliver_time,
                payload,
            )


class RingOutbox:
    """Write side of the per-destination-shard event rings.

    Write fds are non-blocking: when a pipe fills, :meth:`_write`
    invokes ``on_block`` (if set) so the owner can drain its *own*
    in-rings — the peer may itself be blocked writing to us, and
    draining breaks the cycle — then retries until every byte is
    shipped.  Without a callback it simply waits for pipe space.
    """

    __slots__ = ("fds", "bufs", "sent", "on_block")

    def __init__(
        self,
        fds: Dict[int, int],
        on_block: Optional[Callable[[int], None]] = None,
    ):
        #: dst shard -> pipe write fd
        self.fds = fds
        self.bufs: Dict[int, bytearray] = {s: bytearray() for s in fds}
        #: dst shard -> delivered message count (nulls excluded).
        self.sent: Dict[int, int] = {s: 0 for s in fds}
        #: Called with the blocked fd when a pipe write would block.
        self.on_block = on_block
        for fd in fds.values():
            os.set_blocking(fd, False)

    def pack(
        self,
        dst_shard: int,
        kind: int,
        src_site: int,
        dst_site: int,
        endpoint: int,
        seq: int,
        deliver_time: float,
        payload: Payload,
    ) -> None:
        p0, p1, p2, p3 = _pad4(payload)
        self.bufs[dst_shard] += RECORD.pack(
            kind,
            src_site,
            dst_site,
            endpoint,
            seq,
            deliver_time,
            0.0,  # promise stamped at flush time
            p0,
            p1,
            p2,
            p3,
        )
        if kind == KIND_MSG:
            self.sent[dst_shard] += 1
        if len(self.bufs[dst_shard]) >= FLUSH_BATCH * RECORD.size:
            # Oversized batches flush eagerly with a conservative
            # channel bound of -inf (no guarantee about later sends);
            # the next regular flush carries the real promise.
            self._write(dst_shard, float("-inf"))

    def flush_channel(self, dst_shard: int, promise: float) -> bool:
        """Flush one channel if it has buffered records; returns True if so."""
        if not self.bufs[dst_shard]:
            return False
        self._write(dst_shard, promise)
        return True

    def send_null(self, dst_shard: int, promise: float) -> None:
        """Send a pure lookahead promise on an idle channel."""
        self.bufs[dst_shard] += RECORD.pack(
            KIND_NULL, -1, -1, -1, 0, 0.0, promise, 0.0, 0.0, 0.0, 0.0
        )
        self._write(dst_shard, promise)

    def _write(self, dst_shard: int, bound: float) -> None:
        """Stamp per-record promises and ship the buffered batch.

        ``bound`` is the channel-level lower bound on *future* sends
        (``-inf`` for an eager mid-advance flush).  Pipe writes past
        PIPE_BUF are not atomic, so a reader may observe any prefix
        of this batch; a record's stamped promise must therefore also
        cover the records *after* it in the batch.  Stamping
        backwards, record *i* gets ``min(bound, deliver_time of
        records i+1..n)`` — the tightest promise that cannot ratchet
        the reader past a still-in-flight delivery.
        """
        buf = self.bufs[dst_shard]
        size = RECORD.size
        for off in range(len(buf) - size, -1, -size):
            _F64.pack_into(buf, off + _OFF_PROMISE, bound)
            if buf[off] == KIND_MSG:
                (dt,) = _F64.unpack_from(buf, off + _OFF_DELIVER)
                if dt < bound:
                    bound = dt
        data = memoryview(bytes(buf))
        buf.clear()
        fd = self.fds[dst_shard]
        while data:
            try:
                n = os.write(fd, data)
            except BlockingIOError:
                # Pipe full.  Drain our own in-rings via on_block (the
                # peer may be blocked writing to us) or wait for space.
                if self.on_block is not None:
                    self.on_block(fd)
                else:
                    select.select([], [fd], [])
                continue
            except BrokenPipeError as exc:
                raise BrokenShardError(
                    f"event ring to shard {dst_shard} closed "
                    f"mid-run (worker died?)"
                ) from exc
            data = data[n:]


class RingReader:
    """Read side: decodes records from one source shard's ring."""

    __slots__ = ("src_shard", "fd", "_buf", "promise", "received")

    def __init__(self, src_shard: int, fd: int, initial_promise: float):
        self.src_shard = src_shard
        self.fd = fd
        os.set_blocking(fd, False)
        self._buf = bytearray()
        #: No delivery from this shard will occur before this time.
        self.promise = initial_promise
        #: Delivered message count (nulls excluded).
        self.received = 0

    def drain(self, inboxes: Dict[int, SiteInbox]) -> bool:
        """Consume available bytes; route messages; update promise.

        Returns True if anything (messages or promises) arrived.
        Raises ``BrokenShardError`` on EOF — a peer died mid-run.
        """
        got = False
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
            got = True
        buf = self._buf
        size = RECORD.size
        usable = len(buf) - (len(buf) % size)
        for off in range(0, usable, size):
            (
                kind,
                src_site,
                dst_site,
                endpoint,
                seq,
                deliver_time,
                promise,
                p0,
                p1,
                p2,
                p3,
            ) = RECORD.unpack_from(buf, off)
            if promise > self.promise:
                self.promise = promise
            if kind == KIND_MSG:
                inboxes[dst_site].push(
                    deliver_time, src_site, seq, endpoint, (p0, p1, p2, p3)
                )
                self.received += 1
        del buf[:usable]
        return got


class BrokenShardError(RuntimeError):
    """A peer shard's event ring closed unexpectedly."""
