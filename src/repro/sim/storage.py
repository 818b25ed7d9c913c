"""The NFS warehouse server and its shared network path.

The paper's warehouse is an NFS mount served by a RAID5 storage server
over 100 Mbit/s switched Ethernet.  Cloning a golden machine reads its
per-clone state (configuration file, base redo log, suspended memory
image) across this path; the full-disk-copy ablation reads all 16 disk
files too.  Transfers from all eight plants share the link fairly.
"""

from __future__ import annotations

from typing import Dict, Generator, Hashable, Optional

from repro.core.errors import StorageError
from repro.sim.host import PhysicalHost
from repro.sim.kernel import Environment, Event
from repro.sim.latency import DEFAULT_LATENCY, LatencyModel
from repro.sim.network import FairShareLink
from repro.sim.rng import RngHub
from repro.sim.trace import trace

__all__ = [
    "TransferCoalescer",
    "NFSServer",
    "ReplicatedWarehouseStorage",
]


class _InflightTransfer:
    __slots__ = ("done", "followers", "error")

    def __init__(self, done: Event):
        self.done = done
        self.followers = 0
        #: The leader's failure, if any — followers fail with it.
        self.error: Optional[BaseException] = None


class TransferCoalescer:
    """Shares in-flight warehouse→host copies among same-key callers.

    Ten concurrent clones of one image onto one host need the bytes on
    that host exactly once: the first caller (the *leader*) runs the
    real :meth:`copy_to_host`; everyone else arriving before it
    completes waits on the same completion event and then pays only a
    local read+write to materialize a private replica from the data
    the leader just landed — one flow on the shared link instead of N
    contending ones.
    """

    __slots__ = ("env", "_inflight", "requests_coalesced", "mb_saved")

    def __init__(self, env: Environment):
        self.env = env
        self._inflight: Dict[Hashable, _InflightTransfer] = {}
        self.requests_coalesced = 0
        self.mb_saved = 0.0

    @property
    def inflight(self) -> int:
        """Distinct transfers currently being led."""
        return len(self._inflight)

    def copy(
        self,
        storage,
        key: Hashable,
        size_mb: float,
        host: PhysicalHost,
        files: int = 1,
        pressured: bool = True,
    ) -> Generator:
        """Coalesced copy; returns ``"nfs"`` (led) or ``"coalesced"``."""
        entry = self._inflight.get(key)
        if entry is not None:
            entry.followers += 1
            self.requests_coalesced += 1
            self.mb_saved += size_mb
            trace(
                self.env, "storage", "coalesce-attach",
                host=host.name, key=repr(key),
                follower=entry.followers, mb=size_mb,
            )
            yield entry.done
            if entry.error is not None:
                # The leader's transfer never landed: every coalesced
                # follower fails with it (there are no bytes to copy).
                raise StorageError(
                    f"coalesced transfer failed with its leader: "
                    f"{entry.error}"
                ) from entry.error
            # The leader's bytes are on this host's disk already:
            # replicate them locally, off the shared link.
            yield host.disk_read(size_mb)
            yield host.disk_write(size_mb)
            return "coalesced"
        entry = _InflightTransfer(self.env.event())
        self._inflight[key] = entry
        try:
            yield storage.copy_to_host(
                size_mb, host, files=files, pressured=pressured
            )
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            del self._inflight[key]
            # Followers always wake through `done` and check `error`;
            # failing the event instead would blow up in the kernel if
            # a follower had already been interrupted away.
            entry.done.succeed()
            del entry  # it holds the error, whose traceback holds us
        return "nfs"


class NFSServer:
    """Warehouse storage server with a fair-shared uplink."""

    def __init__(
        self,
        env: Environment,
        name: str = "nfs",
        latency: LatencyModel = DEFAULT_LATENCY,
        rng: Optional[RngHub] = None,
        link: Optional[FairShareLink] = None,
    ):
        self.env = env
        self.name = name
        self.latency = latency
        self.rng = rng or RngHub(0)
        self.link = link or FairShareLink(
            env, f"{name}-uplink", latency.nfs_link_mbps
        )
        self.requests_served = 0
        self.mb_served = 0.0
        self.coalescer = TransferCoalescer(env)
        #: Active outage mode: None (healthy), "abort" or "stall".
        self.outage_mode: Optional[str] = None
        self._outage_cleared: Optional[Event] = None
        self.outages = 0
        self.aborted_transfers = 0

    # -- fault injection -----------------------------------------------------
    def begin_outage(self, mode: str = "stall") -> bool:
        """Take the warehouse path down.

        ``"abort"`` fails every in-flight transfer and rejects new
        operations immediately; ``"stall"`` freezes in-flight flows
        and parks new operations until :meth:`end_outage`.  Returns
        False when an outage is already active (overlap is ignored).
        """
        if mode not in ("abort", "stall"):
            raise ValueError(f"unknown outage mode {mode!r}")
        if self.outage_mode is not None:
            return False
        self.outage_mode = mode
        self.outages += 1
        self._outage_cleared = self.env.event()
        if mode == "stall":
            self.link.pause()
        else:
            self.aborted_transfers += self.link.abort_flows(
                lambda: StorageError(
                    f"{self.name}: transfer aborted by warehouse outage"
                )
            )
        return True

    def end_outage(self) -> None:
        """Bring the warehouse path back; stalled callers resume."""
        if self.outage_mode is None:
            return
        if self.outage_mode == "stall":
            self.link.resume()
        self.outage_mode = None
        cleared = self._outage_cleared
        self._outage_cleared = None
        if cleared is not None:
            cleared.succeed()

    def _outage_gate(self) -> Generator:
        """Reject (abort) or park (stall) an operation during an outage.

        Entered only while an outage is active: a healthy operation
        makes no sub-call, and the default trajectory is untouched.
        """
        while self.outage_mode is not None:
            if self.outage_mode == "abort":
                raise StorageError(
                    f"{self.name}: warehouse unavailable (outage)"
                )
            yield self._outage_cleared

    def _overhead(self) -> float:
        base = self.latency.nfs_request_overhead_s
        sigma = self.latency.op_jitter_sigma
        return base * self.rng.lognormal(f"{self.name}/overhead", 0.0, sigma)

    def read_file(self, size_mb: float) -> Generator:
        """Serve one file read: request overhead + shared transfer."""
        if self.outage_mode is not None:
            yield self._outage_gate()
        yield self._overhead()
        yield self.link.transfer(size_mb)
        self.requests_served += 1
        self.mb_served += size_mb

    def copy_to_host(
        self,
        size_mb: float,
        host: PhysicalHost,
        files: int = 1,
        pressured: bool = True,
    ) -> Generator:
        """Copy warehouse state to a node's local disk.

        The transfer is pipelined with the local write, so the elapsed
        time is dominated by the slower stage; we charge the network
        stage in full and only the *excess* write time beyond it —
        which is what makes memory pressure visible even though the
        NFS link is nominally the bottleneck.
        """
        if self.outage_mode is not None:
            yield self._outage_gate()
        start = self.env.now
        for _ in range(max(1, files)):
            yield self._overhead()
        yield self.link.transfer(size_mb)
        self.requests_served += max(1, files)
        self.mb_served += size_mb
        network_time = self.env.now - start
        factor = host.pressure_factor() if pressured else 1.0
        write_time = (
            size_mb / self.latency.host_disk_write_mbps * factor
        )
        if write_time > network_time:
            yield write_time - network_time

    def __repr__(self) -> str:
        return (
            f"<NFSServer {self.name} served={self.requests_served}req/"
            f"{self.mb_served:.0f}MB>"
        )


class ReplicatedWarehouseStorage:
    """Warehouse state served from several replica servers.

    Section 3.2 points to "a VM-Warehouse based on virtualized
    distributed file systems" as ongoing work; the observable effect
    is that clone-state reads spread over replicas instead of queueing
    on one NFS path.  Each transfer goes to the replica that currently
    has the fewest in-flight megabytes committed to it — undelivered
    bytes on its uplink plus the payloads of requests still in their
    per-file overhead phase — with ties broken deterministically by
    replica position.  Flow *counts* alone would route a burst of
    small reads onto a replica mid-way through a multi-GB disk copy.

    Drop-in for :class:`NFSServer` wherever only ``read_file`` /
    ``copy_to_host`` are used (the production lines).
    """

    def __init__(self, replicas: "list[NFSServer]"):
        if not replicas:
            raise ValueError("at least one replica is required")
        self.replicas = list(replicas)
        self.env = self.replicas[0].env
        # In-flight megabytes per replica: each operation registers its
        # payload here for its full span, per-file overhead phase
        # included, which the link's own flows would miss.
        self._inflight_mb = {id(r): 0.0 for r in self.replicas}
        self._order = {id(r): i for i, r in enumerate(self.replicas)}
        # Replica-set-wide coalescing: the leader still load-balances
        # across replicas, followers never hit any uplink.
        self.coalescer = TransferCoalescer(self.env)

    def _pick(self) -> NFSServer:
        return min(
            self.replicas,
            key=lambda r: (self._inflight_mb[id(r)], self._order[id(r)]),
        )

    def begin_outage(self, mode: str = "stall") -> bool:
        """Take every replica down (site-wide warehouse outage)."""
        changed = False
        for replica in self.replicas:
            changed = replica.begin_outage(mode) or changed
        return changed

    def end_outage(self) -> None:
        """Bring every replica back."""
        for replica in self.replicas:
            replica.end_outage()

    @property
    def outage_mode(self) -> Optional[str]:
        """The replicas' common outage mode (first replica's view)."""
        return self.replicas[0].outage_mode

    @property
    def requests_served(self) -> int:
        """Aggregate request count across replicas."""
        return sum(r.requests_served for r in self.replicas)

    @property
    def mb_served(self) -> float:
        """Aggregate data served across replicas."""
        return sum(r.mb_served for r in self.replicas)

    def read_file(self, size_mb: float) -> Generator:
        """Serve one file read from the least-loaded replica."""
        replica = self._pick()
        self._inflight_mb[id(replica)] += size_mb
        try:
            yield replica.read_file(size_mb)
        finally:
            self._inflight_mb[id(replica)] -= size_mb

    def copy_to_host(
        self,
        size_mb: float,
        host: PhysicalHost,
        files: int = 1,
        pressured: bool = True,
    ) -> Generator:
        """Copy state to a node from the least-loaded replica."""
        replica = self._pick()
        self._inflight_mb[id(replica)] += size_mb
        try:
            yield replica.copy_to_host(
                size_mb, host, files=files, pressured=pressured
            )
        finally:
            self._inflight_mb[id(replica)] -= size_mb

    def __repr__(self) -> str:
        return f"<ReplicatedWarehouseStorage x{len(self.replicas)}>"
