"""Peer-to-peer broadcast trees for golden-image delivery.

The baseline topology is a star: every host pulls clone state over the
one shared warehouse link, so delivering one image to N hosts costs N
serialized (fair-shared) transfers and creation p95 grows linearly
with the fleet.  The :class:`DistributionPlanner` turns delivery into
a broadcast *tree*: the first fetch seeds the image over NFS, every
subsequent host copies from an already-seeded peer over that peer's
cluster uplink, and each freshly seeded host immediately becomes a
source itself.  With a fan-out bound of *k* the population of sources
multiplies by (k+1) per transfer round, so total delivery time grows
with tree depth — O(log N) — instead of fleet size.

The planner also generalizes PR 3's :class:`TransferCoalescer`:
instead of only attaching to an in-flight *warehouse* copy, a caller
may attach to **any** in-flight transfer of the image — peer or NFS —
wait for it to land, and then resolve against the newly enlarged
source set.  Followers therefore never duplicate bytes on any link,
and the attach/retry loop is what threads new arrivals into the tree.

Failure model: a source host crashing mid-serve aborts the flows on
its uplink (:meth:`on_host_crashed`), the receiving fetch observes a
:class:`~repro.core.errors.StorageError` and falls back one rung —
another peer if one exists, the warehouse otherwise.  The NFS rung
inherits the warehouse outage semantics unchanged.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.core.errors import StorageError
from repro.distribution.peerstore import PeerImageStore
from repro.sim.host import PhysicalHost
from repro.sim.kernel import Environment, Event
from repro.sim.latency import DEFAULT_LATENCY, INTERNODE_MBPS, LatencyModel
from repro.sim.network import FairShareLink
from repro.sim.trace import trace

__all__ = ["DistributionPlanner"]

#: Attach/retry rungs a fetch climbs before forcing the NFS path.
#: Purely a liveness backstop — a healthy tree resolves in one or two.
_MAX_RETRIES = 8


class _Flight:
    """One in-flight delivery of an image onto one host."""

    __slots__ = ("image_id", "store", "kind", "seq", "done", "waiters")

    def __init__(
        self,
        image_id: str,
        store: PeerImageStore,
        kind: str,
        seq: int,
        done: Event,
    ):
        self.image_id = image_id
        self.store = store
        #: ``"peer"`` or ``"nfs"`` — where the bytes are coming from.
        self.kind = kind
        self.seq = seq
        self.done = done
        self.waiters = 0


class DistributionPlanner:
    """Assembles k-ary broadcast trees over per-host cluster uplinks.

    The tree is not planned ahead of time; it *emerges* from three
    deterministic local rules applied by each :meth:`fetch`:

    1. prefer the least-busy seeded peer whose fan-out budget
       (``fanout`` concurrent serves) is not exhausted;
    2. otherwise attach to the least-subscribed in-flight delivery of
       the image (peer or NFS) and retry once it lands;
    3. otherwise seed from the warehouse.

    Rule 2 is the generalized coalescer; rule 1 + the fan-out bound
    yield chained trees at ``fanout=1``, binary at 2, k-ary above.
    All choices tie-break on registration order, so trajectories are
    reproducible run-to-run.
    """

    def __init__(
        self,
        env: Environment,
        nfs,
        latency: LatencyModel = DEFAULT_LATENCY,
        fanout: int = 2,
    ):
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        self.env = env
        self.nfs = nfs
        self.latency = latency
        self.fanout = fanout
        #: host name → serving store, in registration order.
        self.stores: "Dict[str, PeerImageStore]" = {}
        #: host name → lazily created serving uplink.
        self._uplinks: Dict[str, FairShareLink] = {}
        self._flights: Dict[str, List[_Flight]] = {}
        self._seq = 0
        # Counters surfaced by experiments and benchmarks.
        self.local_hits = 0
        self.peer_hops = 0
        self.attaches = 0
        self.fallbacks = 0
        self.nfs_seeds = 0
        self.mb_peered = 0.0

    # -- membership ----------------------------------------------------------
    def register_host(
        self, host: PhysicalHost, site: int = 0
    ) -> PeerImageStore:
        """Enroll a host (idempotent); requires a state cache to serve.

        ``site`` tags the host with its grid site: source picking
        prefers same-site seeded peers over peers that would pull the
        bytes across an inter-site boundary (all hosts default to
        site 0, which leaves single-site behaviour unchanged).
        """
        store = self.stores.get(host.name)
        if store is not None:
            return store
        if host.state_cache is None:
            raise ValueError(
                f"host {host.name} has no state cache; the distribution "
                f"layer serves peers from it"
            )
        store = PeerImageStore(
            host, host.state_cache, len(self.stores), site
        )
        self.stores[host.name] = store
        return store

    def _uplink(self, host: PhysicalHost) -> FairShareLink:
        link = self._uplinks.get(host.name)
        if link is None:
            link = FairShareLink(
                self.env,
                f"{host.name}-peer-uplink",
                INTERNODE_MBPS,
            )
            self._uplinks[host.name] = link
        return link

    def on_host_crashed(self, host: PhysicalHost) -> int:
        """Abort every serve in flight on the dead host's uplink.

        The receivers' fetches observe a :class:`StorageError` and fall
        back down the recovery ladder (another peer, then NFS).  The
        host's own cache has been cleared by the crash, so ``holds``
        already answers False.  Idempotent; returns aborted flows.
        """
        link = self._uplinks.get(host.name)
        if link is None or link.active_flows == 0:
            return 0
        return link.abort_flows(
            lambda: StorageError(
                f"peer {host.name} died mid-transfer"
            )
        )

    # -- fetch ----------------------------------------------------------------
    def fetch(
        self,
        host: PhysicalHost,
        image_id: str,
        payload_mb: float,
        files: int = 1,
    ) -> Generator:
        """Deliver ``image_id``'s clone state onto ``host``.

        Returns how the bytes arrived: ``"local"`` (already seeded
        here), ``"peer"`` (tree hop), ``"coalesced"`` (attached to an
        in-flight delivery, then resolved locally/from a peer) or
        ``"nfs"`` (seeded from the warehouse).
        """
        store = self.stores.get(host.name)
        if store is None:
            store = self.register_host(host)
        attached = False
        for _ in range(_MAX_RETRIES):
            if store.holds(image_id):
                # Seeded while we waited (or by an earlier clone):
                # replicate locally, off every network link.
                self.local_hits += 1
                yield host.disk_read(payload_mb)
                yield host.disk_write(payload_mb)
                return "coalesced" if attached else "local"
            source = self._pick_source(image_id, exclude=store)
            if source is not None:
                try:
                    yield self._peer_copy(
                        source, store, image_id, payload_mb
                    )
                except StorageError as exc:
                    # Source died (or its uplink was aborted) mid-hop:
                    # drop a rung and retry — next peer, else NFS.
                    self.fallbacks += 1
                    trace(
                        self.env, "storage", "tree-fallback",
                        host=host.name, source=source.host.name,
                        image=image_id, error=str(exc),
                    )
                    continue
                return "peer"
            flight = self._pick_flight(image_id, store)
            if flight is not None:
                attached = True
                self.attaches += 1
                flight.waiters += 1
                trace(
                    self.env, "storage", "tree-attach",
                    follower=host.name, leader=flight.store.host.name,
                    image=image_id, kind=flight.kind,
                )
                try:
                    yield flight.done
                finally:
                    flight.waiters -= 1
                # Errors are not terminal for followers: the retry
                # loop resolves against whatever sources now exist and
                # bottoms out at the warehouse rung.
                continue
            result = yield self._nfs_seed(
                store, image_id, payload_mb, files
            )
            return result
        # Pathological churn (every rung failed repeatedly): take the
        # warehouse path unconditionally rather than loop forever.
        result = yield self._nfs_seed(store, image_id, payload_mb, files)
        return result

    # -- source selection -----------------------------------------------------
    def _pick_source(
        self, image_id: str, exclude: PeerImageStore
    ) -> Optional[PeerImageStore]:
        """Least-busy seeded peer under the fan-out budget.

        Site-aware: a seeded peer on the requester's own site always
        outranks one whose bytes would cross an inter-site boundary
        link, however idle the remote peer is; within a site class the
        (active_serves, registration index) order is unchanged.  The
        cross-site rung still exists — it is simply last before NFS —
        and all rungs stay deterministic.
        """
        best = None
        best_key = None
        for store in self.stores.values():
            if store is exclude or not store.holds(image_id):
                continue
            if store.active_serves >= self.fanout:
                continue
            key = (
                0 if store.site == exclude.site else 1,
                store.active_serves,
                store.index,
            )
            if best_key is None or key < best_key:
                best, best_key = store, key
        return best

    def _pick_flight(
        self, image_id: str, exclude: PeerImageStore
    ) -> Optional[_Flight]:
        flights = self._flights.get(image_id)
        if not flights:
            return None
        candidates = [f for f in flights if f.store is not exclude]
        if not candidates:
            return None
        # Same-site in-flight deliveries win for the same reason as
        # same-site sources: the follower's eventual re-resolve then
        # finds a local peer instead of crossing a boundary link.
        return min(
            candidates,
            key=lambda f: (
                0 if f.store.site == exclude.site else 1,
                f.waiters,
                f.seq,
            ),
        )

    # -- transfer legs --------------------------------------------------------
    def _register_flight(
        self, image_id: str, store: PeerImageStore, kind: str
    ) -> _Flight:
        self._seq += 1
        flight = _Flight(
            image_id, store, kind, self._seq, self.env.event()
        )
        self._flights.setdefault(image_id, []).append(flight)
        return flight

    def _retire_flight(self, flight: _Flight) -> None:
        flights = self._flights.get(flight.image_id)
        if flights is not None:
            flights.remove(flight)
            if not flights:
                del self._flights[flight.image_id]
        # Waiters always wake through `done` and re-resolve; failing
        # the event would blow up unwaited in the kernel.
        flight.done.succeed()

    def _peer_copy(
        self,
        source: PeerImageStore,
        dest: PeerImageStore,
        image_id: str,
        payload_mb: float,
    ) -> Generator:
        """One tree hop: stream state from a seeded peer's disk.

        The network stage is pipelined with the destination's local
        write (same charging rule as ``NFSServer.copy_to_host``): the
        uplink transfer is paid in full, plus only the *excess* write
        time beyond it under memory pressure.
        """
        flight = self._register_flight(image_id, dest, "peer")
        source.begin_serve(image_id)
        ok = False
        start = self.env.now
        try:
            yield self._uplink(source.host).transfer(payload_mb)
            network_time = self.env.now - start
            write_time = (
                payload_mb
                / self.latency.host_disk_write_mbps
                * dest.host.pressure_factor()
            )
            if write_time > network_time:
                yield write_time - network_time
            ok = True
        finally:
            source.end_serve(image_id, payload_mb, ok)
            self._retire_flight(flight)
        self.peer_hops += 1
        self.mb_peered += payload_mb
        if not dest.host.down:
            dest.seed(image_id, payload_mb)
        trace(
            self.env, "storage", "tree-hop",
            source=source.host.name, dest=dest.host.name,
            image=image_id, mb=payload_mb,
        )

    def _nfs_seed(
        self,
        store: PeerImageStore,
        image_id: str,
        payload_mb: float,
        files: int,
    ) -> Generator:
        """Root rung: seed the image from the warehouse.

        Registered as a flight so later arrivals attach to it instead
        of opening parallel warehouse pulls — the planner's flights
        subsume the per-host :class:`TransferCoalescer` on this path.
        Warehouse outage errors propagate to the caller exactly as the
        baseline star topology would surface them.
        """
        flight = self._register_flight(image_id, store, "nfs")
        try:
            yield self.nfs.copy_to_host(
                payload_mb, store.host, files=files
            )
        finally:
            self._retire_flight(flight)
        self.nfs_seeds += 1
        if not store.host.down:
            store.seed(image_id, payload_mb)
        trace(
            self.env, "storage", "tree-hop",
            source="nfs", dest=store.host.name,
            image=image_id, mb=payload_mb,
        )
        return "nfs"
