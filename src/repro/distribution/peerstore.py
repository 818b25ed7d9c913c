"""Per-host registry of golden-image payloads servable to peers.

Every :class:`~repro.sim.host.PhysicalHost` in a distribution-enabled
site carries a :class:`PeerImageStore`: a thin serving façade over the
host's :class:`~repro.sim.host.HostStateCache`.  The first warehouse
fetch of an image *seeds* the store (the bytes land on the local disk
and enter the LRU cache); from then on the host can serve that state
to peers over its cluster uplink, subject to the planner's fan-out
bound.

Because the store shares the host cache it is capacity-bounded by the
same budget and evicted by the same LRU policy — an image pushed out
by newer clone state silently stops being advertised.  Entries being
read by an in-progress peer serve are pinned in the cache so the
eviction scan passes over them (see ``HostStateCache.pin``): the race
between an eviction-heavy clone burst and a peer transfer resolves as
"the transfer completes, something else is evicted".
"""

from __future__ import annotations

from repro.sim.host import HostStateCache, PhysicalHost

__all__ = ["PeerImageStore"]


class PeerImageStore:
    """Serving view of one host's cached golden-image state."""

    __slots__ = (
        "host",
        "cache",
        "index",
        "site",
        "active_serves",
        "serves",
        "mb_served",
    )

    def __init__(
        self,
        host: PhysicalHost,
        cache: HostStateCache,
        index: int,
        site: int = 0,
    ):
        self.host = host
        self.cache = cache
        #: Registration position; the planner's deterministic
        #: tie-break when several sources are equally loaded.
        self.index = index
        #: Grid site the host belongs to; the planner prefers
        #: same-site sources before crossing an inter-site boundary.
        self.site = site
        #: Peer transfers currently reading from this host.
        self.active_serves = 0
        self.serves = 0
        self.mb_served = 0.0

    def holds(self, image_id: str) -> bool:
        """Can this host serve the image right now?

        Requires the bytes in the local cache and the host up; a
        crashed host's disk state is gone (``HostStateCache.clear``)
        so both conditions usually flip together.
        """
        return not self.host.down and image_id in self.cache

    def seed(self, image_id: str, size_mb: float) -> bool:
        """Admit freshly landed image state into the serving cache."""
        return self.cache.insert(image_id, size_mb)

    def begin_serve(self, image_id: str) -> None:
        """Pin the entry for the duration of a peer transfer."""
        self.cache.pin(image_id)
        self.active_serves += 1

    def end_serve(self, image_id: str, size_mb: float, ok: bool) -> None:
        """Release the pin and account for the transfer."""
        self.cache.unpin(image_id)
        self.active_serves -= 1
        if ok:
            self.serves += 1
            self.mb_served += size_mb
