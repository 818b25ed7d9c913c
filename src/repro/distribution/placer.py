"""Popularity-driven proactive replica placement.

The broadcast tree makes the *second* and later fetches of an image
cheap, but the first clone in a cluster still pays the warehouse pull
at request time.  The :class:`ReplicaPlacer` moves that cost off the
critical path: a small daemon (same start/stop shape as the plant's
``VMMonitor``) periodically ranks the published images by their
selection-win counters — maintained by the warehouse's
:class:`~repro.core.matchindex.MatchIndex` and including memo hits,
so they track demand, not index traffic — and pushes the hottest
state onto a handful of evenly spaced *seed hosts* through the
planner's ordinary :meth:`~DistributionPlanner.fetch` path.  Seeded
hosts immediately serve as tree roots, so a popular image is already
one hop away from everything when the next request burst arrives.

Warehouse *generation* epochs gate the work: a sweep re-plans only
when something was published/unpublished or the popularity ranking
changed since the previous sweep, so an idle site costs nothing but
the timer.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Set, Tuple

from repro.core.errors import ReproError
from repro.distribution.peerstore import PeerImageStore
from repro.distribution.planner import DistributionPlanner
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.sim.kernel import Environment, Interrupt, Process
from repro.sim.trace import trace

__all__ = ["ReplicaPlacer"]


class ReplicaPlacer:
    """Background pusher of hot images onto per-cluster seed hosts."""

    def __init__(
        self,
        env: Environment,
        planner: DistributionPlanner,
        warehouse: VMWarehouse,
        period_s: float = 120.0,
        top_k: int = 2,
        seed_hosts: int = 2,
    ):
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if top_k < 1 or seed_hosts < 1:
            raise ValueError("top_k and seed_hosts must be at least 1")
        self.env = env
        self.planner = planner
        self.warehouse = warehouse
        self.period_s = period_s
        self.top_k = top_k
        self.seed_hosts = seed_hosts
        self.sweeps = 0
        self.pushes_started = 0
        self.pushes_failed = 0
        #: (host name, image id) pairs with a push in flight, so one
        #: slow transfer is not re-launched by the next sweep.
        self._inflight: Set[Tuple[str, str]] = set()
        #: (generation, ranking) that produced the last plan.
        self._planned: Optional[tuple] = None
        self._proc: Optional[Process] = None

    # -- daemon lifecycle ---------------------------------------------------
    def start(self) -> Process:
        """Launch the placement daemon."""
        if self._proc is not None and self._proc.is_alive:
            return self._proc
        self._proc = self.env.process(self._run())
        return self._proc

    def stop(self) -> None:
        """Terminate the placement daemon."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("placer stopped")

    def _run(self) -> Generator:
        try:
            while True:
                yield self.period_s
                self.place_once()
        except Interrupt:
            pass

    # -- placement ----------------------------------------------------------
    def hot_images(self) -> List[GoldenImage]:
        """The ``top_k`` most-selected published images.

        Images never selected are not "hot" regardless of rank; ties
        break on image id so the plan is reproducible.
        """
        popularity = self.warehouse.popularity
        ranked = sorted(
            (
                img
                for img in self.warehouse.images()
                if popularity.get(img.image_id, 0) > 0
            ),
            key=lambda img: (-popularity[img.image_id], img.image_id),
        )
        return ranked[: self.top_k]

    def _seed_stores(self) -> List[PeerImageStore]:
        """``seed_hosts`` stores spread evenly over registration order.

        Even spacing puts a root in each region of the host list (the
        testbed registers hosts cluster-by-cluster), approximating a
        per-cluster seed without the planner knowing cluster bounds.
        """
        stores = list(self.planner.stores.values())
        if not stores:
            return []
        n = len(stores)
        count = min(self.seed_hosts, n)
        picked = []
        seen = set()
        for i in range(count):
            idx = i * n // count
            if idx not in seen:
                seen.add(idx)
                picked.append(stores[idx])
        return picked

    def place_once(self) -> int:
        """One placement sweep; returns the number of pushes launched.

        Cheap when nothing changed: the (warehouse generation, hot
        ranking) pair is compared against the previous sweep's and the
        sweep exits early on a match with no pushes outstanding.
        """
        self.sweeps += 1
        hot = self.hot_images()
        plan_key = (
            self.warehouse.generation,
            tuple(img.image_id for img in hot),
        )
        if plan_key == self._planned and not self._inflight:
            return 0
        launched = 0
        for image in hot:
            files = 3 if image.memory_state_mb > 0 else 2
            for store in self._seed_stores():
                pair = (store.host.name, image.image_id)
                if (
                    store.holds(image.image_id)
                    or store.host.down
                    or pair in self._inflight
                ):
                    continue
                self._inflight.add(pair)
                self.pushes_started += 1
                launched += 1
                self.env.process(
                    self._push(store, image, files)
                )
        self._planned = plan_key
        return launched

    def _push(
        self, store: PeerImageStore, image: GoldenImage, files: int
    ) -> Generator:
        pair = (store.host.name, image.image_id)
        try:
            source = yield self.planner.fetch(
                store.host,
                image.image_id,
                image.clone_payload_mb,
                files=files,
            )
        except ReproError as exc:
            # Best-effort: a failed push costs nothing but the retry
            # on a later sweep (demand fetches still work).
            self.pushes_failed += 1
            trace(
                self.env, "storage", "replica-push-failed",
                host=store.host.name, image=image.image_id,
                error=str(exc),
            )
        else:
            trace(
                self.env, "storage", "replica-push",
                host=store.host.name, image=image.image_id,
                mb=image.clone_payload_mb, source=source,
            )
        finally:
            self._inflight.discard(pair)

    def __repr__(self) -> str:
        return (
            f"<ReplicaPlacer top_k={self.top_k} seeds={self.seed_hosts}"
            f" sweeps={self.sweeps} pushes={self.pushes_started}>"
        )
