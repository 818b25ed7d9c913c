"""Site-local-first placement with cross-site spill-over bids.

The federation's placement rule (§3.1's broker tree, stretched over
sites): a request entering a site is first bid out *inside* that site
only.  Cross-site traffic happens in exactly two cases —

* the local site **declines** outright (no rack broker bids: every
  plant is full or down), or
* the local site is **saturated**: its best local bid exceeds the
  ``spill_threshold`` of the site's
  :class:`~repro.faults.recovery.RecoveryPolicy` (creation-cost bids
  grow with queue depth, so a high bid *is* the saturation signal).

Each placement costs the site **one** local bid round
(:meth:`FederationGateway.place_local`): the bids that answer "should
this request leave the site?" are the bids the local create is
dispatched from.  A create that follows simulated time — a remote's
spill target, the saturated create after a failed ladder — bids
afresh, because plant state has moved.

Only then does the gateway collect bids from remote site gateways,
bounded by ``spill_deadline_s`` so one slow WAN peer cannot stall the
round, and walks the ranked remote bids as a **failover ladder**: a
remote whose create fails (it filled up between bid and create, or
its site went dark) costs one rung, not the whole round.  Exhausting
the ladder starts a fresh spill round after
``RecoveryPolicy.spill_backoff_s`` (up to ``spill_attempts`` rounds),
and repeatedly-failing remotes are quarantined by per-remote
:class:`~repro.faults.health.PlantHealth` circuit breakers
(``remote_quarantine_threshold``).  Keeping discovery site-local
first is what makes the control plane shard: the common-case request
never leaves its site's kernel shard, and only spill-overs cross
:class:`~repro.sim.network.BoundaryLink`\\ s.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.core.errors import ShopError
from repro.core.spec import CreateRequest
from repro.faults.health import PlantHealth
from repro.faults.recovery import RecoveryPolicy
from repro.shop.bidding import Bid
from repro.shop.vmshop import VMShop

__all__ = ["FederationGateway"]


class FederationGateway:
    """One site's entry point into the federated grid."""

    def __init__(
        self,
        site: int,
        shop: VMShop,
        policy: Optional[RecoveryPolicy] = None,
    ):
        self.site = site
        self.shop = shop
        self.policy = policy or shop.recovery
        #: Remote peers, in site order: anything exposing ``name``,
        #: ``estimate(request)`` and ``create(request, vmid, ...)`` —
        #: in grid mode the other sites' gateways themselves.
        self.remotes: List[Any] = []
        #: The gateway bids into the federation under this name.
        self.name = f"site{site}-gateway"
        #: Absolute simulated times this gateway is unavailable:
        #: ``down_until`` (site blackout — estimates decline, creates
        #: fail fast) and ``hang_until`` (gateway hang — inbound
        #: creates stall).  Both heal by clock comparison; the fault
        #: injector only ever raises them.
        self.down_until = 0.0
        self.hang_until = 0.0
        #: Per-remote circuit breakers (active when the policy's
        #: ``remote_quarantine_threshold`` > 0).
        self.remote_health: Dict[str, PlantHealth] = {}
        # Spill accounting for the experiments/bench.
        self.local_creates = 0
        self.spill_creates = 0
        self.spills_declined = 0
        self.spills_saturated = 0
        self.spill_failures = 0
        self.spill_retries = 0

    def add_remote(self, gateway: Any) -> None:
        if gateway is self:
            raise ShopError("a site cannot be its own spill-over remote")
        self.remotes.append(gateway)

    # -- federation-facing bidder protocol ----------------------------------
    def estimate(self, request: CreateRequest) -> Generator:
        """This site's best local bid (None = site declines)."""
        if self.down_until > self.shop.env.now:
            return None  # site dark: decline without touching plants
        bids = yield self.shop.estimate(request)
        if not bids:
            return None
        return min(bid.cost for bid in bids)

    def create(
        self,
        request: CreateRequest,
        vmid: Optional[str] = None,
        clone_mode: Optional[Any] = None,
    ) -> Generator:
        """Create strictly inside this site (a remote's spill target).

        ``vmid`` is accepted for bidder-protocol compatibility but the
        VM is always named by the owning site's shop — VMIDs stay
        site-unique and routable.  A dark site fails fast; a hung
        gateway stalls the caller until the hang window passes.
        """
        if self.down_until > self.shop.env.now:
            raise ShopError(
                f"{self.name}: site dark until t={self.down_until:.1f}"
            )
        if self.hang_until > self.shop.env.now:
            yield self.hang_until - self.shop.env.now
            if self.down_until > self.shop.env.now:
                raise ShopError(
                    f"{self.name}: site went dark during gateway hang"
                )
        ad = yield self.shop.create(request, clone_mode)
        return ad

    # -- spill decision ------------------------------------------------------
    def should_spill(self, local_bids: Sequence[Bid]) -> bool:
        """Spill when the site declines or its best bid is saturated."""
        if not local_bids:
            return True
        if self.policy.spill_threshold is None:
            return False
        return min(bid.cost for bid in local_bids) > self.policy.spill_threshold

    # -- remote circuit breakers --------------------------------------------
    def _breaker(self, remote: Any) -> Optional[PlantHealth]:
        if self.policy.remote_quarantine_threshold <= 0:
            return None
        name = getattr(remote, "name", str(remote))
        health = self.remote_health.get(name)
        if health is None:
            health = PlantHealth(
                name,
                self.policy.remote_quarantine_threshold,
                self.policy.remote_quarantine_s,
            )
            self.remote_health[name] = health
        return health

    def _open_remotes(self) -> List[Any]:
        """Remotes admitted by their breakers (all, when disabled)."""
        now = self.shop.env.now
        admitted = []
        for remote in self.remotes:
            health = self._breaker(remote)
            if health is None or health.allows(now):
                admitted.append(remote)
        return admitted

    def _record_remote(self, remote: Any, ok: bool) -> None:
        health = self._breaker(remote)
        if health is not None:
            now = self.shop.env.now
            if ok:
                health.record_success(now)
            else:
                health.record_failure(now)

    # -- placement ----------------------------------------------------------
    def _spill(
        self,
        request: CreateRequest,
        clone_mode: Optional[Any],
    ) -> Generator:
        """Walk the spill failover ladder; returns ``(ad, site)`` or
        ``None`` when every remote rung failed.

        Each round collects fresh bids from breaker-admitted remotes
        and tries them best-first; a failed create costs one rung and
        feeds that remote's breaker.  Further rounds wait
        ``spill_backoff_delay`` first.  Every create attempt beyond
        the first is counted in ``spill_retries``.
        """
        rounds = max(1, self.policy.spill_attempts)
        tried = 0
        for round_no in range(1, rounds + 1):
            if round_no > 1:
                delay = self.policy.spill_backoff_delay(round_no)
                if delay > 0:
                    yield delay
            remote_bids = yield self.shop.collector.collect(
                self._open_remotes(),
                request,
                deadline_s=self.policy.spill_deadline_s,
            )
            if not remote_bids:
                continue
            for bid in self.shop.collector.rank(remote_bids):
                if tried:
                    self.spill_retries += 1
                tried += 1
                try:
                    ad = yield self.shop.transport.call(
                        bid.bidder.create, request, None, clone_mode
                    )
                except ShopError:
                    # The remote filled up (or went dark) between bid
                    # and create; fail over to the next rung.
                    self.spill_failures += 1
                    self._record_remote(bid.bidder, ok=False)
                else:
                    self.spill_creates += 1
                    self._record_remote(bid.bidder, ok=True)
                    return ad, getattr(bid.bidder, "site", -1)
        return None

    def place_local(
        self,
        request: CreateRequest,
        clone_mode: Optional[Any] = None,
        can_spill: bool = True,
    ) -> Generator:
        """The site-local half of placement, on one bid round.

        Collects the site's bids once, decides from them whether the
        request should leave the site, and otherwise creates it here
        *from those same bids* (``VMShop.create(..., bids=)``): no time
        has passed since they were collected, so asking every plant
        again would only repeat the answers.  Every entry into the
        federation goes through here — :meth:`place` and the sharded
        grid scenario, which differ only in how a spilled request
        travels.

        Returns ``(classad, local_bids)``; the classad is ``None``
        when the request should spill (ledgered as saturated or
        declined), which only happens while ``can_spill`` — a caller
        with nowhere to spill to gets the saturated local create, or
        :class:`ShopError` when the site declined outright.
        """
        local_bids = yield self.shop.estimate(request)
        if can_spill and self.should_spill(local_bids):
            if local_bids:
                self.spills_saturated += 1
            else:
                self.spills_declined += 1
            return None, local_bids
        if not local_bids:
            raise ShopError(
                f"site {self.site}: no local plant bid for the request"
            )
        ad = yield self.shop.create(request, clone_mode, bids=local_bids)
        self.local_creates += 1
        return ad, local_bids

    def place(
        self,
        request: CreateRequest,
        clone_mode: Optional[Any] = None,
    ) -> Generator:
        """Place a request: local site first, spill-over second.

        Returns ``(classad, site)`` — the classad of the created VM
        and the site that hosts it.  Raises :class:`ShopError` when
        the local site declines/saturates and no remote bids either.
        """
        ad, local_bids = yield self.place_local(request, clone_mode)
        if ad is not None:
            return ad, self.site

        placed = yield self._spill(request, clone_mode)
        if placed is not None:
            return placed
        if local_bids:
            # Saturated is still better than failed.  The ladder took
            # simulated time, so this create bids afresh.
            ad = yield self.shop.create(request, clone_mode)
            self.local_creates += 1
            return ad, self.site
        raise ShopError(
            f"site {self.site}: no local or remote plant bid for the request"
        )

    def __repr__(self) -> str:
        return (
            f"<FederationGateway site={self.site} "
            f"local={self.local_creates} spilled={self.spill_creates} "
            f"remotes={len(self.remotes)}>"
        )
