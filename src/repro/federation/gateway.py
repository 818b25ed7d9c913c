"""Site-local-first placement: the gateway decides when a request leaves.

The federation's placement rule (§3.1's broker tree, stretched over
sites): a request entering a site is first bid out *inside* that site
only.  It leaves the site in exactly two cases —

* the local site **declines** outright (no rack broker bids: every
  plant is full or down), or
* the local site is **saturated**: its best local bid exceeds the
  gateway's ``spill_threshold`` (creation-cost bids grow with queue
  depth, so a high bid *is* the saturation signal).

Each placement costs the site **one** local bid round
(:meth:`FederationGateway.place`): the bids that answer "should this
request leave the site?" are the bids the local create is dispatched
from.  How a request that leaves travels — the spill ring, its ack
deadline and retries — is the grid scenario's
(:mod:`repro.federation.scenario`); the gateway only decides.

Towards the rest of the grid the gateway offers a plant's services
(:meth:`~FederationGateway.estimate` /
:meth:`~FederationGateway.create`), each a generator its caller's
process drives (its estimate runs a whole local bid round, so it is
never itself a round's handler), and it carries the site's two fault
windows, a blackout (``down_until``) and a gateway hang
(``hang_until``).  Keeping discovery site-local first is what makes
the control plane shard: the common-case request never leaves its
site's kernel shard, and only spill-overs cross
:class:`~repro.sim.network.BoundaryLink`\\ s.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from repro.core.errors import ShopError
from repro.core.spec import CreateRequest
from repro.shop.bidding import Bid
from repro.shop.vmshop import VMShop

__all__ = ["FederationGateway"]


class FederationGateway:
    """One site's entry point into the federated grid."""

    def __init__(
        self,
        site: int,
        shop: VMShop,
        spill_threshold: Optional[float] = None,
    ):
        self.site = site
        self.shop = shop
        #: A request spills when the site's best local bid exceeds
        #: this cost (None = spill only when the site declines).
        self.spill_threshold = spill_threshold
        #: The gateway bids into the federation under this name.
        self.name = f"site{site}-gateway"
        #: Absolute simulated times this gateway is unavailable:
        #: ``down_until`` (site blackout — estimates decline, creates
        #: fail fast) and ``hang_until`` (gateway hang — inbound
        #: creates stall).  Both heal by clock comparison; the fault
        #: injector only ever raises them.
        self.down_until = 0.0
        self.hang_until = 0.0
        # Why requests left the site, for the experiments/bench.
        self.spills_declined = 0
        self.spills_saturated = 0

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
        if self.spill_threshold is None:
            return False
        return min(bid.cost for bid in local_bids) > self.spill_threshold

    # -- placement ----------------------------------------------------------
    def place(
        self,
        request: CreateRequest,
        clone_mode: Optional[Any] = None,
        can_spill: bool = True,
    ) -> Generator:
        """Place a request here, on one bid round, or say it should leave.

        Collects the site's bids once, decides from them whether the
        request should leave the site, and otherwise creates it here
        *from those same bids* (``VMShop.create(..., bids=)``): no time
        has passed since they were collected, so asking every plant
        again would only repeat the answers.

        Its value is ``None`` when the request should spill (ledgered
        as saturated or declined), which only happens while
        ``can_spill`` — a caller with nowhere to spill to gets the
        saturated local create, or :class:`ShopError` when the site
        declined outright.  Otherwise it *returns* the shop's create
        generator, a tail call: yielded to the kernel (``ad = yield
        gateway.place(...)``), the create runs in this frame's place
        and the caller receives the created VM's classad.  Do not drive
        it with ``yield from``, which hands the caller the create
        generator itself.
        """
        local_bids = yield self.shop.estimate(request)
        if can_spill and self.should_spill(local_bids):
            if local_bids:
                self.spills_saturated += 1
            else:
                self.spills_declined += 1
            return None
        if not local_bids:
            raise ShopError(
                f"site {self.site}: no local plant bid for the request"
            )
        # A tail call: the create takes this frame's place on the
        # caller's stack, so a parked create keeps no gateway frame.
        return self.shop.create(request, clone_mode, bids=local_bids)
