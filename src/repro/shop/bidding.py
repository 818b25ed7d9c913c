"""Cost-bid collection and plant selection.

VMShop selects a plant "through a communication API and a binding
protocol that allows VMShop to request and collect bids containing
estimated VM creation costs" (Section 3.1).  Bids are collected from
all candidate plants in parallel over the transport — one
:meth:`~repro.shop.protocol.Transport.gather` fan-out per round, each
estimate run from its arrival timer's callback, so a round costs one
timer event per bidder and one event for the round, no event per
answer and no process per bid; the cheapest bid wins, with ties broken
uniformly at random (the Section 3.4 illustration: "the VMShop picks
one plant at random") from a named deterministic stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.core.spec import CreateRequest
from repro.shop.protocol import Transport
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub

__all__ = ["Bid", "BidCollector"]


@dataclass(frozen=True, eq=False)
class Bid:
    """One plant's (or broker's) answer to an estimate request.

    Compared by identity: two bids are the same bid only if they are
    one object (so ``list.remove`` in :meth:`BidCollector.rank` calls
    no Python ``__eq__``).
    """

    bidder_name: str
    cost: float
    #: The service object that will receive the create call.
    bidder: Any
    #: Simulated instant the collection round that gathered this bid
    #: ended.  A bid quotes plant state as of then, so a shop only
    #: dispatches from handed-in bids while the clock still reads
    #: ``at`` (hand-made bids carry ``None`` and are never accepted).
    at: Optional[float] = None


class BidCollector:
    """Parallel bid collection + deterministic random tie-breaking.

    Collection is one callback-driven transport fan-out per round
    (:meth:`~repro.shop.protocol.Transport.gather`); the caller's
    process is the only one involved.
    """

    def __init__(
        self,
        env: Environment,
        transport: Transport,
        rng: Optional[RngHub] = None,
    ):
        self.env = env
        self.transport = transport
        self.rng = rng or RngHub(0)
        #: Lifetime counters (federation bids/sec accounting): bid
        #: collection rounds run, and individual bids gathered.
        self.collections = 0
        self.bids_collected = 0

    def collect(
        self,
        bidders: Sequence[Any],
        request: CreateRequest,
        deadline_s: Optional[float] = None,
    ) -> Generator:
        """Gather bids from every bidder concurrently.

        Bidders expose ``name`` and ``estimate(request) -> float|None``
        (plants and brokers both do); a bidder additionally exposing
        ``estimate_proc`` is driven through it, which lets a crashed
        plant *hang* the call instead of answering.  With
        ``deadline_s`` set, collection stops after that many seconds
        and still-pending bidders are simply left out of the result
        (their eventual answers — or failures — are dropped).  Returns
        the list of successful bids in bidder order, each stamped with
        the instant the round ended.
        """
        handlers = []
        for bidder in bidders:
            call = getattr(bidder, "estimate_proc", None) or bidder.estimate
            handlers.append(partial(call, request))
        answers: Dict[int, Any] = {}
        if handlers:
            answers = yield self.transport.gather(handlers, deadline_s)
        bids: List[Bid] = []
        now = self.env.now
        for index, bidder in enumerate(bidders):
            cost = answers.get(index)
            if cost is not None:
                bids.append(Bid(bidder.name, float(cost), bidder, now))
        self.collections += 1
        self.bids_collected += len(bids)
        return bids

    def rank(self, bids: Sequence[Bid]) -> List[Bid]:
        """Bids from best to worst (ties shuffled deterministically).

        Single pass: bids are grouped by cost, groups emitted in
        ascending cost order, and each tie group is shuffled by
        drawing from the ``bid-tie`` stream.  The draw sequence is
        pinned by the golden trajectories: it must consume the stream
        exactly as the former repeated ``select`` + ``remove`` loop
        did (one draw per emitted bid while a group has ties, no draw
        for the last member), so orderings are bit-identical while the
        per-element full scan over all remaining bids is gone.
        """
        groups: Dict[float, List[Bid]] = {}
        for bid in bids:
            groups.setdefault(bid.cost, []).append(bid)
        ordered: List[Bid] = []
        for cost in sorted(groups):
            group = groups[cost]
            while len(group) > 1:
                chosen = self.rng.choice("bid-tie", group)
                ordered.append(chosen)
                group.remove(chosen)
            ordered.append(group[0])
        return ordered
