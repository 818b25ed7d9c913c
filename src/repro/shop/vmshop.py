"""The VMShop front-end service.

From the client's perspective the shop plays the system administrator
(Section 3.1): **create** finds and configures a machine, **query**
reports on it, **destroy** collects it.  The shop:

* round-trips create requests through their XML encoding (the
  prototype's service specification format);
* collects cost bids from its registered plants/brokers and picks the
  winner (cheapest, random among ties) — one round per placement: a
  caller that has just run :meth:`VMShop.estimate` to decide *where* a
  request goes hands those bids to :meth:`VMShop.create`, which
  dispatches from them instead of asking every plant again;
* assigns the site-unique VMID and remembers only the VMID → plant
  routing: a VM's classad lives in its plant's information system,
  which every query asks, and that is what makes shop restarts cheap
  (:meth:`VMShop.recover` rebuilds the routing from the plants).
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence

from repro.core.errors import DeadlineExceeded, ReproError, ShopError
from repro.core.spec import CreateRequest
from repro.faults.health import PlantHealth
from repro.faults.recovery import RecoveryPolicy
from repro.plant.production import CloneMode
from repro.shop.bidding import Bid, BidCollector
from repro.shop.protocol import (
    Transport,
    service_request_from_xml,
    service_request_to_xml,
)
from repro.shop.registry import ServiceRegistry
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub
from repro.sim.trace import trace

__all__ = ["VMShop"]


class VMShop:
    """Single logical point of contact for VM services.

    A ``registry`` keeps the shop published in it; the shop does not
    keep the registry: ``self.registry`` is a ``weakref.proxy``, and
    raises ``ReferenceError`` once the registry's owner has dropped it.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "vmshop",
        transport: Optional[Transport] = None,
        rng: Optional[RngHub] = None,
        registry: Optional[ServiceRegistry] = None,
        retry_other_plants: bool = False,
        recovery: Optional[RecoveryPolicy] = None,
    ):
        self.env = env
        self.name = name
        self.rng = rng or RngHub(0)
        self.transport = transport or Transport(env, self.rng)
        self.registry = None if registry is None else weakref.proxy(registry)
        #: On plant failure, fall through to the next-best bid?
        self.retry_other_plants = retry_other_plants
        #: Deadline / backoff / quarantine knobs; the default policy
        #: has everything off and leaves create() byte-identical to
        #: the ladder's "surface" rung.
        self.recovery = recovery or RecoveryPolicy()
        #: Per-bidder circuit breakers (lazily created by name).
        self.health: Dict[str, PlantHealth] = {}
        self.collector = BidCollector(env, self.transport, self.rng)
        self.bidders: List[Any] = []
        self._route: Dict[str, Any] = {}
        self._seq = 0
        #: Plant-side creates that succeeded / failed, retries included.
        #: Counts, not a log: a long run keeps no per-create record here
        #: (the ``created`` / ``create-failed`` trace events name them).
        self.creates_ok = 0
        self.creates_failed = 0
        if registry is not None:
            registry.publish(name, "vmshop", self)

    # -- membership ---------------------------------------------------------
    def register_plant(self, plant: Any) -> None:
        """Add a plant or broker to the bidding set."""
        self.bidders.append(plant)
        if self.registry is not None:
            describe = getattr(plant, "description_ad", None)
            self.registry.publish(
                plant.name,
                "vmplant",
                plant,
                description=describe() if describe else None,
            )

    def discover_plants(
        self,
        kind: str = "vmplant",
        requirements: Optional[Any] = None,
    ) -> int:
        """Adopt every matching service from the registry.

        ``requirements`` (classad text or a pre-compiled
        :class:`~repro.core.classad.Expression`) narrows adoption to
        descriptions matching the expression.
        """
        if self.registry is None:
            raise ShopError("no registry configured")
        added = 0
        known = {id(b) for b in self.bidders}
        for entry in self.registry.discover(kind, requirements):
            if id(entry.binding) not in known:
                self.bidders.append(entry.binding)
                added += 1
        return added

    # -- services --------------------------------------------------------------
    def next_vmid(self) -> str:
        """Allocate the next shop-unique VM identifier."""
        self._seq += 1
        return f"{self.name}-vm-{self._seq:05d}"

    def create(
        self,
        request: CreateRequest,
        clone_mode: Optional[CloneMode] = None,
        bids: Optional[Sequence[Bid]] = None,
    ) -> Generator:
        """Create a VM somewhere; returns its classad.

        Raises :class:`ShopError` when no plant bids; plant-side
        failures surface unless ``retry_other_plants`` is set, in
        which case the next-best bidder is tried.  With a
        :class:`~repro.faults.recovery.RecoveryPolicy` configured, a
        failed attempt is re-bid (fresh VMID, exponential backoff) up
        to ``max_attempts`` times, bid collection and each plant-side
        create are bounded by deadlines, and repeat offenders are
        quarantined behind per-plant circuit breakers.

        ``bids`` is the result of an :meth:`estimate` round the caller
        collected for this request *at this simulated instant*: the
        first attempt then dispatches from it — through the same
        breaker filter and :meth:`BidCollector.rank` as a round of its
        own — instead of collecting again (§3.1: one bid round per
        request).  Bids quote plant state at their instant, so bids
        from any other instant raise :class:`ShopError`; they are
        never silently replaced by a fresh round.  Later attempts
        always collect fresh: the backoff moved the clock.
        """
        if bids is not None:
            now = self.env.now
            for bid in bids:
                if bid.at != now:
                    raise ShopError(
                        f"stale bid from {bid.bidder_name} (collected at "
                        f"t={bid.at}, now t={now}): bids are only good "
                        "at the instant they were collected"
                    )
        # Exercise the prototype's XML service path end to end.  One
        # expression: this frame lives until the VM is ready, and a
        # name bound to the wire text would keep it alive that long.
        service, request = service_request_from_xml(
            service_request_to_xml(request, service="create")
        )
        if service != "create":  # pragma: no cover - defensive
            raise ShopError(f"unexpected service {service!r}")

        policy = self.recovery
        deadline = policy.create_deadline_s
        attempts = max(1, policy.max_attempts)
        # One frame for every attempt: its bid round and its dispatch
        # are inline, so an in-flight create is this frame, the
        # transport call and the plant's own frames (DESIGN, "Frame
        # depth").
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                delay = policy.backoff_delay(attempt)
                trace(
                    self.env, "shop", "create-backoff",
                    attempt=attempt, delay=delay,
                )
                if delay > 0:
                    yield delay
                bids = None  # the backoff moved the clock
            try:
                # One bid-and-dispatch round (fresh VMID per round),
                # among breaker-admitted bidders only.
                bidders = self._admitted_bidders()
                if bids is None:
                    round_bids = yield self.collector.collect(
                        bidders, request, deadline_s=policy.bid_deadline_s
                    )
                elif bidders is not self.bidders:
                    # A loop, not a comprehension: one would make
                    # ``bidders`` a cell of every create's frame.
                    round_bids = []
                    for bid in bids:
                        if bid.bidder in bidders:
                            round_bids.append(bid)
                else:
                    round_bids = bids
                ranked = self.collector.rank(round_bids)
                if not ranked:
                    raise ShopError("no plant bid for the request")
                vmid = self.next_vmid()
                if self.env.tracer is not None:
                    trace(
                        self.env, "shop", "bids-collected",
                        vmid=vmid, bids=len(ranked),
                        best=ranked[0].bidder_name,
                    )
                candidates = ranked if self.retry_other_plants else ranked[:1]
                # The round is decided: drop it before the dispatch
                # parks this frame for the whole create.
                bids = round_bids = ranked = bidders = None
                for bid in candidates:
                    try:
                        if deadline is None:
                            ad = yield self.transport.call(
                                bid.bidder.create, request, vmid, clone_mode
                            )
                        else:
                            ad = yield self._dispatch_create(
                                bid, request, vmid, clone_mode, deadline
                            )
                    except ReproError as exc:
                        self._create_failed(vmid, bid, exc)
                        if bid is candidates[-1]:
                            raise  # from inside the handler, as below
                        continue
                    self._created(vmid, bid)
                    return ad
            except ReproError:
                # The last error is the create's, re-raised in here so
                # no name keeps it: this frame is in its traceback, and
                # a cycle of the two would pin the whole site.
                if attempt == attempts:
                    raise

    def _health_for(self, name: str) -> PlantHealth:
        breaker = self.health.get(name)
        if breaker is None:
            breaker = PlantHealth(
                name,
                threshold=self.recovery.quarantine_threshold,
                quarantine_s=self.recovery.quarantine_s,
            )
            self.health[name] = breaker
        return breaker

    def _admitted_bidders(self) -> List[Any]:
        """The bidders a round may ask: ``self.bidders`` itself unless
        a circuit breaker keeps some of them out."""
        if self.recovery.quarantine_threshold <= 0:
            return self.bidders
        now = self.env.now
        admitted = [
            b for b in self.bidders if self._health_for(b.name).allows(now)
        ]
        # An all-quarantined site still gets a desperation round over
        # everyone rather than an instant no-bid failure.
        return admitted or self.bidders

    def _create_failed(self, vmid: str, bid: Bid, exc: ReproError) -> None:
        """Ledger, breaker and orphan release for one failed dispatch."""
        self.creates_failed += 1
        trace(
            self.env, "shop", "create-failed",
            vmid=vmid, plant=bid.bidder_name, error=type(exc).__name__,
        )
        if self._health_for(bid.bidder_name).record_failure(self.env.now):
            trace(
                self.env, "shop", "plant-quarantined",
                plant=bid.bidder_name,
                until=self.env.now + self.recovery.quarantine_s,
            )
        # Synchronous orphan release: whatever partial state the
        # failed/aborted create left behind must be gone before the
        # next bidder (or attempt) runs.
        abort = getattr(bid.bidder, "abort_creation", None)
        if abort is not None:
            abort(vmid)

    def _created(self, vmid: str, bid: Bid) -> None:
        self._health_for(bid.bidder_name).record_success(self.env.now)
        self._route[vmid] = bid.bidder
        self.creates_ok += 1
        if self.env.tracer is not None:
            trace(
                self.env, "shop", "created", vmid=vmid, plant=bid.bidder_name
            )

    def _dispatch_create(
        self,
        bid: Bid,
        request: CreateRequest,
        vmid: str,
        clone_mode: Optional[CloneMode],
        deadline: float,
    ) -> Generator:
        """Run one plant-side create bounded by ``create_deadline_s``.

        The call runs as a child process raced against a timer; on
        expiry the child is interrupted (its unwinding releases
        plant-side state synchronously) and :class:`DeadlineExceeded`
        is raised.  Without a deadline :meth:`create` makes the
        transport call itself.
        """
        proc = self.env.process(
            self.transport.call(bid.bidder.create, request, vmid, clone_mode)
        )
        yield self.env.any_of([proc, self.env.timeout(deadline)])
        if proc.triggered:
            if not proc.ok:
                proc.defused = True
                raise proc.value
            return proc.value
        trace(
            self.env, "shop", "create-deadline",
            vmid=vmid, plant=bid.bidder_name, deadline=deadline,
        )
        proc.interrupt("create deadline")
        # Let the interrupt unwind the plant-side generator stack (it
        # releases memory / leases in its except blocks) before the
        # caller inspects or reuses that state.
        yield 0.0
        raise DeadlineExceeded(
            f"create of {vmid} on {bid.bidder_name} exceeded "
            f"{deadline:g}s deadline"
        )

    def estimate(self, request: CreateRequest) -> Generator:
        """Collect and return all bids without creating anything.

        The bids may be handed to :meth:`create` (``bids=``) while the
        simulated clock has not moved since this call returned.
        """
        bids = yield self.collector.collect(self.bidders, request)
        return bids

    def query(self, vmid: str, attributes: Iterable[str] = ()) -> Generator:
        """Fetch a VM's classad (or a projection) from its plant."""
        plant = self._plant_for(vmid)
        ad = yield self.transport.call(plant.query, vmid, tuple(attributes))
        return ad

    def destroy(
        self,
        vmid: str,
        commit: bool = False,
        publish_as: Optional[str] = None,
    ) -> Generator:
        """Collect a VM; returns its final classad.

        A destroy that fails because the plant no longer knows the VM
        (crash-killed underneath the shop) still drops the stale route
        before re-raising, so the id cannot be "destroyed" twice.
        """
        plant = self._plant_for(vmid)
        try:
            ad = yield self.transport.call(
                plant.destroy, vmid, commit, publish_as
            )
        except ReproError:
            self._route.pop(vmid, None)
            raise
        del self._route[vmid]
        return ad

    # -- resilience ---------------------------------------------------------------
    def recover(self) -> int:
        """Rebuild VMID routing after a shop restart.

        The shop holds no authoritative VM state (Section 3.1): each
        plant's information system does.  Re-interrogating the plants
        restores routing for every active VM.
        """
        self._route.clear()
        recovered = 0
        for bidder in self.bidders:
            infosys = getattr(bidder, "infosys", None)
            if infosys is None:
                continue
            for vm in infosys.active():
                self._route[vm.vmid] = bidder
                recovered += 1
        return recovered

    def active_vmids(self) -> List[str]:
        """VMIDs currently routed by this shop."""
        return list(self._route)

    def reroute(self, vmid: str, plant: Any) -> None:
        """Point a VMID at a new plant (used after migration)."""
        if vmid not in self._route:
            raise ShopError(f"unknown VMID {vmid!r}")
        self._route[vmid] = plant

    def _plant_for(self, vmid: str) -> Any:
        try:
            return self._route[vmid]
        except KeyError:
            raise ShopError(f"unknown VMID {vmid!r}") from None
