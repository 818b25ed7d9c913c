"""VMBrokers: bid aggregation for scalable plant selection.

Section 3.1 allows VMShop to collect bids "directly, or indirectly
through VMBrokers".  A broker fronts a set of plants (e.g. one rack or
one administrative sub-domain): its estimate is the best bid among its
plants, and a create call is routed to whichever plant produced that
bid.  Brokers expose the same ``name``/``estimate``/``create`` surface
as plants, so shops can mix both freely — and brokers can front other
brokers, giving a bidding tree.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from repro.core.errors import ReproError, ShopError
from repro.core.spec import CreateRequest
from repro.plant.production import CloneMode

__all__ = ["VMBroker"]


class VMBroker:
    """Aggregates bids from a set of plants (or nested brokers)."""

    def __init__(self, name: str, plants: Sequence[Any] = ()):
        self.name = name
        self.plants: List[Any] = list(plants)

    def add_plant(self, plant: Any) -> None:
        """Register another plant (or broker) behind this broker."""
        self.plants.append(plant)

    def _best(
        self, request: CreateRequest
    ) -> "tuple[Optional[float], Optional[Any]]":
        """Best (cost, plant) for the request right now.

        Routing is keyed to the request being processed: the winner is
        computed per call and never parked in shared broker state, so
        interleaved estimate/create generators for different requests
        under concurrent load cannot clobber each other's routing (the
        former ``_last_winner`` attribute).
        """
        best_cost: Optional[float] = None
        best_plant: Optional[Any] = None
        for plant in self.plants:
            cost = plant.estimate(request)
            if cost is None:
                continue
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_plant = plant
        return best_cost, best_plant

    def estimate(self, request: CreateRequest) -> Optional[float]:
        """Best bid among fronted plants (None when all decline)."""
        cost, _ = self._best(request)
        return cost

    def create(
        self,
        request: CreateRequest,
        vmid: str,
        clone_mode: Optional[CloneMode] = None,
    ) -> Generator:
        """Route creation to the current best plant for the request.

        Returns that plant's create generator: the broker does nothing
        after the plant has, so it keeps no frame of its own under the
        create (the caller yields the plant's as its sub-call).
        """
        # Re-estimate at create time: the create reaches the broker one
        # transport hop after its bid was collected, and plant state
        # may have moved in between (other requests' creates landed).
        # That is modelled behaviour, kept even when the shop reuses
        # its caller's bid round.  A plant whose state has not moved
        # since its bid answers from its bid memo (``VMPlant.estimate``)
        # in one call, so only the plants that changed plan again.
        # The winner stays local to this call.
        _, plant = self._best(request)
        if plant is None:
            raise ShopError(
                f"broker {self.name}: no plant can host the request"
            )
        return plant.create(request, vmid, clone_mode)

    def abort_creation(self, vmid: str) -> List[str]:
        """Forward an abort to every fronted plant (each is idempotent).

        The shop cannot know which plant a broker routed the failed
        create to, so the broker fans the release out; at most one
        plant actually held state for ``vmid``.
        """
        released: List[str] = []
        for plant in self.plants:
            abort = getattr(plant, "abort_creation", None)
            if abort is not None:
                released.extend(abort(vmid))
        return released

    def query(self, vmid: str, attributes=()) -> Any:
        """Route a query to whichever fronted plant knows the VM.

        "Does not know the VM" is a :class:`ReproError` from the plant
        (or nested broker); anything else is a defect in that plant and
        propagates instead of reading as an unknown VMID.
        """
        for plant in self.plants:
            try:
                return plant.query(vmid, attributes)
            except ReproError:
                continue
        raise ShopError(f"broker {self.name}: no plant knows {vmid!r}")

    def destroy(self, vmid: str, commit: bool = False, publish_as=None):
        """Route a destroy to whichever fronted plant hosts the VM."""
        for plant in self.plants:
            infosys = getattr(plant, "infosys", None)
            if infosys is not None and vmid in infosys:
                return plant.destroy(vmid, commit, publish_as)
            if isinstance(plant, VMBroker):
                try:
                    return plant.destroy(vmid, commit, publish_as)
                except ShopError:
                    continue
        raise ShopError(f"broker {self.name}: no plant hosts {vmid!r}")

    def __repr__(self) -> str:
        return f"<VMBroker {self.name} plants={len(self.plants)}>"
