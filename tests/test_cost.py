"""Unit tests for the bidding cost models."""

from types import SimpleNamespace

import pytest

from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.cost.models import (
    CompositeCost,
    MemoryAvailableCost,
    NetworkComputeCost,
)
from repro.plant.vmplant import VMPlant
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.sim.kernel import Environment
from repro.vnet.hostonly import HostOnlyNetworkPool

from tests.helpers import InstantLine, drive


def FakePlant(vms=0, committed=0, host_memory=1536, fresh_domains=()):
    """What a cost model reads of a plant, as a plain record."""
    return SimpleNamespace(
        host_memory_mb=host_memory,
        infosys=SimpleNamespace(
            vms=dict.fromkeys(range(vms)), guest_memory_mb=committed
        ),
        network_pool=SimpleNamespace(
            would_be_fresh=set(fresh_domains).__contains__
        ),
    )


#: One of each model: admission is the plant's, whichever prices.
MODELS = (
    NetworkComputeCost(),
    MemoryAvailableCost(),
    CompositeCost([NetworkComputeCost(), MemoryAvailableCost()]),
)


def real_plant(model, **kwargs):
    """A one-line plant that can host ``request()``, priced by ``model``."""
    env = Environment()
    image = GoldenImage(
        image_id="img", vm_type="vmware", os="os",
        hardware=HardwareSpec(memory_mb=32),
        performed=(Action("a"),), memory_state_mb=32.0,
    )
    plant = VMPlant(
        env, "p0", VMWarehouse([image]), {"vmware": InstantLine(env)},
        cost_model=model, **kwargs,
    )
    return env, plant


def request(mem=32, domain="d"):
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=mem),
        software=SoftwareSpec(
            os="os", dag=ConfigDAG.from_sequence([Action("a")])
        ),
        network=NetworkSpec(domain=domain),
    )


class TestNetworkComputeCost:
    def test_fresh_domain_pays_network_cost(self):
        model = NetworkComputeCost(50.0, 4.0)
        plant = FakePlant(vms=0, fresh_domains={"d"})
        assert model.estimate(plant, request()) == 50.0

    def test_existing_domain_pays_compute_only(self):
        model = NetworkComputeCost(50.0, 4.0)
        plant = FakePlant(vms=7)
        assert model.estimate(plant, request()) == 28.0

    def test_combined_cost(self):
        model = NetworkComputeCost(50.0, 4.0)
        plant = FakePlant(vms=3, fresh_domains={"d"})
        assert model.estimate(plant, request()) == 62.0

    def test_crossover_at_thirteen(self):
        """The Section 3.4 arithmetic: A wins through its 13th VM."""
        model = NetworkComputeCost(50.0, 4.0)
        for k in range(13):  # A hosts k VMs before the request
            bid_a = model.estimate(FakePlant(vms=k), request())
            bid_b = model.estimate(
                FakePlant(vms=0, fresh_domains={"d"}), request()
            )
            if k < 13:
                assert (bid_a < bid_b) == (k * 4 < 50)
        assert model.estimate(FakePlant(vms=13), request()) > 50.0

    def test_vm_capacity_declines(self):
        for model in MODELS:
            env, plant = real_plant(model, max_vms=1)
            assert plant.estimate(request()) is not None
            drive(env, plant.create(request(), "vm1"))
            assert plant.estimate(request()) is None

    def test_network_exhaustion_declines(self):
        for model in MODELS:
            env, plant = real_plant(
                model, network_pool=HostOnlyNetworkPool("p0", count=1)
            )
            drive(env, plant.create(request(domain="other"), "vm1"))
            assert plant.estimate(request(domain="other")) is not None
            assert plant.estimate(request()) is None

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            NetworkComputeCost(network_cost=-1)


class TestMemoryAvailableCost:
    def test_emptier_plant_bids_lower(self):
        model = MemoryAvailableCost()
        empty = FakePlant(committed=0)
        loaded = FakePlant(committed=512)
        assert model.estimate(empty, request()) < model.estimate(
            loaded, request()
        )

    def test_bid_scales_with_request_size(self):
        model = MemoryAvailableCost()
        plant = FakePlant(committed=0)
        assert model.estimate(plant, request(mem=256)) > model.estimate(
            plant, request(mem=32)
        )

    def test_overcommit_allowed_up_to_factor(self):
        model = MemoryAvailableCost(reserve_mb=256, overcommit=2.0)
        usable = 1536 - 256
        plant = FakePlant(committed=int(usable * 1.5))
        # 1.5x + small request is under 2x: still bids (cost > scale).
        bid = model.estimate(plant, request(mem=32))
        assert bid is not None and bid > 100.0

    def test_beyond_overcommit_declines(self):
        model = MemoryAvailableCost(reserve_mb=256, overcommit=2.0)
        usable = 1536 - 256
        plant = FakePlant(committed=2 * usable)
        assert model.estimate(plant, request(mem=32)) is None

    def test_tiny_host_declines(self):
        model = MemoryAvailableCost(reserve_mb=256)
        plant = FakePlant(host_memory=128)
        assert model.estimate(plant, request()) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryAvailableCost(scale=0)
        with pytest.raises(ValueError):
            MemoryAvailableCost(overcommit=0.5)


class TestCompositeCost:
    def test_weighted_sum(self):
        model = CompositeCost(
            [NetworkComputeCost(50, 4), NetworkComputeCost(0, 1)],
            weights=[1.0, 2.0],
        )
        plant = FakePlant(vms=5)
        assert model.estimate(plant, request()) == 20.0 + 10.0

    def test_any_decline_declines(self):
        model = CompositeCost(
            [NetworkComputeCost(), MemoryAvailableCost(overcommit=1.0)]
        )
        plant = FakePlant(committed=10_000)
        assert model.estimate(plant, request()) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            CompositeCost([])
        with pytest.raises(ValueError):
            CompositeCost([NetworkComputeCost()], weights=[1.0, 2.0])
