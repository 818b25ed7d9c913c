"""VMPlants (SC 2004) reproduction.

A from-scratch Python implementation of the VMPlant Grid service:
graph-based VM configuration, partial matching of cached golden
images, clone-based instantiation, the VMShop/VMPlant/VMBroker
service architecture with cost bidding, and VNET-style virtual
networking — plus the simulated testbed and local (real-filesystem)
substrates used to reproduce the paper's evaluation.

Quickstart::

    from repro import build_testbed, experiment_request

    bed = build_testbed(seed=1)
    ad = bed.run(bed.shop.create(experiment_request(memory_mb=32)))
    print(ad["vmid"], ad["total_time"])

The quickstart names below come from their leaf modules.  Of the other
packages only :mod:`repro.sim.shard` re-exports a name (its plan);
import the leaf module you need.
"""

from repro.core.actions import (
    Action,
    ActionResult,
    ActionScope,
    ActionStatus,
    ErrorPolicy,
)
from repro.core.classad import ClassAd
from repro.core.dag import ConfigDAG
from repro.core.spec import (
    CreateRequest,
    DestroyRequest,
    HardwareSpec,
    NetworkSpec,
    QueryRequest,
    SoftwareSpec,
)
from repro.cost.models import (
    CompositeCost,
    CostModel,
    MemoryAvailableCost,
    NetworkComputeCost,
)
from repro.plant.production import CloneMode, ProductionLine, VirtualMachine
from repro.plant.vmplant import VMPlant
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.provisioning import FULL_PROVISIONING, ProvisioningConfig
from repro.shop.broker import VMBroker
from repro.shop.protocol import Transport
from repro.shop.registry import ServiceRegistry
from repro.shop.vmshop import VMShop
from repro.sim.cluster import Testbed, build_testbed, run_process
from repro.workloads.invigo import invigo_workspace_dag
from repro.workloads.requests import (
    experiment_dag,
    experiment_request,
    golden_image,
    request_stream,
)

__version__ = "1.0.0"

__all__ = [
    "Action",
    "ActionResult",
    "ActionScope",
    "ActionStatus",
    "ClassAd",
    "CloneMode",
    "CompositeCost",
    "ConfigDAG",
    "CostModel",
    "CreateRequest",
    "DestroyRequest",
    "ErrorPolicy",
    "GoldenImage",
    "HardwareSpec",
    "MemoryAvailableCost",
    "NetworkComputeCost",
    "NetworkSpec",
    "ProductionLine",
    "FULL_PROVISIONING",
    "ProvisioningConfig",
    "QueryRequest",
    "ServiceRegistry",
    "SoftwareSpec",
    "Testbed",
    "Transport",
    "VMBroker",
    "VMPlant",
    "VMShop",
    "VMWarehouse",
    "VirtualMachine",
    "build_testbed",
    "experiment_dag",
    "experiment_request",
    "golden_image",
    "invigo_workspace_dag",
    "request_stream",
    "run_process",
    "__version__",
]
