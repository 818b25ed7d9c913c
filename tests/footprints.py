"""What the retained-byte budget tests measure, in one interpreter
traced from its start.

:func:`tests.helpers.retained_bytes` is net growth only where every
live block is traced: a block made before tracing started and freed
inside the window would never be subtracted, so an intern table at its
bound would read as growing by what it turns over.  These measurements
therefore run in a child started with ``-X tracemalloc``:
:func:`tests.helpers.traced_footprints` runs this module once per test
session (``python -X tracemalloc -m tests.footprints`` prints the same
JSON) and each budget test asserts on its figure.  Each function builds
what it measures and returns bytes per item; the tests check in
process whatever else they assert about the same objects.
"""

from __future__ import annotations

import json

from benchmarks.perf.parked import PARKED, held_bytes, park_grid_creates
from repro.core.actions import Action
from repro.core.classad import ClassAd
from repro.core.dag import ConfigDAG
from repro.core.spec import CreateRequest, HardwareSpec, SoftwareSpec
from repro.sim.cluster import build_testbed
from repro.sim.rng import RngHub
from repro.workloads.requests import MANDRAKE_OS, install_os_action
from tests.helpers import drive, retained_bytes


def chain_over_shared_steps() -> float:
    """A 7-node chain built 1,000 times over the same steps."""
    steps = [Action(f"step-{k}", command=f"cmd {k}") for k in range(7)]
    keep = []
    per_dag = retained_bytes(
        lambda: keep.extend(
            ConfigDAG.from_sequence(steps) for _ in range(1000)
        )
    )
    return per_dag / 1000


def chain_over_equal_steps() -> float:
    """The catalog's shape: every chain cut from steps built afresh."""
    keep = []

    def build():
        for _ in range(1000):
            steps = [Action(f"step-{k}", command=f"cmd {k}") for k in range(7)]
            keep.append(ConfigDAG.from_sequence(steps))

    return retained_bytes(build) / 1000


def twelve_attribute_ads() -> float:
    """A classad of twelve lower-case attributes, 1,000 times."""
    block = {f"attr{i:02d}": i for i in range(12)}
    keep = []
    return retained_bytes(
        lambda: keep.extend(ClassAd(block) for _ in range(1000))
    ) / 1000


def single_draw_names() -> dict:
    """10,000 names drawn from once each, then 100 of them twice more."""
    hub = RngHub(2004)
    names = [f"node{i % 8}/vmware/script/tail-{i:05d}" for i in range(10_000)]

    def draw_each_once():
        for i, name in enumerate(names):
            if i % 2:
                hub.uniform(name, 0.0, 1.0)
            else:
                hub.lognormal(name, 0.0, 0.35)

    per_name = retained_bytes(draw_each_once) / len(names)
    again = names[:100]
    second = retained_bytes(
        lambda: [hub.uniform(name, 0.0, 1.0) for name in again]
    ) / len(again)
    third = retained_bytes(
        lambda: [hub.uniform(name, 0.0, 1.0) for name in again]
    ) / len(again)
    return {"once": per_name, "second": second, "third": third}


def distinct_requests() -> float:
    """A site_catalog-shaped stream: every DAG ends in an action nobody
    else's has, so every request names two streams (``…/script/
    tail-NNNNN``, ``…/action-fail/tail-NNNNN``) that are never drawn
    from again.  150 requests warm the site; the next 150 are
    measured."""
    bed = build_testbed(seed=2004, n_plants=8)

    def serve(first: int, count: int) -> None:
        for i in range(first, first + count):
            dag = ConfigDAG.from_sequence(
                [
                    install_os_action(MANDRAKE_OS),
                    Action(f"tail-{i:05d}", command=f"useradd u{i:05d}"),
                ]
            )
            request = CreateRequest(
                hardware=HardwareSpec(memory_mb=32),
                software=SoftwareSpec(os=MANDRAKE_OS, dag=dag),
                client_id=f"catalog-{i}",
            )
            ad = drive(bed.env, bed.shop.create(request))
            drive(bed.env, bed.shop.destroy(str(ad["vmid"])))

    serve(0, 150)
    return retained_bytes(lambda: serve(150, 150)) / 150


def parked_grid_create() -> float:
    """What one create parked at its warehouse transfer holds on a
    ``grid_overload`` site: the traced bytes that go when 100 parked
    creates go, per create (``benchmarks/perf/parked.py``)."""
    site, parked = park_grid_creates(PARKED)  # the site outlives them
    return held_bytes(parked)["held_b"]


FOOTPRINTS = (
    chain_over_shared_steps,
    chain_over_equal_steps,
    twelve_attribute_ads,
    single_draw_names,
    distinct_requests,
    parked_grid_create,
)


def measure() -> dict:
    """Every footprint, by function name."""
    return {fn.__name__: fn() for fn in FOOTPRINTS}


if __name__ == "__main__":
    print(json.dumps(measure()))
