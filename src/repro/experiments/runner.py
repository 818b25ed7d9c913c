"""Shared experiment runner: the two ways an experiment drives a site.

Section 4.2's methodology: a client issues VM creation requests *in
sequence* through VMShop — 128 requests for the 32 MB and 64 MB golden
machines, 40 for 256 MB — and the end-to-end latency (client request →
VMShop response) is recorded per successful creation.  Cloning times
come from the production lines' clone records.  That closed loop is
:func:`run_requests`; :func:`serve` is its open-loop sibling (one
process per request, optional arrival times, in-flight limit and
hold-then-destroy) for the extension experiments.

The paper reports 121/128, 124/128 and 40/40 successful creations;
the per-run ``failure_prob`` below injects clone (resume) failures at
rates chosen to land in that regime.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Generator,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.core.classad import ClassAd
from repro.core.errors import ReproError
from repro.core.spec import CreateRequest
from repro.cost.models import CostModel
from repro.plant.production import CloneMode
from repro.sim.cluster import Testbed, build_testbed
from repro.sim.hypervisor import CloneRecord
from repro.sim.latency import DEFAULT_LATENCY, LatencyModel
from repro.sim.resources import Resource
from repro.workloads.requests import request_stream

__all__ = [
    "CreationSample",
    "ExperimentRun",
    "run_creation_experiment",
    "run_requests",
    "serve",
    "run_creation_suite",
    "PAPER_RUNS",
]

#: (request count, injected clone-failure probability) per golden
#: machine size — calibrated to the paper's 121/128, 124/128, 40/40
#: success counts.
PAPER_RUNS: Dict[int, tuple] = {
    32: (128, 0.05),
    64: (128, 0.02),
    256: (40, 0.0),
}


class CreationSample(NamedTuple):
    """One client-observed creation attempt."""

    index: int
    memory_mb: int
    ok: bool
    #: Client request → shop response (seconds).  A failed attempt is
    #: NaN from :func:`run_requests` (the paper counts successes only)
    #: and its time-to-fail from :func:`serve` (the chaos fingerprint
    #: hashes it).
    latency: float
    vmid: str = ""
    plant: str = ""
    error: str = ""


class ExperimentRun:
    """Results of one sequential creation stream."""

    def __init__(self, memory_mb: int, vm_type: str, testbed: Testbed):
        self.memory_mb = memory_mb
        self.vm_type = vm_type
        self.testbed = testbed
        self.samples: List[CreationSample] = []
        self.classads: List[ClassAd] = []

    @property
    def successes(self) -> List[CreationSample]:
        """Samples whose creation completed."""
        return [s for s in self.samples if s.ok]

    @property
    def creation_latencies(self) -> List[float]:
        """End-to-end latencies of successful creations, in order."""
        return [s.latency for s in self.successes]

    def clone_records(self) -> List[CloneRecord]:
        """Clone records of successful creations, in request order."""
        good = {s.vmid for s in self.successes}
        return [r for r in self.testbed.clone_records() if r.vmid in good]

    @property
    def clone_times(self) -> List[float]:
        """Cloning latencies (PPP clone request → resume complete)."""
        return [r.total_time for r in self.clone_records()]


def run_creation_experiment(
    memory_mb: int,
    count: int,
    seed: int = 2004,
    failure_prob: float = 0.0,
    vm_type: str = "vmware",
    latency: LatencyModel = DEFAULT_LATENCY,
    cost_model: Optional[CostModel] = None,
    clone_mode: CloneMode = CloneMode.LINK,
    n_plants: int = 8,
    domains: Sequence[str] = ("acis.ufl.edu",),
    testbed: Optional[Testbed] = None,
) -> ExperimentRun:
    """Run one sequential creation stream and harvest the results."""
    bed = testbed or build_testbed(
        seed=seed,
        n_plants=n_plants,
        vm_types=(vm_type,),
        latency=latency,
        cost_model=cost_model,
        clone_failure_prob=failure_prob,
    )
    run = run_requests(
        bed,
        request_stream(memory_mb, count, vm_type=vm_type, domains=domains),
        clone_mode,
    )
    # An empty stream has no first request to name the run after.
    run.memory_mb, run.vm_type = memory_mb, vm_type
    return run


def _sample(
    index: int,
    request: CreateRequest,
    latency: float,
    ad: Optional[ClassAd] = None,
    error: str = "",
) -> CreationSample:
    return CreationSample(
        index=index,
        memory_mb=request.hardware.memory_mb,
        ok=ad is not None,
        latency=latency,
        vmid="" if ad is None else str(ad["vmid"]),
        plant="" if ad is None else str(ad["plant"]),
        error=error,
    )


def run_requests(
    bed: Testbed,
    requests: Sequence[CreateRequest],
    clone_mode: Optional[CloneMode] = None,
) -> ExperimentRun:
    """The closed loop: one client sends ``requests`` through the
    shop in sequence, each after the previous one answered."""
    run = ExperimentRun(
        memory_mb=requests[0].hardware.memory_mb if requests else 0,
        vm_type=requests[0].vm_type if requests else "",
        testbed=bed,
    )

    def client() -> Generator:
        for i, request in enumerate(requests):
            start = bed.env.now
            try:
                ad = yield bed.shop.create(request, clone_mode)
            except ReproError as exc:
                run.samples.append(
                    _sample(i, request, float("nan"), error=str(exc))
                )
                continue
            run.samples.append(_sample(i, request, bed.env.now - start, ad))
            run.classads.append(ad)

    bed.run(client())
    return run


def serve(
    bed: Testbed,
    requests: Sequence[CreateRequest],
    *,
    times: Optional[Sequence[float]] = None,
    in_flight: Optional[int] = None,
    hold_s: Optional[float] = None,
    create: Optional[Callable[[int, CreateRequest], Generator]] = None,
) -> List[CreationSample]:
    """The open loop: one process per request, all started at once.

    Request ``i`` sleeps ``times[i]`` seconds (its arrival time on a
    fresh bed), takes one of ``in_flight`` slots, and yields
    ``create(i, request)`` (default: ``bed.shop.create(request)``).
    A created VM is held ``hold_s`` seconds and then destroyed through
    the shop; a VM a crash killed meanwhile is let go.  Samples are
    returned in completion order; the run ends when every process has.
    """
    env = bed.env
    create = create or (lambda _, request: bed.shop.create(request))
    gate = None if in_flight is None else Resource(env, capacity=in_flight)
    samples: List[CreationSample] = []

    def one(index: int, request: CreateRequest) -> Generator:
        if times is not None:
            yield times[index]
        slot = None
        if gate is not None:
            slot = gate.request()
            yield slot
        start = env.now
        try:
            ad = yield create(index, request)
        except ReproError as exc:
            samples.append(
                _sample(index, request, env.now - start, error=str(exc))
            )
            return
        finally:
            if slot is not None:
                gate.release(slot)
        samples.append(_sample(index, request, env.now - start, ad))
        if hold_s is not None:
            yield hold_s
            try:
                yield bed.shop.destroy(str(ad["vmid"]))
            except ReproError:
                pass  # crash-killed underneath us; route already dropped

    def client() -> Generator:
        yield env.all_of(
            [env.process(one(i, r)) for i, r in enumerate(requests)]
        )

    bed.run(client())
    return samples


def run_creation_suite(
    seed: int = 2004,
    runs: Optional[Dict[int, tuple]] = None,
    latency: LatencyModel = DEFAULT_LATENCY,
    *,
    n_plants: int = 8,
    vm_type: str = "vmware",
    clone_mode: CloneMode = CloneMode.LINK,
    cost_model: Optional[CostModel] = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    cache: Optional[object] = None,
) -> Dict[int, ExperimentRun]:
    """The paper's three creation experiments (32/64/256 MB), in plan
    order, each on its own testbed seeded ``seed + memory``.

    ``parallel``, ``max_workers`` and ``cache`` are kept for callers
    that pass their off values (``False``, ``None``, ``None``); any
    other value raises ``ValueError``, because the suite (~0.2 s) runs
    in process and uncached with nothing for them to select.
    """
    if parallel or max_workers is not None or cache is not None:
        raise ValueError(
            "run_creation_suite runs in process and uncached: its "
            "process pool and result cache were removed"
        )
    return {
        memory: run_creation_experiment(
            memory_mb=memory,
            count=count,
            seed=seed + memory,  # independent testbed per run
            failure_prob=failure_prob,
            vm_type=vm_type,
            latency=latency,
            cost_model=cost_model,
            clone_mode=clone_mode,
            n_plants=n_plants,
        )
        for memory, (count, failure_prob) in (runs or PAPER_RUNS).items()
    }
