"""Scenario definitions for sharded kernel runs.

A :class:`ShardScenario` tells the runner how to build one *site* —
an independent :class:`~repro.sim.kernel.Environment` with its own
model inside — and how sites talk to each other over
:class:`~repro.sim.network.BoundaryLink` topologies.  Scenarios are
looked up by name from :data:`SCENARIOS` so worker processes can
rebuild their sites from ``(scenario, seed, site, params)`` alone —
nothing model-sized ever crosses a process boundary.

Two scenarios ship:

* ``kernelbench`` — the benchmark workload: every site is a full
  SC'04 testbed (8 plants, NFS warehouse, shop) under an open-loop
  Poisson VM-creation stream, with a WAN ring where each site spills
  a fraction of its work to its neighbour.  This is what
  ``vmplants kernelbench`` sweeps across shard counts.
* ``miniring`` — a tiny bare-kernel ring of tickers exchanging
  pings; fast enough for the shard test-suite, with optional fault
  injection (raise or hard-exit at a given site/time) for the
  crash-propagation tests.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable, Dict, List, Optional

from repro.sim.kernel import Environment
from repro.sim.shard.plan import LinkSpec
from repro.sim.trace import trace

__all__ = [
    "SCENARIOS",
    "LAZY_SCENARIOS",
    "ShardScenario",
    "register",
    "get_scenario",
    "KernelBenchScenario",
    "MiniRingScenario",
]

#: Name -> scenario instance; workers resolve scenarios from here.
SCENARIOS: Dict[str, "ShardScenario"] = {}

#: Name -> the module that registers it, for scenarios living outside
#: this one.  Both are :class:`~repro.federation.scenario.GridScenario`;
#: they are imported on first lookup, so loading this module never
#: loads the federation package (which imports the cluster builder).
LAZY_SCENARIOS: Dict[str, str] = {
    "federation": "repro.federation.scenario",
    "megaload": "repro.federation.scenario",
}


def register(scenario: "ShardScenario") -> "ShardScenario":
    """Add a scenario to the registry (keyed by its ``name``)."""
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> "ShardScenario":
    """Look up a scenario by name, importing its module if it is one
    of :data:`LAZY_SCENARIOS` not registered yet."""
    if name not in SCENARIOS and name in LAZY_SCENARIOS:
        importlib.import_module(LAZY_SCENARIOS[name])
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown shard scenario {name!r}; available: "
            f"{sorted(SCENARIOS.keys() | LAZY_SCENARIOS.keys())}"
        ) from None


class ShardScenario:
    """How to build and drive one site of a sharded run.

    Subclasses define the inter-site topology (:meth:`link_specs`),
    site construction (:meth:`build_site`), the handlers for inbound
    boundary messages (:meth:`endpoints`), workload start
    (:meth:`start`) and result extraction (:meth:`collect`).  All
    methods must be deterministic functions of their arguments — the
    determinism contract quantifies over (seed, partition, params).
    """

    name = "abstract"

    def resolve(self, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Merge user params over the scenario defaults."""
        merged = dict(self.defaults())
        unknown = set(params or ()) - set(merged)
        if unknown:
            raise ValueError(
                f"unknown {self.name} params: {sorted(unknown)}"
            )
        merged.update(params or {})
        return merged

    def defaults(self) -> Dict[str, Any]:
        return {}

    def link_specs(
        self, sites: int, params: Dict[str, Any]
    ) -> List[LinkSpec]:
        """The directed inter-site boundary topology."""
        raise NotImplementedError

    def build_site(
        self,
        env: Environment,
        site: int,
        sites: int,
        seed: int,
        params: Dict[str, Any],
    ):
        """Construct one site's model inside ``env``; returns a handle."""
        raise NotImplementedError

    def endpoints(
        self, handle
    ) -> Dict[str, Callable[[tuple], None]]:
        """Inbound-message handlers, keyed by endpoint name.

        A handler is invoked at the message's delivery time with the
        (4-float) payload; it must not block — spawn a process for
        any follow-on simulation work.
        """
        return {}

    def start(self, handle, links: Dict[str, Any]) -> None:
        """Kick off the site's workload.

        ``links`` maps link-spec names to the constructed
        :class:`~repro.sim.network.BoundaryLink` objects whose
        *source* is this site.
        """
        raise NotImplementedError

    def collect(self, handle) -> Dict[str, Any]:
        """Per-site statistics shipped back to the coordinator."""
        return {}


def site_seed(seed: int, site: int) -> int:
    """Derive one site's RNG seed from the run seed."""
    return seed + site * 100003


# ---------------------------------------------------------------------------
# kernelbench: full testbeds under load, spilling work around a WAN ring
# ---------------------------------------------------------------------------


class _KernelBenchHandle:
    __slots__ = (
        "bed",
        "site",
        "params",
        "times",
        "spill_link",
        "created",
        "destroyed",
        "failed",
        "spills_sent",
        "spills_recv",
        "spill_failed",
    )

    def __init__(self, bed, site: int, params: Dict[str, Any], times):
        self.bed = bed
        self.site = site
        self.params = params
        self.times = times
        self.spill_link = None
        self.created = 0
        self.destroyed = 0
        self.failed = 0
        self.spills_sent = 0
        self.spills_recv = 0
        self.spill_failed = 0


class KernelBenchScenario(ShardScenario):
    """Multi-site grid under open-loop load with neighbour spillover.

    Every site is an independent paper testbed; site *i* forwards
    every ``spill_every``-th successful creation over a WAN boundary
    link to site ``(i+1) % sites``, which provisions a spillover VM
    of its own.  The WAN latency (default 8 simulated seconds) is the
    conservative-sync lookahead — generous relative to the ~50 kernel
    events a single creation costs, so shards spend their time
    simulating, not synchronizing.
    """

    name = "kernelbench"

    def defaults(self) -> Dict[str, Any]:
        return {
            "plants": 8,
            "memory_mb": 32,
            "rate_per_s": 2.0,
            "requests": 160,
            "hold_s": 40.0,
            "spill_every": 5,
            "spill_mb": 4.0,
            "spill_hold_s": 30.0,
            "link_latency_s": 8.0,
            "link_bandwidth_mbps": 25.0,
        }

    def link_specs(
        self, sites: int, params: Dict[str, Any]
    ) -> List[LinkSpec]:
        if sites < 2:
            return []
        return [
            LinkSpec(
                name=f"wan{i}",
                src=i,
                dst=(i + 1) % sites,
                endpoint="spill",
                bandwidth_mbps=params["link_bandwidth_mbps"],
                latency_s=params["link_latency_s"],
            )
            for i in range(sites)
        ]

    def build_site(
        self,
        env: Environment,
        site: int,
        sites: int,
        seed: int,
        params: Dict[str, Any],
    ) -> _KernelBenchHandle:
        from repro.sim.cluster import build_testbed
        from repro.workloads.requests import poisson_arrivals

        bed = build_testbed(
            seed=site_seed(seed, site),
            n_plants=params["plants"],
            env=env,
        )
        times = poisson_arrivals(
            bed.rng,
            params["rate_per_s"],
            params["requests"],
            stream="kernelbench/arrivals",
        )
        return _KernelBenchHandle(bed, site, params, times)

    def endpoints(
        self, handle: _KernelBenchHandle
    ) -> Dict[str, Callable[[tuple], None]]:
        def spill(payload: tuple) -> None:
            handle.spills_recv += 1
            trace(
                handle.bed.env,
                "kernelbench",
                "spill-recv",
                src_site=int(payload[0]),
                req=int(payload[1]),
            )
            handle.bed.env.process(self._spill_vm(handle, payload))

        return {"spill": spill}

    def start(
        self, handle: _KernelBenchHandle, links: Dict[str, Any]
    ) -> None:
        handle.spill_link = links.get(f"wan{handle.site}")
        handle.bed.env.process(self._arrivals(handle))

    def collect(self, handle: _KernelBenchHandle) -> Dict[str, Any]:
        return {
            "created": handle.created,
            "destroyed": handle.destroyed,
            "failed": handle.failed,
            "spills_sent": handle.spills_sent,
            "spills_recv": handle.spills_recv,
            "spill_failed": handle.spill_failed,
            "nfs_mb": float(
                getattr(handle.bed.nfs, "mb_served", 0.0)
            ),
        }

    # -- processes ------------------------------------------------------
    def _arrivals(self, handle: _KernelBenchHandle):
        env = handle.bed.env
        for i, at in enumerate(handle.times):
            if at > env.now:
                yield at - env.now
            env.process(self._one_vm(handle, i))

    def _one_vm(self, handle: _KernelBenchHandle, i: int):
        from repro.core.errors import ReproError
        from repro.workloads.requests import experiment_request

        bed = handle.bed
        params = handle.params
        request = experiment_request(
            params["memory_mb"],
            domain=f"site{handle.site}.grid",
            client_id=f"s{handle.site}-r{i}",
        )
        try:
            ad = yield bed.shop.create(request)
        except ReproError:
            handle.failed += 1
            return
        handle.created += 1
        trace(bed.env, "kernelbench", "created", req=i)
        if (
            handle.spill_link is not None
            and handle.created % params["spill_every"] == 0
        ):
            handle.spills_sent += 1
            handle.spill_link.send(
                payload=(handle.site, i),
                size_mb=params["spill_mb"],
            )
        yield params["hold_s"]
        yield bed.shop.destroy(str(ad["vmid"]))
        handle.destroyed += 1

    def _spill_vm(self, handle: _KernelBenchHandle, payload: tuple):
        from repro.core.errors import ReproError
        from repro.workloads.requests import experiment_request

        bed = handle.bed
        params = handle.params
        request = experiment_request(
            params["memory_mb"],
            domain="spill.grid",
            client_id=f"spill-{int(payload[0])}-{int(payload[1])}",
        )
        try:
            ad = yield bed.shop.create(request)
        except ReproError:
            handle.spill_failed += 1
            return
        yield params["spill_hold_s"]
        yield bed.shop.destroy(str(ad["vmid"]))


# ---------------------------------------------------------------------------
# miniring: bare-kernel tickers with pings (test scenario)
# ---------------------------------------------------------------------------


class _MiniRingHandle:
    __slots__ = (
        "env",
        "site",
        "params",
        "ping_link",
        "ticks_done",
        "pings_sent",
        "pings_recv",
    )

    def __init__(self, env: Environment, site: int, params: Dict[str, Any]):
        self.env = env
        self.site = site
        self.params = params
        self.ping_link = None
        self.ticks_done = 0
        self.pings_sent = 0
        self.pings_recv = 0


class MiniRingScenario(ShardScenario):
    """Tickers on a ring exchanging pings — the shard test scenario.

    Each site ticks at exact integer multiples of ``tick_s`` (handy
    for ``until``-boundary tests) and pings its ring neighbour every
    ``ping_every`` ticks.  ``crash_site``/``crash_at`` raise a
    ``RuntimeError`` inside that site's simulation; ``hard_exit_site``
    kills the whole worker process with ``os._exit`` — both feed the
    crash-propagation tests.
    """

    name = "miniring"

    def defaults(self) -> Dict[str, Any]:
        return {
            "ticks": 48,
            "tick_s": 1.0,
            "ping_every": 4,
            "ping_mb": 1.0,
            "link_latency_s": 2.0,
            "link_bandwidth_mbps": 10.0,
            "crash_site": None,
            "crash_at": None,
            "hard_exit_site": None,
            "hard_exit_at": None,
        }

    def link_specs(
        self, sites: int, params: Dict[str, Any]
    ) -> List[LinkSpec]:
        if sites < 2:
            return []
        return [
            LinkSpec(
                name=f"ring{i}",
                src=i,
                dst=(i + 1) % sites,
                endpoint="ping",
                bandwidth_mbps=params["link_bandwidth_mbps"],
                latency_s=params["link_latency_s"],
            )
            for i in range(sites)
        ]

    def build_site(
        self,
        env: Environment,
        site: int,
        sites: int,
        seed: int,
        params: Dict[str, Any],
    ) -> _MiniRingHandle:
        return _MiniRingHandle(env, site, params)

    def endpoints(
        self, handle: _MiniRingHandle
    ) -> Dict[str, Callable[[tuple], None]]:
        def ping(payload: tuple) -> None:
            handle.pings_recv += 1
            trace(
                handle.env,
                "miniring",
                "ping-recv",
                src_site=int(payload[0]),
                tick=int(payload[1]),
            )
            # Follow-on local work triggered by the boundary message:
            # its trajectory differs if delivery timing ever drifts.
            handle.env.process(self._pong(handle, payload))

        return {"ping": ping}

    def start(
        self, handle: _MiniRingHandle, links: Dict[str, Any]
    ) -> None:
        handle.ping_link = links.get(f"ring{handle.site}")
        handle.env.process(self._ticker(handle))

    def collect(self, handle: _MiniRingHandle) -> Dict[str, Any]:
        return {
            "ticks_done": handle.ticks_done,
            "pings_sent": handle.pings_sent,
            "pings_recv": handle.pings_recv,
        }

    # -- processes ------------------------------------------------------
    def _ticker(self, handle: _MiniRingHandle):
        env = handle.env
        params = handle.params
        for tick in range(1, params["ticks"] + 1):
            yield params["tick_s"] * tick - env.now
            handle.ticks_done += 1
            trace(env, "miniring", "tick", n=tick)
            if (
                params["crash_site"] == handle.site
                and params["crash_at"] is not None
                and env.now >= params["crash_at"]
            ):
                raise RuntimeError(
                    f"injected miniring crash at site {handle.site} "
                    f"t={env.now}"
                )
            if (
                params["hard_exit_site"] == handle.site
                and params["hard_exit_at"] is not None
                and env.now >= params["hard_exit_at"]
            ):
                os._exit(3)
            if (
                handle.ping_link is not None
                and tick % params["ping_every"] == 0
            ):
                handle.pings_sent += 1
                handle.ping_link.send(
                    payload=(handle.site, tick),
                    size_mb=params["ping_mb"],
                )

    def _pong(self, handle: _MiniRingHandle, payload: tuple):
        yield 0.25
        trace(
            handle.env,
            "miniring",
            "pong",
            src_site=int(payload[0]),
            tick=int(payload[1]),
        )


register(KernelBenchScenario())
register(MiniRingScenario())
