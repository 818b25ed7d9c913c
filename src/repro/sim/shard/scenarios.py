"""Scenario definitions for sharded kernel runs.

A :class:`ShardScenario` tells the runner how to build one *site* —
an independent :class:`~repro.sim.kernel.Environment` with its own
model inside — and how sites talk to each other over
:class:`~repro.sim.network.BoundaryLink` topologies.  Scenarios are
looked up by name from :data:`SCENARIOS` so worker processes can
rebuild their sites from ``(scenario, seed, site, params)`` alone —
nothing model-sized ever crosses a process boundary.

One scenario lives here, and the two grid scenarios register from
:mod:`repro.federation.scenario` on first lookup (``federation`` and
``megaload``, see :data:`LAZY_SCENARIOS`):

* ``miniring`` — the kernel control: a bare-kernel ring of tickers
  exchanging pings.  It shares the kernel and the shard runner with
  the grid scenarios and none of their code, so its golden
  trajectory (``tests/test_grid_goldens.py``) moves only when the
  kernel or the runner does.  It is fast enough for the shard
  test-suite, with optional fault injection (raise or hard-exit at a
  given site/time) for the crash-propagation tests.
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


register(MiniRingScenario())
