"""Partitioning plans for sharded kernel runs.

A sharded run is described by a :class:`ShardedTestbed` plan: how many
*sites* the testbed splits into, how those sites are packed into
worker *shards*, which scenario builds each site, and the inter-site
:class:`LinkSpec` topology (the only cross-site coupling).  The plan
is pure data — building and running it is the runner's job — so it
pickles trivially and validates before any worker forks.

The determinism contract hangs off the plan: for a fixed ``(seed,
partition)`` every shard count produces the same per-site
trajectories, because each site always runs in its own
:class:`~repro.sim.kernel.Environment` and boundary deliveries follow
one canonical order regardless of process placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LinkSpec",
    "block_partition",
    "validate_link_specs",
    "endpoint_ids",
    "ShardedTestbed",
]


@dataclass(frozen=True)
class LinkSpec:
    """One directed inter-site boundary link.

    ``latency_s`` doubles as the conservative-sync lookahead for the
    ``src -> dst`` channel: the destination may simulate up to
    (source clock + ``latency_s``) without waiting.  It must be
    strictly positive — zero lookahead would serialize the shards.
    """

    name: str
    src: int
    dst: int
    endpoint: str
    bandwidth_mbps: float
    latency_s: float


def block_partition(sites: int, shards: int) -> Tuple[int, ...]:
    """Map each site to a shard in contiguous, balanced blocks.

    Site ``s`` lands on shard ``s * shards // sites`` — block sizes
    differ by at most one, and neighbouring sites share a shard where
    possible (which keeps ring-topology traffic mostly in-process).
    """
    if sites <= 0:
        raise ValueError("sites must be positive")
    if not 1 <= shards <= sites:
        raise ValueError(
            f"shards must be in [1, sites]: got shards={shards}, "
            f"sites={sites}"
        )
    return tuple(s * shards // sites for s in range(sites))


def validate_link_specs(
    specs: Sequence[LinkSpec], sites: int
) -> None:
    """Reject ill-formed topologies before any worker forks.

    Mirrors the :class:`~repro.sim.network.BoundaryLink` constructor
    checks (self-loops, non-positive lookahead) and adds plan-level
    ones (site indices in range, duplicate link names).
    """
    seen = set()
    for spec in specs:
        if spec.name in seen:
            raise ValueError(f"duplicate boundary link name {spec.name!r}")
        seen.add(spec.name)
        if not (0 <= spec.src < sites and 0 <= spec.dst < sites):
            raise ValueError(
                f"boundary link {spec.name!r} references site outside "
                f"[0, {sites}): {spec.src}->{spec.dst}"
            )
        if spec.src == spec.dst:
            raise ValueError(
                f"boundary link {spec.name!r} connects site {spec.src} "
                f"to itself; boundary links are inter-site only"
            )
        if spec.latency_s <= 0:
            raise ValueError(
                f"boundary link {spec.name!r} ({spec.src}->{spec.dst}) "
                f"has zero lookahead: conservative parallel sync "
                f"requires a positive inter-site latency_s "
                f"(got {spec.latency_s})"
            )
        if spec.bandwidth_mbps <= 0:
            raise ValueError(
                f"boundary link {spec.name!r} bandwidth must be positive"
            )


def endpoint_ids(
    specs: Sequence[LinkSpec],
) -> Dict[Tuple[int, str], int]:
    """Numeric endpoint ids, derivable from the specs alone.

    Per destination site, the sorted distinct endpoint names of its
    inbound links are numbered 0.. — every shard computes the same
    mapping without seeing remote sites, so a sender can stamp the id
    into a ring record and the receiver can index its handler table.
    """
    names: Dict[int, set] = {}
    for spec in specs:
        names.setdefault(spec.dst, set()).add(spec.endpoint)
    ids: Dict[Tuple[int, str], int] = {}
    for dst, endpoint_names in names.items():
        for idx, name in enumerate(sorted(endpoint_names)):
            ids[(dst, name)] = idx
    return ids


@dataclass
class ShardedTestbed:
    """Plan for a multi-site testbed run across kernel shards.

    Produced by :func:`repro.sim.cluster.build_testbed` when called
    with ``sites > 1`` or ``shards > 1``; :meth:`run` executes it —
    in-process when ``shards == 1``, across forked workers otherwise.
    """

    seed: int = 0
    sites: int = 1
    shards: int = 1
    scenario: str = "kernelbench"
    params: Dict[str, Any] = field(default_factory=dict)
    partition: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.partition is None:
            self.partition = block_partition(self.sites, self.shards)
        else:
            self.partition = tuple(self.partition)
            if len(self.partition) != self.sites:
                raise ValueError(
                    f"partition has {len(self.partition)} entries for "
                    f"{self.sites} sites"
                )
            used = set(self.partition)
            if not used <= set(range(self.shards)):
                raise ValueError(
                    f"partition references shards outside "
                    f"[0, {self.shards}): {sorted(used)}"
                )
        block_partition(self.sites, self.shards)  # range validation
        # An unknown scenario or a bad parameter fails here, and a grid
        # process pays for its scenario and the runner while it plans,
        # not while it runs.
        import repro.sim.shard.runner  # noqa: F401
        from repro.sim.shard.scenarios import get_scenario

        get_scenario(self.scenario).resolve(self.params)

    def shard_sites(self, shard: int) -> List[int]:
        """The sites assigned to ``shard``, in site order."""
        return [s for s, p in enumerate(self.partition) if p == shard]

    def run(
        self,
        params: Optional[Dict[str, Any]] = None,
        until: Optional[float] = None,
        collect: Optional[str] = "fingerprint",
        deadline_s: Optional[float] = None,
        trace_capacity: Optional[int] = None,
    ):
        """Execute the plan; returns a ``ShardRunResult``.

        ``collect`` is ``"trace"`` (full per-site traces),
        ``"fingerprint"`` (per-site trace hashes only — cheap enough
        to ship between processes) or ``None`` (no tracing; fastest,
        used for timing runs).  ``trace_capacity`` bounds each site's
        tracer to a ring of that many events (default: unbounded, the
        behaviour the golden trajectories pin).
        """
        from repro.sim.shard.runner import run_sharded

        return run_sharded(
            self,
            params=params,
            until=until,
            collect=collect,
            deadline_s=deadline_s,
            trace_capacity=trace_capacity,
        )
