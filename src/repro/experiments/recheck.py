"""The determinism recheck every sharded experiment ends with.

The contract of :mod:`repro.sim.shard` is that a run is a pure
function of ``(seed, sites, scenario, params)`` — never of how the
sites were partitioned over shards, nor of which run it was.
:func:`recheck_determinism` checks it the same way for every sweep:
rerun a small instance with trace collection on at each of
``shard_counts``, once more at the largest, and compare

* the merged-trace **fingerprints** (all counts and the repeat), and
* for scenarios whose sites ship a ``summary_state`` (the grid
  scenarios), the merged ``WorkloadSummary`` **signatures** — the
  exact-merge contract of :mod:`repro.analysis.streaming`.

Timing runs never trace; this is the only place the experiment
drivers ask for ``collect="fingerprint"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.sim.shard import ShardedTestbed
from repro.workloads.megaload import merged_summary

__all__ = ["DeterminismRecheck", "recheck_determinism"]


def _short(hashes: Dict[int, str]) -> Dict[int, str]:
    return {k: v[:16] for k, v in hashes.items()}


@dataclass
class DeterminismRecheck:
    """What the reruns read, and whether they agree."""

    #: shard count -> merged-trace fingerprint.
    fingerprints: Dict[int, str] = field(default_factory=dict)
    #: Fingerprint of the repeat at the largest shard count.
    repeat_fingerprint: str = ""
    #: shard count -> merged summary signature (empty when the
    #: scenario's sites keep no summary).
    signatures: Dict[int, str] = field(default_factory=dict)
    #: Most trace events any one rerun lost to bounded tracers.
    trace_dropped: int = 0

    @property
    def fingerprint(self) -> str:
        """One of the fingerprints (the agreed one when :attr:`ok`)."""
        return next(iter(self.fingerprints.values()), "")

    @property
    def ok(self) -> bool:
        """All shard counts agree and the repeat reproduced exactly."""
        fps = set(self.fingerprints.values())
        return (
            len(fps) == 1
            and self.repeat_fingerprint in fps
            and len(set(self.signatures.values())) <= 1
        )

    def line(self) -> str:
        """The report line."""
        if not self.ok:
            return (
                "determinism: FAILED — fingerprints "
                f"{_short(self.fingerprints)} "
                f"repeat {self.repeat_fingerprint[:16]} "
                f"signatures {_short(self.signatures)}"
            )
        text = f"determinism: merged-trace fingerprint {self.fingerprint[:16]}"
        if self.signatures:
            signature = next(iter(self.signatures.values()))
            text += f" and summary signature {signature[:16]}"
        text += (
            f" identical at shard counts {sorted(self.fingerprints)} "
            "and across repeats"
        )
        if self.trace_dropped:
            text += (
                f" ({self.trace_dropped} trace events dropped by bounded "
                "tracers: fingerprints cover the retained tail only)"
            )
        return text


def recheck_determinism(
    seed: int,
    sites: int,
    scenario: str,
    params: Dict[str, Any],
    shard_counts: Sequence[int],
    deadline_s: Optional[float] = None,
    trace_capacity: Optional[int] = None,
) -> DeterminismRecheck:
    """Rerun ``params`` traced at every shard count, and repeat the last."""
    counts = sorted(set(shard_counts))
    result = DeterminismRecheck()

    def traced(shards: int):
        run = ShardedTestbed(
            seed=seed, sites=sites, shards=shards, scenario=scenario
        ).run(
            params=params,
            collect="fingerprint",
            deadline_s=deadline_s,
            trace_capacity=trace_capacity,
        )
        result.trace_dropped = max(result.trace_dropped, run.trace_dropped)
        return run

    for shards in counts:
        run = traced(shards)
        result.fingerprints[shards] = run.fingerprint()
        if "summary_state" in run.site_results[0]["stats"]:
            result.signatures[shards] = merged_summary(
                run
            ).state_signature()
    if counts:
        result.repeat_fingerprint = traced(counts[-1]).fingerprint()
    return result
