"""Shard-tagged trace merging and determinism fingerprints.

Each site runs its own :class:`~repro.sim.trace.Tracer`; after a
sharded run the per-site streams are merged into one shard-tagged
timeline and hashed.  The fingerprint is defined purely over
per-site event sequences — ``(site, index, time, category, message,
data)`` — so it is invariant under how sites were packed into worker
processes: a 1-shard and an 8-shard run of the same (seed,
partition) produce the same fingerprint iff every site simulated the
same trajectory.  This is the contract the shard determinism tests
and every sweep's determinism recheck pin.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sim.trace import TraceEvent

__all__ = [
    "site_trace_fingerprint",
    "merged_fingerprint",
    "merge_traces",
]


def site_trace_fingerprint(events: Iterable[TraceEvent]) -> str:
    """SHA-256 over one site's (time, category, message, data) stream.

    Same shape as the golden-trajectory trace hash in
    ``tests/test_determinism.py`` so the two contracts stay
    comparable.
    """
    h = hashlib.sha256()
    for e in events:
        h.update(
            repr(
                (e.time, e.category, e.message, tuple(sorted(e.data.items())))
            ).encode()
        )
    return h.hexdigest()


def merged_fingerprint(site_fingerprints: Sequence[str]) -> str:
    """Combine per-site fingerprints (in site order) into one hash."""
    h = hashlib.sha256()
    for fp in site_fingerprints:
        h.update(fp.encode())
    return h.hexdigest()


def merge_traces(
    site_events: Dict[int, List[TraceEvent]],
) -> List[Tuple[int, TraceEvent]]:
    """One shard-tagged timeline: ``(site, event)`` rows.

    Ordered by (time, site, per-site sequence) — a total order that
    every shard count reproduces identically, since ties across
    *sites* at the same instant are independent (sites only interact
    through positive-latency boundary links) and ties *within* a site
    keep their original emission order.
    """
    rows = []
    for site in sorted(site_events):
        for idx, event in enumerate(site_events[site]):
            rows.append((event.time, site, idx, event))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return [(site, event) for _, site, _, event in rows]
