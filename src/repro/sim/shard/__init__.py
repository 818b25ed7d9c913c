"""Sharded parallel DES kernel with conservative lookahead sync.

Partitions a multi-site testbed into per-site
:class:`~repro.sim.kernel.Environment` shards, runs each shard's
event loop in its own worker process, and synchronizes them with
classic conservative (null-message / lookahead) PDES over the
inter-site boundary links.  See ``DESIGN.md``'s "Kernel sharding &
parallel execution" section for the partitioning model, the lookahead
rule, and the determinism contract.
"""

from repro.sim.shard.plan import (
    LinkSpec,
    ShardedTestbed,
    block_partition,
    endpoint_ids,
    validate_link_specs,
)
from repro.sim.shard.ring import (
    KIND_MSG,
    KIND_NULL,
    RECORD,
    BrokenShardError,
    RingOutbox,
    RingReader,
    RouterOutbox,
    SiteInbox,
)
from repro.sim.shard.runner import (
    ShardRunResult,
    ShardWorkerError,
    run_sharded,
)
from repro.sim.shard.scenarios import (
    SCENARIOS,
    KernelBenchScenario,
    MiniRingScenario,
    ShardScenario,
    get_scenario,
    register,
)
from repro.sim.shard.tracemerge import (
    merge_traces,
    merged_fingerprint,
    site_trace_fingerprint,
)

__all__ = [
    "LinkSpec",
    "ShardedTestbed",
    "block_partition",
    "endpoint_ids",
    "validate_link_specs",
    "RECORD",
    "KIND_NULL",
    "KIND_MSG",
    "SiteInbox",
    "RouterOutbox",
    "RingOutbox",
    "RingReader",
    "BrokenShardError",
    "ShardRunResult",
    "ShardWorkerError",
    "run_sharded",
    "SCENARIOS",
    "ShardScenario",
    "KernelBenchScenario",
    "MiniRingScenario",
    "get_scenario",
    "register",
    "merge_traces",
    "merged_fingerprint",
    "site_trace_fingerprint",
]
