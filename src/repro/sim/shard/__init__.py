"""Sharded parallel DES kernel with conservative lookahead sync.

Partitions a multi-site testbed into per-site
:class:`~repro.sim.kernel.Environment` shards, runs each shard's
event loop in its own worker process, and synchronizes them with
classic conservative (null-message / lookahead) PDES over the
inter-site boundary links.  See ``DESIGN.md``'s "Kernel sharding &
parallel execution" section for the partitioning model, the lookahead
rule, and the determinism contract.

Only the plan is re-exported: building a :class:`ShardedTestbed`
loads its scenario and the runner, so a process that never plans a
sharded run never loads them.
"""

from repro.sim.shard.plan import ShardedTestbed

__all__ = ["ShardedTestbed"]
