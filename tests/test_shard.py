"""Tests for the sharded parallel DES kernel.

Covers: the determinism contract (identical merged-trace fingerprints
of the miniring scenario at 1/2/4 shards and across repeats; the
absolute trajectories are pinned in ``tests/test_grid_goldens.py``),
exact ``until`` boundary semantics in every shard mode, zero-lookahead
rejection at both the plan and the ``BoundaryLink`` constructor,
worker-crash propagation (Python exception and hard process death),
partition plumbing, and one-site plans.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.network import BoundaryLink
from repro.sim.shard.plan import (
    LinkSpec,
    ShardedTestbed,
    block_partition,
    endpoint_ids,
    validate_link_specs,
)
from repro.sim.shard.runner import ShardWorkerError
from repro.sim.shard.scenarios import (
    SCENARIOS,
    MiniRingScenario,
    get_scenario,
)
from repro.sim.shard import ring
from repro.sim.shard.ring import (
    RECORD,
    RingOutbox,
    RingReader,
    RouterOutbox,
    SiteInbox,
)
from repro.sim.shard.worker import _ShardWorker


def _miniring(sites=4, shards=1, collect="fingerprint", **params):
    plan = ShardedTestbed(
        seed=11, sites=sites, shards=shards, scenario="miniring"
    )
    return plan.run(params=params, collect=collect, deadline_s=60.0)


# ---------------------------------------------------------------------------
# Partitioning and plan validation
# ---------------------------------------------------------------------------


def test_block_partition_contiguous_and_balanced():
    assert block_partition(8, 1) == (0,) * 8
    assert block_partition(8, 4) == (0, 0, 1, 1, 2, 2, 3, 3)
    assert block_partition(5, 2) == (0, 0, 0, 1, 1)
    part = block_partition(13, 5)
    # Contiguous: shard indices never decrease along the site axis.
    assert list(part) == sorted(part)
    # Balanced: block sizes differ by at most one, no shard empty.
    sizes = [part.count(s) for s in range(5)]
    assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1


def test_block_partition_rejects_bad_shapes():
    with pytest.raises(ValueError):
        block_partition(0, 1)
    with pytest.raises(ValueError):
        block_partition(4, 0)
    with pytest.raises(ValueError):
        block_partition(4, 5)


def test_sharded_testbed_validates_partition():
    with pytest.raises(ValueError, match="entries for"):
        ShardedTestbed(
            sites=4, shards=2, scenario="miniring", partition=(0, 1)
        )
    with pytest.raises(ValueError, match="outside"):
        ShardedTestbed(
            sites=4, shards=2, scenario="miniring", partition=(0, 0, 1, 3)
        )
    plan = ShardedTestbed(
        sites=4, shards=2, scenario="miniring", partition=(0, 1, 0, 1)
    )
    assert plan.shard_sites(0) == [0, 2]
    assert plan.shard_sites(1) == [1, 3]


def test_validate_link_specs_rejects_zero_lookahead():
    spec = LinkSpec(
        name="wan0",
        src=0,
        dst=1,
        endpoint="spill",
        bandwidth_mbps=10.0,
        latency_s=0.0,
    )
    with pytest.raises(ValueError, match="zero lookahead"):
        validate_link_specs([spec], sites=2)


def test_validate_link_specs_rejects_malformed_topologies():
    def spec(**kw):
        base = dict(
            name="l",
            src=0,
            dst=1,
            endpoint="e",
            bandwidth_mbps=10.0,
            latency_s=1.0,
        )
        base.update(kw)
        return LinkSpec(**base)

    with pytest.raises(ValueError, match="duplicate"):
        validate_link_specs([spec(), spec(dst=2)], sites=3)
    with pytest.raises(ValueError, match="outside"):
        validate_link_specs([spec(dst=5)], sites=2)
    with pytest.raises(ValueError, match="itself"):
        validate_link_specs([spec(dst=0)], sites=2)
    with pytest.raises(ValueError, match="bandwidth"):
        validate_link_specs([spec(bandwidth_mbps=0.0)], sites=2)


def test_boundary_link_ctor_rejects_zero_lookahead_and_self_loop():
    env = Environment()
    outbox = RouterOutbox({1: SiteInbox()}, None, (0, 0), 0)
    with pytest.raises(ValueError, match="zero lookahead"):
        BoundaryLink(env, "wan", 10.0, 0.0, 0, 1, 0, outbox)
    with pytest.raises(ValueError, match="itself"):
        BoundaryLink(env, "wan", 10.0, 2.0, 1, 1, 0, outbox)


def test_endpoint_ids_stable_per_destination():
    specs = [
        LinkSpec("a", 0, 1, "spill", 10.0, 1.0),
        LinkSpec("b", 2, 1, "ack", 10.0, 1.0),
        LinkSpec("c", 1, 0, "spill", 10.0, 1.0),
    ]
    ids = endpoint_ids(specs)
    # Sorted distinct endpoint names per destination, numbered 0..
    assert ids == {(1, "ack"): 0, (1, "spill"): 1, (0, "spill"): 0}


def test_unknown_scenario_and_unknown_param_rejected():
    with pytest.raises(KeyError, match="miniring"):
        get_scenario("no-such-scenario")
    with pytest.raises(ValueError, match="nope"):
        _miniring(nope=1)


UNKNOWN_SCENARIO_PROBE = """
import sys
from repro.sim.shard import ShardedTestbed
try:
    ShardedTestbed(seed=1, sites=2, shards=1, scenario="megalod")
except KeyError as exc:
    print(exc.args[0])
print("repro.federation.scenario" in sys.modules)
"""


def test_unknown_scenario_fails_when_planned_naming_every_scenario():
    # A fresh interpreter, where the two grid scenarios are not
    # registered yet: the message must still name them, and a
    # misspelt name must not load them.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-c", UNKNOWN_SCENARIO_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "unknown shard scenario 'megalod'; available: "
        "['federation', 'megaload', 'miniring']",
        "False",
    ]


# ---------------------------------------------------------------------------
# Determinism contract
# ---------------------------------------------------------------------------


def test_miniring_fingerprint_identical_across_shard_counts():
    fps = {}
    for shards in (1, 2, 4):
        run = _miniring(sites=4, shards=shards)
        fps[shards] = run.fingerprint()
        assert run.total_events > 100
    assert len(set(fps.values())) == 1, fps


def test_miniring_fingerprint_stable_across_repeats():
    assert (
        _miniring(sites=4, shards=2).fingerprint()
        == _miniring(sites=4, shards=2).fingerprint()
    )


def test_custom_partition_changes_placement_not_trajectory():
    base = _miniring(sites=4, shards=2).fingerprint()
    plan = ShardedTestbed(
        seed=11,
        sites=4,
        shards=2,
        scenario="miniring",
        partition=(0, 0, 0, 1),
    )
    assert plan.run(deadline_s=60.0).fingerprint() == base


def test_merged_trace_is_time_ordered():
    run = _miniring(sites=3, shards=1, ticks=12)
    plan = ShardedTestbed(seed=11, sites=3, shards=3, scenario="miniring")
    traced = plan.run(
        params={"ticks": 12}, collect="trace", deadline_s=60.0
    )
    merged = traced.merged_trace()
    assert merged, "trace collection returned nothing"
    times = [event.time for _site, event in merged]
    assert times == sorted(times)
    # Trace collection must not perturb the trajectory fingerprint.
    assert traced.fingerprint() == run.fingerprint()


class _FanInScenario(MiniRingScenario):
    """Miniring with every ring link but the last site's redirected to
    the last site, which hears from every other site."""

    name = "fanin"

    def link_specs(self, sites, params):
        return [
            spec._replace(dst=sites - 1)
            for spec in super().link_specs(sites, params)
            if spec.src != sites - 1
        ]


def test_simultaneous_deliveries_keep_source_order_across_shards(
    monkeypatch,
):
    """Sites 0 and 1 ping site 2 at every tick with zero-size pings,
    so both pings are due at once, exactly at the end of the window
    that sent them.  With site 0 in a shard of its own, site 2 hears
    them in (src, seq) order only if neither is delivered inside its
    send window."""
    monkeypatch.setitem(SCENARIOS, "fanin", _FanInScenario())
    params = {
        "ticks": 12, "ping_every": 1, "ping_mb": 0.0, "link_latency_s": 1.0,
    }

    def run(shards, partition=None):
        plan = ShardedTestbed(
            seed=11, sites=3, shards=shards, scenario="fanin",
            partition=partition,
        )
        return plan.run(params=params, deadline_s=60.0)

    oracle = run(1)
    assert oracle.combined_stats()["pings_recv"] == 24
    assert run(2, (0, 1, 1)).fingerprint() == oracle.fingerprint()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@st.composite
def _miniring_worlds(draw):
    sites = draw(st.integers(2, 5))
    shards = draw(st.integers(2, sites))
    # Surjective onto the shards: one site each, the rest anywhere.
    spare = st.integers(0, shards - 1)
    labels = list(range(shards)) + [
        draw(spare) for _ in range(sites - shards)
    ]
    params = {
        "ticks": draw(st.integers(5, 40)),
        "tick_s": draw(
            st.sampled_from([1.0, 0.5, 0.1]) | st.floats(0.05, 2.0)
        ),
        "ping_every": draw(st.integers(1, 5)),
        "ping_mb": draw(st.sampled_from([0.0, 0.25, 1.0, 8.0])),
        "link_latency_s": draw(st.floats(0.01, 6.0)),
        "link_bandwidth_mbps": draw(st.sampled_from([1.0, 10.0, 1000.0])),
    }
    until = draw(
        st.none()
        | st.floats(0.5, 45.0)
        | st.integers(1, 45).map(float)
    )
    return sites, tuple(draw(st.permutations(labels))), params, until


@settings(max_examples=40, deadline=None)
@given(_miniring_worlds())
def test_any_partition_gives_the_one_shard_trajectory(world):
    """Forked shards under any surjective partition reproduce the
    in-process one-shard run: fingerprint, event total and stats.

    Rings flush every 2 records and are read 50 bytes at a time, so a
    56-byte record straddles reads on every case.  The window
    mutants die here: a window end past ``T`` plus the minimum
    lookahead, a record delivered inside its send window, and a
    worker that runs its window without waiting for its peers'
    record counts.
    """
    sites, partition, params, until = world

    def run(shards, partition=None):
        plan = ShardedTestbed(
            seed=11,
            sites=sites,
            shards=shards,
            scenario="miniring",
            partition=partition,
        )
        return plan.run(params=params, until=until, deadline_s=60.0)

    oracle = run(1)
    fds = _open_fds()
    batch, chunk = ring.FLUSH_BATCH, ring.READ_CHUNK
    ring.FLUSH_BATCH, ring.READ_CHUNK = 2, 50  # inherited by the fork
    try:
        forked = run(max(partition) + 1, partition)
    finally:
        ring.FLUSH_BATCH, ring.READ_CHUNK = batch, chunk
    assert forked.fingerprint() == oracle.fingerprint()
    assert forked.total_events == oracle.total_events
    assert forked.combined_stats() == oracle.combined_stats()
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds


# ---------------------------------------------------------------------------
# ``until`` boundary semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_until_leaves_every_site_clock_exactly_at_horizon(shards):
    plan = ShardedTestbed(
        seed=11, sites=4, shards=shards, scenario="miniring"
    )
    run = plan.run(
        params={"ticks": 40}, until=13.0, deadline_s=60.0
    )
    for site in run.site_results:
        assert site["now"] == 13.0
    # Ticks land on integers, so events AT t=13 must have run: with
    # tick_s=1.0 each site completes exactly 13 of its 40 ticks.
    assert run.combined_stats()["ticks_done"] == 13 * 4


def test_until_truncation_matches_full_run_prefix():
    full = _miniring(sites=2, shards=1, ticks=6, collect="trace")
    plan = ShardedTestbed(seed=11, sites=2, shards=2, scenario="miniring")
    cut = plan.run(
        params={"ticks": 40},
        until=6.0,
        collect="trace",
        deadline_s=60.0,
    )
    full_events = [
        (s, e.time, e.category) for s, e in full.merged_trace()
    ]
    cut_events = [(s, e.time, e.category) for s, e in cut.merged_trace()]
    # Same prefix of tick events up to and including the horizon.
    assert [e for e in cut_events if e[1] <= 6.0] == [
        e for e in full_events if e[1] <= 6.0
    ]


# ---------------------------------------------------------------------------
# Crash propagation
# ---------------------------------------------------------------------------


def test_worker_exception_propagates_as_shard_worker_error():
    with pytest.raises(ShardWorkerError, match="injected miniring crash"):
        _miniring(sites=4, shards=2, crash_site=2, crash_at=5.0)


def test_worker_hard_exit_propagates_as_shard_worker_error():
    # Site 2 lives on shard 1; the scenario leaves with os._exit(3).
    with pytest.raises(
        ShardWorkerError, match=r"shard 1 worker died .*\(exit code 3\)"
    ):
        _miniring(sites=4, shards=2, hard_exit_site=2, hard_exit_at=5.0)


def test_sigkilled_worker_is_named_and_nothing_is_left_behind():
    victim = "shard-2"

    def kill_the_victim():
        for _ in range(6000):
            for child in multiprocessing.active_children():
                if child.name == victim:
                    time.sleep(0.2)  # let the run get going
                    os.kill(child.pid, signal.SIGKILL)
                    return
            time.sleep(0.005)

    fds = _open_fds()
    killer = threading.Thread(target=kill_the_victim)
    killer.start()
    try:
        plan = ShardedTestbed(
            seed=2004, sites=4, shards=4, scenario="megaload"
        )
        with pytest.raises(
            ShardWorkerError,
            match=r"shard 2 worker died without a result "
            r"\(killed by signal 9\)",
        ):
            plan.run(
                params={"requests": 2000}, collect=None, deadline_s=60.0
            )
    finally:
        killer.join(timeout=60.0)
    assert not killer.is_alive()
    # No gc.collect() first: run_sharded itself gave everything back.
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds


def test_sync_counters_ship_with_every_shard_result():
    forked = _miniring(sites=4, shards=2, collect=None)
    inproc = _miniring(sites=4, shards=1, collect=None)
    (only,) = inproc.shard_results
    assert set(only["sync"]) == set(forked.shard_results[0]["sync"])
    assert only["sync"]["windows"] > 1
    assert only["sync"]["records"] == 0
    for worker in forked.shard_results:
        sync = worker["sync"]
        # T is global: every worker runs every window, and the windows
        # are those of the in-process run.
        assert sync["windows"] == only["sync"]["windows"]
        assert sync["records"] == sum(worker["sent"].values()) > 0
        spent = sync["simulate_s"] + sync["exchange_s"] + sync["wait_s"]
        assert 0 < spent <= worker["wall_s"]


@pytest.mark.parametrize(
    "scenario,params",
    [
        # Zero-size pings leave at their tick, so with ticks 1 s apart
        # and a 1.5 s lookahead a ping sent at a window's start is due
        # exactly at its end.
        (
            "miniring",
            {"ping_every": 1, "ping_mb": 0.0, "link_latency_s": 1.5},
        ),
        ("megaload", {"requests": 60}),
    ],
)
def test_window_count_is_the_in_process_count(scenario, params):
    """T is global, so every shard count runs the same windows."""
    counts = {}
    for shards in (1, 2, 4):
        plan = ShardedTestbed(
            seed=2004, sites=4, shards=shards, scenario=scenario
        )
        run = plan.run(params=params, collect=None, deadline_s=120.0)
        counts[shards] = {w["sync"]["windows"] for w in run.shard_results}
    assert counts[1] == counts[2] == counts[4], counts
    assert min(counts[1]) > 1


def test_a_window_that_overfills_the_pipe_completes():
    """Both sites ping every 10 ms for 30 s inside one 40 s window:
    each worker ships 3,000 records (168 KB) to the other in the same
    window, more than a pipe holds, and each must drain its own
    in-ring while it waits for pipe space."""
    params = {
        "ticks": 3000, "tick_s": 0.01, "ping_every": 1, "ping_mb": 0.0,
        "link_latency_s": 40.0,
    }
    oracle = _miniring(sites=2, shards=1, **params)
    forked = _miniring(sites=2, shards=2, **params)
    assert forked.fingerprint() == oracle.fingerprint()
    for worker in forked.shard_results:
        assert worker["sync"]["records"] * RECORD.size > 1 << 16
    assert oracle.shard_results[0]["sync"]["windows"] == 2


def test_single_shard_crash_surfaces_directly():
    # In-process mode has no worker to blame: the scenario error
    # surfaces as-is.
    with pytest.raises(RuntimeError, match="injected miniring crash"):
        _miniring(sites=4, shards=1, crash_site=1, crash_at=3.0)


# ---------------------------------------------------------------------------
# One-site plans
# ---------------------------------------------------------------------------


def test_single_site_single_shard_plan_runs():
    run = _miniring(sites=1, shards=1, ticks=5)
    assert run.combined_stats()["ticks_done"] == 5
    assert run.combined_stats()["pings_sent"] == 0  # no links, no peers


# ---------------------------------------------------------------------------
# Event-ring wire safety (full-pipe writes)
# ---------------------------------------------------------------------------


def test_ring_full_pipe_write_drains_instead_of_deadlocking():
    # ~112 KB of records, far beyond any default pipe capacity: the
    # write must invoke the worker's on_block, which drains its own
    # in-rings, and complete without losing or tearing a record.
    rfd, wfd = os.pipe()
    try:
        reader = RingReader(0, rfd)
        inboxes = {0: SiteInbox()}
        worker = object.__new__(_ShardWorker)
        worker.readers = {rfd: reader}
        worker.world = SimpleNamespace(inboxes=inboxes)
        out = RingOutbox({1: wfd}, on_block=worker._ring_block)
        n = 2000
        for i in range(n):
            out.pack(1, 1, 0, 0, i, 100.0 + i, (float(i),))
        out.flush()
        # Blocked, the writer drained part of the batch itself.
        assert 0 < reader.received < n
        reader.drain(inboxes)
        assert reader.received == n
        assert len(inboxes[0]._heap) == n
        assert sorted(inboxes[0]._heap)[-1] == (
            100.0 + n - 1, 1, n - 1, 0, (float(n - 1), 0.0, 0.0, 0.0)
        )
    finally:
        os.close(rfd)
        os.close(wfd)


def test_executed_events_counts_executed_not_scheduled():
    env = Environment()
    env.timeout(1.0)
    env.timeout(5.0)  # beyond the horizon: scheduled, never executed
    env.run(until=2.0)
    assert env.executed_events == 1
    assert env.now == 2.0
