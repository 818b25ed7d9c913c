"""Tests for the fair-share link, physical host and NFS substrate."""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.host import PhysicalHost
from repro.sim.kernel import Environment
from repro.sim.latency import DEFAULT_LATENCY, LatencyModel
from repro.sim.network import FairShareLink
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer

from tests.oracles.queued_decided import every_decided_event_queued
from tests.helpers import (
    drive,
    oracle_fair_share_link,
    python_call_counts,
)


class TestFairShareLink:
    def test_single_transfer_time(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0)

        def proc(env):
            yield link.transfer(50.0)
            return env.now

        assert drive(env, proc(env)) == pytest.approx(5.0)

    def test_two_flows_share_bandwidth(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0)
        done = {}

        def proc(env, name, size):
            yield link.transfer(size)
            done[name] = env.now

        env.process(proc(env, "a", 50.0))
        env.process(proc(env, "b", 50.0))
        env.run()
        # Both share 10 MB/s: each sees 5 MB/s → 10 s.
        assert done["a"] == pytest.approx(10.0)
        assert done["b"] == pytest.approx(10.0)

    def test_short_flow_finishes_first_then_rate_recovers(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0)
        done = {}

        def proc(env, name, size):
            yield link.transfer(size)
            done[name] = env.now

        env.process(proc(env, "short", 10.0))
        env.process(proc(env, "long", 50.0))
        env.run()
        # Shared until short drains 10MB at 5MB/s (t=2), then long
        # finishes its remaining 40MB at full rate (t=2+4=6).
        assert done["short"] == pytest.approx(2.0)
        assert done["long"] == pytest.approx(6.0)

    def test_staggered_join_rescales(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0)
        done = {}

        def first(env):
            yield link.transfer(40.0)
            done["first"] = env.now

        def second(env):
            yield env.timeout(2.0)
            yield link.transfer(40.0)
            done["second"] = env.now

        env.process(first(env))
        env.process(second(env))
        env.run()
        # first: 20MB alone (t=2), then shares; 20MB left at 5MB/s → t=6
        assert done["first"] == pytest.approx(6.0)
        # second: 20MB shared by t=6, then 20MB alone → t=8
        assert done["second"] == pytest.approx(8.0)

    def test_zero_size_completes_instantly(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0)

        def proc(env):
            yield link.transfer(0.0)
            return env.now

        assert drive(env, proc(env)) == 0.0

    def test_latency_added_before_flow(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0, latency_s=1.0)

        def proc(env):
            yield link.transfer(10.0)
            return env.now

        assert drive(env, proc(env)) == pytest.approx(2.0)

    def test_negative_size_rejected(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            link.transfer(-1.0)

    def test_bad_bandwidth_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            FairShareLink(env, "l", bandwidth_mbps=0.0)

    def test_utilization_accounting(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0)

        def proc(env):
            yield link.transfer(10.0)  # busy t=0..1
            yield env.timeout(9.0)  # idle t=1..10

        drive(env, proc(env))
        assert link.utilization() == pytest.approx(0.1)
        assert link.total_mb == pytest.approx(10.0)

    def test_conservation_many_flows(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=7.0)
        done = []
        sizes = [3.0, 11.0, 5.5, 20.0, 1.0]

        def proc(env, size, delay):
            yield env.timeout(delay)
            yield link.transfer(size)
            done.append(env.now)

        for i, size in enumerate(sizes):
            env.process(proc(env, size, i * 0.7))
        env.run()
        assert len(done) == len(sizes)
        # The link can never move data faster than its bandwidth:
        assert max(done) >= sum(sizes) / 7.0 - 1e-6


class TestPhysicalHost:
    def test_admit_release_accounting(self):
        env = Environment()
        host = PhysicalHost(env, "h", memory_mb=1000)
        host.admit_vm(256)
        host.admit_vm(128)
        assert host.committed_guest_mb == 384
        assert host.vm_count == 2
        host.release_vm(256)
        assert host.committed_guest_mb == 128
        assert host.vm_count == 1

    def test_over_release_rejected(self):
        env = Environment()
        host = PhysicalHost(env, "h", memory_mb=1000)
        host.admit_vm(100)
        from repro.core.errors import PlantError

        with pytest.raises(PlantError):
            host.release_vm(500)

    def test_pressure_flat_below_threshold(self):
        env = Environment()
        host = PhysicalHost(env, "h", memory_mb=2000)
        host.admit_vm(100)
        assert host.pressure_factor() == 1.0

    def test_pressure_grows_linearly_above_threshold(self):
        env = Environment()
        lat = DEFAULT_LATENCY
        host = PhysicalHost(env, "h", memory_mb=1000, latency=lat)
        # Fill to exactly 100% utilization.
        guest = 1000 - lat.host_os_reserve_mb - lat.vmm_overhead_per_vm_mb
        host.admit_vm(guest)
        expected = 1.0 + lat.pressure_slope * (1.0 - lat.pressure_threshold)
        assert host.pressure_factor() == pytest.approx(expected)

    def test_pressure_monotone_in_load(self):
        env = Environment()
        host = PhysicalHost(env, "h", memory_mb=1536)
        factors = []
        for _ in range(16):
            host.admit_vm(96)
            factors.append(host.pressure_factor())
        assert factors == sorted(factors)

    def test_disk_ops_scale_with_pressure(self):
        env = Environment()
        host = PhysicalHost(env, "h", memory_mb=1536)

        def measure():
            def proc(env):
                start = env.now
                yield from host.disk_write(60.0)
                return env.now - start

            return drive(env, proc(env))

        fast = measure()
        for _ in range(16):
            host.admit_vm(96)
        slow = measure()
        assert slow > fast

    def test_bad_construction(self):
        env = Environment()
        with pytest.raises(ValueError):
            PhysicalHost(env, "h", memory_mb=0)
        with pytest.raises(ValueError):
            PhysicalHost(env, "h", cpus=0)


class TestNFSServer:
    def test_copy_to_host_charges_per_file_overhead(self):
        env = Environment()
        nfs = NFSServer(env, rng=RngHub(1))
        host = PhysicalHost(env, "h")

        def proc(env, files):
            start = env.now
            yield from nfs.copy_to_host(1.0, host, files=files)
            return env.now - start

        one = drive(env, proc(env, 1))
        env2 = Environment()
        nfs2 = NFSServer(env2, rng=RngHub(1))
        host2 = PhysicalHost(env2, "h")

        def proc2(env):
            start = env2.now
            yield from nfs2.copy_to_host(1.0, host2, files=8)
            return env2.now - start

        eight = drive(env2, proc2(env2))
        assert eight > one

    def test_copy_write_excess_under_pressure(self):
        """When the host is pressured, the local write dominates."""
        lat = LatencyModel(host_disk_write_mbps=1.0)  # very slow disk
        env = Environment()
        nfs = NFSServer(env, latency=lat, rng=RngHub(1))
        host = PhysicalHost(env, "h", latency=lat)

        def proc(env):
            start = env.now
            yield from nfs.copy_to_host(22.0, host)
            return env.now - start

        elapsed = drive(env, proc(env))
        # 22 MB at 1 MB/s write ≫ 2 s network time.
        assert elapsed > 20.0

    def test_concurrent_copies_share_the_link(self):
        env = Environment()
        nfs = NFSServer(env, rng=RngHub(1))
        hosts = [PhysicalHost(env, f"h{i}") for i in range(2)]
        done = []

        def proc(env, host):
            yield from nfs.copy_to_host(55.0, host)
            done.append(env.now)

        for host in hosts:
            env.process(proc(env, host))
        env.run()
        # 110 MB over an 11 MB/s link can't finish before t=10.
        assert min(done) >= 10.0


class _CountingEnv(Environment):
    """An environment that counts the timers a link arms (the link's
    only ``call_later`` caller here)."""

    def __init__(self):
        super().__init__()
        self.armed = 0

    def call_later(self, delay, fn):
        self.armed += 1
        super().call_later(delay, fn)


_at = st.integers(0, 8).map(lambda k: k / 2)
#: Sizes on a grid, so flows tie; ``0`` and ``1e-10`` are below the
#: link's completion slack, so they finish at their start.
_link_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("start"),
            _at,
            st.sampled_from([0, 1e-10, 0.5, 1.0, 2.5, 4.0, 7.0]),
        ),
        st.tuples(st.just("bandwidth"), _at, st.sampled_from([0.5, 1.0, 3.0])),
        st.tuples(st.sampled_from(["pause", "resume", "abort"]), _at, st.none()),
    ),
    max_size=12,
)


def _play_link(link_cls, bandwidth, latency, ops):
    """Play ``ops`` (``(kind, at, arg)``, each at its instant in list
    order) on one link; what can be seen of it, as text (bit for bit),
    and the events executed."""
    env = _CountingEnv()
    link = link_cls(env, "l", bandwidth_mbps=bandwidth, latency_s=latency)
    log = []

    def finished(index, ev):
        ev.defused = True  # an aborted flow
        log.append((env.now, index, ev.ok))

    def act(kind, arg, index, _ev):
        if kind == "start":
            link.transfer(arg).callbacks.append(partial(finished, index))
        elif kind == "bandwidth":
            link.set_bandwidth(arg)
        elif kind == "pause":
            link.pause()
        elif kind == "resume":
            link.resume()
        else:
            aborted = link.abort_flows(lambda: RuntimeError("outage"))
            log.append((env.now, "abort", aborted))

    for index, (kind, at, arg) in enumerate(ops):
        env.timeout(at).callbacks.append(partial(act, kind, arg, index))
    env.run()
    return repr((
        log, env.now, link.total_mb, link.busy_time, link.utilization(),
        link.active_flows, env.armed, env._eid,
    )), env.executed_events


class TestOneWalkMatchesThreePasses:
    """The one-walk link against ``oracle_fair_share_link``, which drains,
    completes and finds the least in three passes: the same completion
    instants in the same order, the same accounting, the same timers and
    event ids.  With every finished flow queued the counts agree too;
    live, a finished flow that nothing can overtake fires in place, so
    fewer events execute."""

    @given(st.sampled_from([1.0, 2.0, 10.0]), st.sampled_from([0.0, 0.5]),
           _link_ops)
    # Two flows due at different times: the survivor drains at the rate
    # of the population before the first one left.
    @example(1.0, 0.0, [("start", 0, 1.0), ("start", 0, 2.0)])
    # Two flows due at once: both go on the heap, in flow order.
    @example(1.0, 0.0, [("start", 0, 1.0), ("start", 0, 1.0)])
    # Same-instant starts, a zero-size one among them, then a fault.
    @example(2.0, 0.0, [("start", 0, 1.0), ("start", 0, 0), ("start", 0, 1.0),
                        ("pause", 0.5, None), ("bandwidth", 1.0, 1.0),
                        ("resume", 1.5, None), ("abort", 3.0, None)])
    @settings(max_examples=200, deadline=None)
    def test_drawn_schedules_play_identically(self, bandwidth, latency, ops):
        with every_decided_event_queued():
            oracle = _play_link(oracle_fair_share_link, bandwidth, latency, ops)
            queued = _play_link(FairShareLink, bandwidth, latency, ops)
        seen, events = _play_link(FairShareLink, bandwidth, latency, ops)
        assert queued == oracle
        assert seen == oracle[0] and events <= oracle[1]

    def test_a_transfer_costs_one_walk_to_start_and_one_to_finish(self):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=10.0)
        start = python_call_counts(partial(link.transfer, 5.0))
        done = link._flows[1].event
        finish = python_call_counts(env.run)
        assert env.now == 0.5 and done.ok
        assert dict(start) == {
            "FairShareLink.transfer": 1,
            "Environment.event": 1,
            "Event.__init__": 1,
            "FairShareLink._start_flow": 1,
            "FairShareLink._walk": 1,
            "_Flow.__init__": 1,
            "FairShareLink._arm": 1,
            "Environment.call_later": 1,
            "_PooledTimeout.__init__": 1,
        }
        assert dict(finish) == {
            "Environment.run": 1,
            "Environment.run_below": 1,
            "FairShareLink._arm.<locals>.<lambda>": 1,
            "FairShareLink._on_timer": 1,
            "FairShareLink._walk": 1,
            "FairShareLink._arm": 1,
            "Environment._fire": 1,
        }


def test_hot_sim_classes_have_no_instance_dict():
    """The per-flow, per-host and per-transfer objects the kernel
    churns through stay ``__slots__``-only: a ``__dict__`` creeping
    into the MRO costs a dict allocation per instance."""
    from repro.sim.host import HostStateCache
    from repro.sim.network import _Flow
    from repro.sim.storage import TransferCoalescer, _InflightTransfer

    for cls in (_Flow, HostStateCache, TransferCoalescer, _InflightTransfer):
        assert hasattr(cls, "__slots__"), f"{cls.__name__} lost __slots__"
        instance = object.__new__(cls)
        assert not hasattr(instance, "__dict__"), cls.__name__
