"""Tests for the fair-share link, physical host and NFS substrate."""

import pytest

from repro.sim.host import PhysicalHost
from repro.sim.kernel import Environment
from repro.sim.latency import DEFAULT_LATENCY, LatencyModel
from repro.sim.network import FairShareLink
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer

from tests.helpers import drive


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
    def test_read_charges_overhead_plus_transfer(self):
        env = Environment()
        nfs = NFSServer(env, rng=RngHub(1))

        def proc(env):
            yield from nfs.read_file(11.0)
            return env.now

        elapsed = drive(env, proc(env))
        # ~1 s transfer at 11 MB/s plus jittered ~0.25 s overhead.
        assert 1.0 < elapsed < 2.0
        assert nfs.requests_served == 1
        assert nfs.mb_served == pytest.approx(11.0)

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
