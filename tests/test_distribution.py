"""Tests for the peer-to-peer image distribution layer.

Peer stores, broadcast-tree planning, failure fallback, the load-aware
warehouse replica selection, the coalescer's outage semantics, and the
guarantee that the whole layer is invisible when switched off.
"""

import hashlib

import pytest

from repro.core.errors import StorageError
from repro.distribution.planner import DistributionPlanner
from repro.provisioning import FULL_PROVISIONING, ProvisioningConfig
from repro.sim.cluster import build_testbed
from repro.sim.host import HostStateCache, PhysicalHost
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer, ReplicatedWarehouseStorage
from repro.workloads.requests import experiment_request, request_stream

from tests.helpers import drive


class TestDistributionConfig:
    def test_defaults_disabled(self):
        config = ProvisioningConfig()
        assert not config.distribution_tree
        assert not config.replica_placement

    def test_tree_alone_enables_layer(self):
        bed = build_testbed(
            seed=11, n_plants=2,
            provisioning=ProvisioningConfig(distribution_tree=True),
        )
        assert bed.distribution is not None

    def test_full_provisioning_gains_tree(self):
        assert FULL_PROVISIONING.distribution_tree
        assert not FULL_PROVISIONING.replica_placement

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tree_fanout": 0},
            # The replica placer is gone: even with a tree, refused.
            {"distribution_tree": True, "replica_placement": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProvisioningConfig(**kwargs)


class TestCachePinning:
    def test_pinned_entry_skipped_by_eviction(self):
        cache = HostStateCache(100.0)
        cache.insert("a", 60.0)
        cache.insert("b", 30.0)
        cache.pin("a")
        # a is LRU, but pinned: b must be the victim instead.
        assert cache.insert("c", 40.0)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_insert_refused_when_only_pinned_evictable(self):
        cache = HostStateCache(100.0)
        cache.insert("a", 90.0)
        cache.pin("a")
        assert not cache.insert("d", 50.0)
        assert cache.eviction_refusals == 1
        assert "a" in cache and cache.used_mb == pytest.approx(90.0)

    def test_refused_refresh_restores_previous_entry(self):
        cache = HostStateCache(100.0)
        cache.insert("a", 50.0)
        cache.insert("b", 40.0)
        cache.pin("b")
        # Refreshing a to a size that cannot fit without evicting the
        # pinned b must put the old a back untouched.
        assert not cache.insert("a", 70.0)
        assert "a" in cache
        assert cache.used_mb == pytest.approx(90.0)

    def test_unpin_reenables_eviction(self):
        cache = HostStateCache(100.0)
        cache.insert("a", 90.0)
        cache.pin("a")
        cache.pin("a")
        cache.unpin("a")
        assert cache._pins == {"a": 1}  # one pin still held
        cache.unpin("a")
        assert cache._pins == {}
        assert cache.insert("d", 50.0)
        assert "a" not in cache

    def test_clear_drops_pins(self):
        cache = HostStateCache(100.0)
        cache.insert("a", 10.0)
        cache.pin("a")
        cache.clear()
        assert cache._pins == {}
        cache.unpin("a")  # missing pins are ignored (crash unwinding)

    def test_unpinned_behaviour_is_plain_lru(self):
        cache = HostStateCache(100.0)
        cache.insert("a", 40.0)
        cache.insert("b", 40.0)
        cache.lookup("a")
        cache.insert("c", 40.0)
        assert "b" not in cache and "a" in cache
        assert cache.eviction_refusals == 0


def _site(n_hosts: int, fanout: int = 2, cache_mb: float = 1024.0):
    """A bare planner site: hosts + NFS + planner, no plants."""
    env = Environment()
    nfs = NFSServer(env, rng=RngHub(7))
    planner = DistributionPlanner(env, nfs, fanout=fanout)
    hosts = []
    for i in range(n_hosts):
        host = PhysicalHost(
            env, f"node{i}", state_cache=HostStateCache(cache_mb)
        )
        planner.register_host(host)
        hosts.append(host)
    return env, nfs, planner, hosts


class TestDistributionPlanner:
    PAYLOAD = 80.1

    def test_first_fetch_seeds_from_nfs_then_peers_take_over(self):
        env, nfs, planner, hosts = _site(3)
        assert drive(
            env, planner.fetch(hosts[0], "img", self.PAYLOAD, files=3)
        ) == "nfs"
        nfs_mb = nfs.mb_served
        assert drive(
            env, planner.fetch(hosts[1], "img", self.PAYLOAD)
        ) == "peer"
        assert drive(
            env, planner.fetch(hosts[2], "img", self.PAYLOAD)
        ) == "peer"
        assert nfs.mb_served == nfs_mb  # no further warehouse bytes
        assert planner.peer_hops == 2
        assert planner.stores["node0"].serves >= 1

    def test_refetch_on_seeded_host_is_local(self):
        env, nfs, planner, hosts = _site(2)
        drive(env, planner.fetch(hosts[0], "img", self.PAYLOAD))
        assert drive(
            env, planner.fetch(hosts[0], "img", self.PAYLOAD)
        ) == "local"
        assert planner.local_hits == 1

    def test_concurrent_burst_builds_tree_one_nfs_seed(self):
        env, nfs, planner, hosts = _site(8)
        results = []

        def one(host):
            source = yield from planner.fetch(host, "img", self.PAYLOAD)
            results.append(source)

        def burst():
            procs = [env.process(one(h)) for h in hosts]
            yield env.all_of(procs)

        drive(env, burst())
        assert sorted(results).count("nfs") == 1
        assert results.count("peer") == 7
        assert planner.nfs_seeds == 1
        assert planner.attaches > 0  # late arrivals rode in-flight legs
        assert nfs.mb_served == pytest.approx(self.PAYLOAD)
        assert planner._flights == {}  # nothing orphaned

    def test_fanout_bound_respected(self):
        env, nfs, planner, hosts = _site(6, fanout=1)
        drive(env, planner.fetch(hosts[0], "img", self.PAYLOAD))
        peak = [0]

        orig = planner._peer_copy

        def spy(source, dest, image_id, payload_mb):
            peak[0] = max(
                peak[0],
                max(
                    s.active_serves + (1 if s is source else 0)
                    for s in planner.stores.values()
                ),
            )
            return orig(source, dest, image_id, payload_mb)

        planner._peer_copy = spy

        def burst():
            procs = [
                env.process(planner.fetch(h, "img", self.PAYLOAD))
                for h in hosts[1:]
            ]
            yield env.all_of(procs)

        drive(env, burst())
        assert peak[0] <= 1

    def test_source_crash_falls_back_to_nfs(self):
        env, nfs, planner, hosts = _site(2)
        drive(env, planner.fetch(hosts[0], "img", self.PAYLOAD))
        nfs_before = nfs.mb_served
        outcome = []

        def fetch():
            source = yield from planner.fetch(
                hosts[1], "img", self.PAYLOAD
            )
            outcome.append(source)

        def crash_source():
            yield env.timeout(0.3)  # mid peer transfer (~0.73 s)
            hosts[0].crash()
            hosts[0].state_cache.clear()
            planner.on_host_crashed(hosts[0])

        def both():
            procs = [env.process(fetch()), env.process(crash_source())]
            yield env.all_of(procs)

        drive(env, both())
        assert outcome == ["nfs"]
        assert planner.fallbacks == 1
        assert nfs.mb_served > nfs_before  # fell back to the warehouse
        assert planner._flights == {}
        # The dead host serves nothing and holds no pins.
        assert planner.stores["node0"].active_serves == 0

    def test_serve_pins_entry_against_eviction(self):
        env, nfs, planner, hosts = _site(2, cache_mb=100.0)
        drive(env, planner.fetch(hosts[0], "img", 90.0))
        cache = hosts[0].state_cache
        seen = []

        def fetch():
            source = yield from planner.fetch(hosts[1], "img", 90.0)
            seen.append(source)

        def evict_mid_serve():
            yield env.timeout(0.3)
            assert cache._pins == {"img": 1}
            # A competing insert cannot push the served entry out.
            assert not cache.insert("other", 50.0)
            assert "img" in cache

        def both():
            procs = [env.process(fetch()), env.process(evict_mid_serve())]
            yield env.all_of(procs)

        drive(env, both())
        assert seen == ["peer"]
        assert cache._pins == {}  # pin released with the serve
        assert cache.insert("other", 50.0)  # and eviction works again

    def test_trace_events_cover_tree_hops_and_attaches(self):
        from repro.sim.trace import Tracer

        env, nfs, planner, hosts = _site(4)
        env.tracer = Tracer()

        def burst():
            procs = [
                env.process(planner.fetch(h, "img", self.PAYLOAD))
                for h in hosts
            ]
            yield env.all_of(procs)

        drive(env, burst())
        events = [e for e in env.tracer.events if e.category == "storage"]
        hops = [e for e in events if e.message == "tree-hop"]
        attaches = [e for e in events if e.message == "tree-attach"]
        assert any(e.data["source"] == "nfs" for e in hops)
        assert any(e.data["source"] != "nfs" for e in hops)
        assert {e.data["dest"] for e in hops} == {h.name for h in hosts}
        assert attaches and all(
            {"follower", "leader", "kind"} <= set(e.data) for e in attaches
        )

    def test_register_requires_state_cache(self):
        env = Environment()
        planner = DistributionPlanner(env, NFSServer(env))
        with pytest.raises(ValueError):
            planner.register_host(PhysicalHost(env, "bare"))


class TestCoalescerOutage:
    """Satellite: NFS outage beginning mid-coalesced-copy."""

    def _race_into_outage(self, mode: str):
        env = Environment()
        nfs = NFSServer(env, rng=RngHub(3))
        host = PhysicalHost(env, "node0")
        errors = []

        def one(idx):
            try:
                yield from nfs.coalescer.copy(
                    nfs, ("node0", "img"), 48.1, host, files=3
                )
            except StorageError as exc:
                errors.append((idx, str(exc)))

        def outage():
            yield env.timeout(2.0)  # both callers mid-transfer
            nfs.begin_outage(mode)

        def script():
            procs = [
                env.process(one(0)),
                env.process(one(1)),
                env.process(outage()),
            ]
            yield env.all_of(procs)

        drive(env, script())
        return nfs, errors

    def test_abort_fails_leader_and_followers_together(self):
        nfs, errors = self._race_into_outage("abort")
        assert len(errors) == 2
        leader_error = dict(errors)[0]
        follower_error = dict(errors)[1]
        assert "outage" in leader_error
        # The follower observes the same root cause, via the leader.
        assert "leader" in follower_error
        assert "outage" in follower_error
        # No orphaned in-flight entries: the table fully unwound.
        assert nfs.coalescer._inflight == {}
        assert nfs.coalescer.requests_coalesced == 1

    def test_leader_abort_emits_coalesce_attach_trace(self):
        from repro.sim.trace import Tracer

        env = Environment()
        env.tracer = Tracer()
        nfs = NFSServer(env, rng=RngHub(3))
        host = PhysicalHost(env, "node0")

        def both():
            procs = [
                env.process(
                    nfs.coalescer.copy(nfs, ("n", "img"), 48.1, host)
                )
                for _ in range(2)
            ]
            yield env.all_of(procs)

        drive(env, both())
        attaches = [
            e
            for e in env.tracer.events
            if e.category == "storage" and e.message == "coalesce-attach"
        ]
        assert len(attaches) == 1
        assert attaches[0].data["host"] == "node0"


class TestLoadAwareReplicaPick:
    """Satellite: least-in-flight-MB replica selection."""

    def _replicated(self, n=3):
        env = Environment()
        replicas = [
            NFSServer(env, f"nfs{i}", rng=RngHub(i)) for i in range(n)
        ]
        return env, ReplicatedWarehouseStorage(replicas)

    def test_idle_tie_breaks_to_first_replica(self):
        env, storage = self._replicated()
        assert storage._pick() is storage.replicas[0]

    def test_big_transfer_steers_next_op_away(self):
        env, storage = self._replicated(2)
        host = PhysicalHost(env, "node0")
        order = []

        def big():
            order.append("big-start")
            yield from storage.copy_to_host(2048.0, host, files=16)

        def small():
            yield env.timeout(1.0)  # the big copy is in flight
            # replica0 carries ~2 GB in flight; replica1 must win even
            # though replica0 would win the index tie-break.
            assert storage._pick() is storage.replicas[1]
            yield from storage.copy_to_host(16.0, host)

        def script():
            procs = [env.process(big()), env.process(small())]
            yield env.all_of(procs)

        drive(env, script())
        assert storage.replicas[1].requests_served == 1
        # In-flight accounting fully unwound on completion.
        assert all(v == 0.0 for v in storage._inflight_mb.values())

    def test_inflight_mb_beats_flow_count(self):
        """A burst of small reads must not pile onto a replica that is
        mid-way through one multi-GB copy (the flow-count failure)."""
        env, storage = self._replicated(2)
        host = PhysicalHost(env, "node0")
        served = []

        def big():
            yield from storage.copy_to_host(4096.0, host, files=16)

        def smalls():
            yield env.timeout(1.0)
            for _ in range(3):
                # Sequential small reads: each sees replica0 still
                # loaded with the big copy and goes to replica1.
                yield from storage.copy_to_host(8.0, host)
                served.append(
                    tuple(r.requests_served for r in storage.replicas)
                )

        def script():
            procs = [env.process(big()), env.process(smalls())]
            yield env.all_of(procs)

        drive(env, script())
        assert storage.replicas[1].requests_served == 3


class TestTreeTestbedIntegration:
    def test_burst_one_nfs_seed_and_faster_than_star(self):
        def burst(bed):
            request = experiment_request(64)

            def one(i):
                yield from bed.plants[i].create(request, f"vm-{i}")

            def script():
                procs = [
                    bed.env.process(one(i))
                    for i in range(len(bed.plants))
                ]
                yield bed.env.all_of(procs)

            drive(bed.env, script())
            return bed.env.now

        tree_bed = build_testbed(
            seed=5,
            n_plants=8,
            provisioning=ProvisioningConfig(distribution_tree=True),
        )
        star_bed = build_testbed(seed=5, n_plants=8)
        tree_time = burst(tree_bed)
        star_time = burst(star_bed)
        assert tree_time < star_time / 2
        sources = [r.copy_source for r in tree_bed.clone_records()]
        assert sources.count("nfs") == 1
        assert sources.count("peer") == 7
        assert tree_bed.nfs.mb_served < star_bed.nfs.mb_served / 4

    def test_host_crash_mid_tree_recovers_via_nfs(self):
        bed = build_testbed(
            seed=5,
            n_plants=3,
            provisioning=ProvisioningConfig(distribution_tree=True),
        )
        request = experiment_request(64)
        drive(bed.env, bed.plants[0].create(request, "v0"))
        line = bed.lines["vmware"][0]

        def fetcher():
            yield from bed.plants[1].create(request, "v1")

        def killer():
            yield bed.env.timeout(0.3)
            line.host_crashed()

        def script():
            procs = [
                bed.env.process(fetcher()),
                bed.env.process(killer()),
            ]
            yield bed.env.all_of(procs)

        drive(bed.env, script())
        assert bed.distribution.fallbacks >= 1
        record = bed.clone_records()[-1]
        assert record.copy_source == "nfs"


class TestDisabledTreeIsInvisible:
    def test_all_off_testbed_has_no_distribution_machinery(self):
        bed = build_testbed(seed=11, n_plants=2)
        assert bed.distribution is None
        for line_list in bed.lines.values():
            assert all(l.distribution is None for l in line_list)

    def test_golden_trace_fingerprint_unchanged(self):
        """Regression pin for the load-aware `_pick` and planner work:
        the all-off site still reproduces the seed golden trajectory
        (same workload and hash as tests/test_determinism.py)."""
        from tests.test_determinism import TestGoldenTrajectories

        bed = build_testbed(
            seed=11, n_plants=2, provisioning=ProvisioningConfig()
        )
        tracer = bed.attach_tracer()

        def client():
            for request in request_stream(32, 4):
                yield from bed.shop.create(request)

        bed.run(client())
        fp = hashlib.sha256(
            repr(
                [
                    (
                        e.time,
                        e.category,
                        e.message,
                        tuple(sorted(e.data.items())),
                    )
                    for e in tracer.events
                ]
            ).encode()
        ).hexdigest()
        assert fp == TestGoldenTrajectories.TRACE_FP
