"""Unit tests for the virtual-networking subsystem."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.errors import VNetError
from repro.vnet.hostonly import HostOnlyNetworkPool, IPAllocator
from repro.vnet.tunnels import Gateway
from repro.vnet.vnetd import VirtualNetworkService, VNetProxy, VNetServer


class TestIPAllocator:
    def test_sequential_allocation(self):
        alloc = IPAllocator("10.0.0")
        assert alloc.allocate() == "10.0.0.2"
        assert alloc.allocate() == "10.0.0.3"

    def test_release_and_reuse(self):
        alloc = IPAllocator("10.0.0")
        first = alloc.allocate()
        alloc.allocate()
        alloc.release(first)
        assert alloc.allocate() == first

    def test_exhaustion(self):
        alloc = IPAllocator("10.0.0", first_host=2, last_host=3)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(VNetError):
            alloc.allocate()

    def test_foreign_release_rejected(self):
        alloc = IPAllocator("10.0.0")
        with pytest.raises(VNetError):
            alloc.release("10.9.9.2")

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            IPAllocator("10.0.0", first_host=200, last_host=100)


class TestHostOnlyNetworkPool:
    def test_attach_allocates_fresh_network(self):
        pool = HostOnlyNetworkPool("p", count=4)
        assignment = pool.attach("d1", "vm1")
        assert assignment.fresh_allocation
        assert pool.free_count == 3
        assert pool.network_of("d1").network_id == assignment.network_id

    def test_same_domain_shares_network(self):
        pool = HostOnlyNetworkPool("p", count=4)
        a1 = pool.attach("d1", "vm1")
        a2 = pool.attach("d1", "vm2")
        assert a1.network_id == a2.network_id
        assert not a2.fresh_allocation
        assert a1.ip_address != a2.ip_address

    def test_domains_never_share(self):
        pool = HostOnlyNetworkPool("p", count=4)
        ids = {
            pool.attach(f"d{i}", f"vm{i}").network_id for i in range(4)
        }
        assert len(ids) == 4
        pool.check_isolation()

    def test_exhaustion_for_new_domain(self):
        pool = HostOnlyNetworkPool("p", count=2)
        pool.attach("d1", "vm1")
        pool.attach("d2", "vm2")
        with pytest.raises(VNetError, match="no free host-only"):
            pool.attach("d3", "vm3")
        # Existing domains unaffected.
        pool.attach("d1", "vm4")

    def test_double_attach_same_vm_rejected(self):
        pool = HostOnlyNetworkPool("p")
        pool.attach("d1", "vm1")
        with pytest.raises(VNetError):
            pool.attach("d1", "vm1")

    def test_sticky_policy_keeps_assignment(self):
        pool = HostOnlyNetworkPool("p", count=1)
        pool.attach("d1", "vm1")
        pool.detach("vm1")
        assert pool.network_of("d1") is not None
        with pytest.raises(VNetError):
            pool.attach("d2", "vm2")

    def test_detach_unknown_vm_is_noop(self):
        pool = HostOnlyNetworkPool("p")
        pool.detach("ghost")

    def test_would_be_fresh_and_capacity_queries(self):
        pool = HostOnlyNetworkPool("p", count=1)
        assert pool.would_be_fresh("d1")
        assert pool.has_capacity_for("d1")
        pool.attach("d1", "vm1")
        assert not pool.would_be_fresh("d1")
        assert pool.has_capacity_for("d1")
        assert not pool.has_capacity_for("d2")

    def test_ip_released_on_detach(self):
        pool = HostOnlyNetworkPool("p")
        a1 = pool.attach("d1", "vm1")
        pool.detach("vm1")
        a2 = pool.attach("d1", "vm2")
        assert a2.ip_address == a1.ip_address

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            HostOnlyNetworkPool("p", count=0)
        with pytest.raises(ValueError):
            HostOnlyNetworkPool("p", subnets=["10.0.0", "10.0.0"])


class PoolMachine(RuleBasedStateMachine):
    """attach / detach / rename in any order: the lease table holds
    exactly the attached vmids, each on its domain's switch; the O(1)
    ``free_count`` keeps agreeing with a count of the free switches,
    a switch once assigned stays assigned, and the isolation check
    keeps passing."""

    DOMAINS = tuple(f"d{i}" for i in range(5))

    @initialize(count=st.integers(1, 4))
    def build(self, count):
        self.pool = HostOnlyNetworkPool("p", count=count)
        self.attached = {}  # vmid -> domain
        self.assigned = set()  # domains that ever got a switch
        self.serial = 0

    def _fresh_vmid(self):
        self.serial += 1
        return f"vm{self.serial}"

    @rule(domain=st.sampled_from(DOMAINS))
    def attach(self, domain):
        pool = self.pool
        fits = pool.has_capacity_for(domain)
        assert fits == (
            pool.network_of(domain) is not None
            or any(net.is_free for net in pool.networks)
        )
        vmid = self._fresh_vmid()
        if not fits:
            with pytest.raises(VNetError, match="no free host-only"):
                pool.attach(domain, vmid)
            return
        fresh = pool.would_be_fresh(domain)
        assert fresh == (domain not in self.assigned)
        assignment = pool.attach(domain, vmid)
        assert assignment.fresh_allocation == fresh
        assert pool.leases[vmid] == (
            pool.network_of(domain), assignment.ip_address
        )
        self.attached[vmid] = domain
        self.assigned.add(domain)

    @precondition(lambda self: self.attached)
    @rule(data=st.data())
    def detach(self, data):
        vmid = data.draw(st.sampled_from(sorted(self.attached)))
        domain = self.attached.pop(vmid)
        assert self.pool.detach(vmid)
        assert not self.pool.detach(vmid)  # idempotent
        assert vmid not in self.pool.leases
        assert self.pool.network_of(domain) is not None  # sticky

    @precondition(lambda self: self.attached)
    @rule(data=st.data())
    def rename(self, data):
        old = data.draw(st.sampled_from(sorted(self.attached)))
        new = self._fresh_vmid()
        lease = self.pool.leases[old]
        self.pool.rename(old, new)
        self.attached[new] = self.attached.pop(old)
        assert self.pool.leases[new] == lease  # same switch, same IP
        assert old not in self.pool.leases

    @invariant()
    def free_count_is_a_count_of_free_switches(self):
        pool = self.pool
        assert pool.free_count == sum(
            1 for net in pool.networks if net.is_free
        )
        assert pool.attached_count() == len(self.attached)
        assert pool.leases.keys() == self.attached.keys()
        for vmid, (net, _ip) in pool.leases.items():
            assert net is pool.network_of(self.attached[vmid])
        assert pool.free_count == len(pool.networks) - len(self.assigned)
        pool.check_isolation()


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


class TestCheckIsolation:
    def test_assigned_switch_missing_from_the_map_is_reported(self):
        pool = HostOnlyNetworkPool("p", count=2)
        pool.attach("d1", "vm1")
        pool.networks[1].domain = "smuggled"
        with pytest.raises(VNetError, match="missing from the domain map"):
            pool.check_isolation()

    def test_switch_mapped_under_another_domain_is_reported(self):
        pool = HostOnlyNetworkPool("p", count=2)
        pool.attach("d1", "vm1")
        pool.networks[0].domain = "d2"
        with pytest.raises(VNetError, match="records domain"):
            pool.check_isolation()

    def test_lease_on_an_unassigned_switch_is_reported(self):
        pool = HostOnlyNetworkPool("p", count=2)
        pool.attach("d1", "vm1")
        pool.leases["vm2"] = (pool.networks[1], "192.168.101.2")
        with pytest.raises(VNetError, match="unassigned switch"):
            pool.check_isolation()

    def test_address_held_twice_is_reported(self):
        pool = HostOnlyNetworkPool("p", count=2)
        pool.attach("d1", "vm1")
        pool.leases["vm2"] = pool.leases["vm1"]
        with pytest.raises(VNetError, match="held twice"):
            pool.check_isolation()


class TestVirtualNetworkService:
    def make(self):
        service = VirtualNetworkService()
        service.register_server(VNetServer("p0", host="node0"))
        return service

    def test_register_and_lookup(self):
        service = self.make()
        assert service.server_for("p0").host == "node0"
        with pytest.raises(VNetError):
            service.server_for("ghost")

    def test_duplicate_server_rejected(self):
        service = self.make()
        with pytest.raises(VNetError):
            service.register_server(VNetServer("p0", host="other"))

    def test_bridge_refcounting(self):
        service = self.make()
        proxy = VNetProxy("d1", "proxy.d1", 4000)
        b1 = service.setup_bridge("p0", "p0/vmnet0", proxy)
        b2 = service.setup_bridge("p0", "p0/vmnet0", proxy)
        assert b1.bridge_id == b2.bridge_id
        assert not service.teardown_bridge("p0", "d1")
        assert service.teardown_bridge("p0", "d1")
        assert service.bridges() == []

    def test_domain_network_conflict_rejected(self):
        service = self.make()
        proxy = VNetProxy("d1", "proxy.d1", 4000)
        service.setup_bridge("p0", "p0/vmnet0", proxy)
        with pytest.raises(VNetError):
            service.setup_bridge("p0", "p0/vmnet1", proxy)

    def test_teardown_unknown_bridge_rejected(self):
        service = self.make()
        with pytest.raises(VNetError):
            service.teardown_bridge("p0", "ghost-domain")

    def test_isolation_check(self):
        service = self.make()
        service.register_server(VNetServer("p1", host="node1"))
        service.setup_bridge(
            "p0", "p0/vmnet0", VNetProxy("d1", "proxy.d1", 1)
        )
        service.setup_bridge(
            "p1", "p1/vmnet0", VNetProxy("d2", "proxy.d2", 2)
        )
        service.check_isolation()  # distinct plants: fine


class TestGateway:
    def test_tunnel_establishment_idempotent(self):
        gateway = Gateway("gw.example")
        server = VNetServer("p0", host="node0", port=1087)
        t1 = gateway.establish_tunnel(server)
        t2 = gateway.establish_tunnel(server)
        assert t1 is t2
        assert gateway.endpoint_for("p0") == f"gw.example:{t1.public_port}"

    def test_distinct_plants_distinct_ports(self):
        gateway = Gateway("gw.example")
        t0 = gateway.establish_tunnel(VNetServer("p0", host="n0"))
        t1 = gateway.establish_tunnel(VNetServer("p1", host="n1"))
        assert t0.public_port != t1.public_port
        assert len(gateway.tunnels()) == 2

    def test_resolve(self):
        gateway = Gateway("gw.example")
        tunnel = gateway.establish_tunnel(VNetServer("p0", host="n0"))
        assert gateway.resolve(tunnel.public_port).plant_name == "p0"
        with pytest.raises(VNetError):
            gateway.resolve(1)

    def test_unknown_plant_endpoint_none(self):
        assert Gateway("gw").endpoint_for("ghost") is None
