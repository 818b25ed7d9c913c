"""Tests for the simulated VMware/UML production lines."""

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.core.actions import Action, ActionScope, ActionStatus
from repro.core.dag import ConfigDAG
from repro.core.errors import PlantError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.experiments.runner import run_requests
from repro.plant.ppp import ProductionOrder, ProductionProcessPlanner
from repro.plant.infosys import VMInformationSystem
from repro.plant.production import CloneMode, VirtualMachine
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.sim.cluster import _LINE_CLASSES, build_testbed
from repro.sim.host import PhysicalHost
from repro.sim.hypervisor import UMLLine, VMwareLine
from repro.sim.kernel import Environment
from repro.sim.latency import LatencyModel
from repro.sim.rng import RngHub
from repro.sim.storage import NFSServer
from repro.workloads.invigo import invigo_workspace_dag
from repro.workloads.requests import (
    MANDRAKE_OS,
    experiment_dag,
    experiment_request,
    golden_image,
    install_os_action,
)

from tests.helpers import drive
from tests.oracles.four_sleep_line import (
    FourSleepUMLLine,
    FourSleepVMwareLine,
)


def make_rig(line_cls=VMwareLine, vm_type="vmware", seed=1, **line_kwargs):
    env = Environment()
    rng = RngHub(seed)
    host = PhysicalHost(env, "h0")
    nfs = NFSServer(env, rng=rng)
    line = line_cls(env, host, nfs, rng=rng, **line_kwargs)
    warehouse = VMWarehouse(
        [golden_image(m, vm_type=vm_type) for m in (32, 64, 256)]
    )
    ppp = ProductionProcessPlanner(
        env, warehouse, VMInformationSystem(), {vm_type: line}
    )
    return env, host, line, ppp


def make_request(mem=32, vm_type="vmware"):
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=mem),
        software=SoftwareSpec(os=MANDRAKE_OS, dag=experiment_dag()),
        network=NetworkSpec(domain="d"),
        vm_type=vm_type,
    )


def produce(env, ppp, vmid, mem=32, vm_type="vmware", mode=CloneMode.LINK):
    order = ProductionOrder(
        vmid, make_request(mem, vm_type), clone_mode=mode,
        context={"ip": "10.0.0.9"},
    )
    return drive(env, ppp.produce(order))


class TestVMwareLine:
    def test_clone_time_grows_with_memory(self):
        times = {}
        for mem in (32, 64, 256):
            env, _, line, ppp = make_rig()
            produce(env, ppp, f"vm-{mem}", mem=mem)
            times[mem] = line.clone_records[0].total_time
        assert times[32] < times[64] < times[256]

    def test_link_clone_much_faster_than_copy(self):
        env, _, line, ppp = make_rig()
        produce(env, ppp, "link-vm", mode=CloneMode.LINK)
        env2, _, line2, ppp2 = make_rig()
        produce(env2, ppp2, "copy-vm", mode=CloneMode.COPY)
        link_t = line.clone_records[0].total_time
        copy_t = line2.clone_records[0].total_time
        assert copy_t > 5 * link_t

    def test_memory_admitted_and_released(self):
        env, host, line, ppp = make_rig()
        vm = produce(env, ppp, "vm1", mem=64)
        assert host.committed_guest_mb == 64
        drive(env, line.collect(vm))
        assert host.committed_guest_mb == 0
        assert host.vm_count == 0

    def test_pressure_raises_clone_time(self):
        env, host, line, ppp = make_rig()
        for i in range(16):
            produce(env, ppp, f"vm{i}", mem=64)
        records = line.clone_records
        assert records[-1].pressure > records[0].pressure
        assert records[-1].total_time > records[0].total_time

    def test_clone_failure_releases_memory(self):
        env, host, line, ppp = make_rig(clone_failure_prob=0.999)
        with pytest.raises(PlantError, match="failed to resume"):
            produce(env, ppp, "vm1")
        assert host.committed_guest_mb == 0
        assert line.clone_records == []

    def test_guest_action_charges_cdrom_path(self):
        env, _, line, ppp = make_rig()
        vm = produce(env, ppp, "vm1")
        guest = [r for r in vm.results if r.action == "configure-network"]
        assert guest[0].duration > 1.0  # ISO + connect + mount + script

    def test_host_action_is_cheap(self):
        env, _, line, ppp = make_rig()
        vm = produce(env, ppp, "vm1")

        def run_host_action():
            action = Action("dev-setup", scope=ActionScope.HOST)
            return drive(
                env, line.execute_action(vm, action, {"vmid": "vm1"})
            )

        result = run_host_action()
        assert result.ok
        assert result.duration < 1.0

    def test_action_failure_injection(self):
        env, _, line, ppp = make_rig(action_failure_prob=0.999)
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            produce(env, ppp, "vm1")

    def test_outputs_fabricated_from_context(self):
        env, _, line, ppp = make_rig()
        vm = produce(env, ppp, "vm1")
        assert vm.classad["ip"] == "10.0.0.9"

    def test_can_host_respects_overcommit(self):
        env, host, line, ppp = make_rig(admission_overcommit=1.0)
        request = make_request(mem=1537)
        assert not line.can_host(request)
        assert line.can_host(make_request(mem=512))

    def test_validation(self):
        env = Environment()
        host = PhysicalHost(env, "h")
        nfs = NFSServer(env)
        with pytest.raises(ValueError):
            VMwareLine(env, host, nfs, clone_failure_prob=1.5)


class TestUMLLine:
    def test_boot_dominates_clone_time(self):
        env, _, line, ppp = make_rig(UMLLine, vm_type="uml")
        produce(env, ppp, "vm1", vm_type="uml")
        record = line.clone_records[0]
        assert record.resume_time > 0.8 * record.total_time

    def test_uml_clone_time_insensitive_to_memory(self):
        times = {}
        for mem in (32, 256):
            env, _, line, ppp = make_rig(UMLLine, vm_type="uml")
            produce(env, ppp, f"vm-{mem}", mem=mem, vm_type="uml")
            times[mem] = line.clone_records[0].total_time
        # No memory state to copy: within 25% of each other.
        assert times[256] < times[32] * 1.25

    def test_uml_slower_than_vmware_resume(self):
        env, _, uml, ppp = make_rig(UMLLine, vm_type="uml")
        produce(env, ppp, "vm1", vm_type="uml")
        env2, _, vmw, ppp2 = make_rig()
        produce(env2, ppp2, "vm2")
        assert (
            uml.clone_records[0].total_time
            > 2 * vmw.clone_records[0].total_time
        )

    def test_migrated_vm_resumes_at_the_lines_own_rate(self):
        # Was: every line resumed a migrated VM at vmware_resume_mbps.
        lat = LatencyModel(op_jitter_sigma=0.0)  # every jitter is 1.0
        for line_cls, vm_type, mbps in (
            (VMwareLine, "vmware", lat.vmware_resume_mbps),
            (UMLLine, "uml", lat.uml_resume_mbps),
        ):
            env = Environment()
            host = PhysicalHost(env, "h0", latency=lat)
            line = line_cls(env, host, NFSServer(env), latency=lat)
            image = golden_image(256, vm_type=vm_type)
            vm = VirtualMachine(
                "vm1", image, make_request(256, vm_type), vm_type
            )
            drive(env, line.receive(vm, {}))
            assert host.pressure_factor() == 1.0
            assert env.now == pytest.approx(
                256 / lat.host_disk_write_mbps
                + lat.migrate_resume_fixed_s
                + 256 / mbps
            ), vm_type

    def test_uml_boot_failure(self):
        env, host, line, ppp = make_rig(
            UMLLine, vm_type="uml", clone_failure_prob=0.999
        )
        with pytest.raises(PlantError, match="failed to boot"):
            produce(env, ppp, "vm1", vm_type="uml")
        assert host.committed_guest_mb == 0


def test_clone_classes_have_no_instance_dict():
    """One of each per clone: kept ``__slots__``-only."""
    from repro.sim.hypervisor import CloneRecord, SimBackend

    for cls in (CloneRecord, SimBackend):
        assert hasattr(cls, "__slots__"), f"{cls.__name__} lost __slots__"
        # A NamedTuple record is a tuple: built the way tuples are.
        new = tuple.__new__ if issubclass(cls, tuple) else object.__new__
        instance = new(cls)
        assert not hasattr(instance, "__dict__"), cls.__name__


class TestOneWakeMatchesFourSleeps:
    """An action's guest stages are four draws and one wake; the lines
    that slept once per stage (``tests/oracles/four_sleep_line.py``)
    are its reference.  With one create at a time on one plant no
    other VM of the host draws between the stages, so the two agree
    bit for bit."""

    @staticmethod
    def _trajectory(seed):
        redhat = "linux-redhat-8.0"
        bare = GoldenImage(
            image_id="bare-os",
            vm_type="vmware",
            os=redhat,
            hardware=HardwareSpec(memory_mb=32, disk_gb=4.0),
            memory_state_mb=32.0,
        )
        bed = build_testbed(
            seed=seed,
            n_plants=1,
            vm_types=("vmware", "uml"),
            action_failure_prob=0.15,
            extra_images=[bare],
        )
        # The In-VIGO DAG adds a HOST-scope action and RETRY budgets.
        invigo = CreateRequest(
            hardware=HardwareSpec(memory_mb=32),
            software=SoftwareSpec(os=redhat, dag=invigo_workspace_dag()),
            network=NetworkSpec(domain="acis.ufl.edu"),
            vm_type="vmware",
        )
        requests = [
            experiment_request(mem, vm_type=vm_type)
            for vm_type in ("vmware", "uml")
            for mem in (32, 64, 256)
        ] + [invigo] * 4
        run = run_requests(bed, requests)
        results = [
            (
                vm.vmid,
                [
                    (r.action, r.status, r.duration.hex(), r.attempts)
                    for r in vm.results
                ],
            )
            for vm in bed.plants[0].infosys.active()
        ]
        clocks = [
            (r.started_at.hex(), r.total_time.hex())
            for line in bed.plants[0].lines.values()
            for r in line.clone_records
        ]
        return bed.env.now.hex(), repr(run.samples), results, clocks

    def test_a_sequential_run_is_bit_identical(self, monkeypatch):
        seeds = (2004, 7)
        one_wake = [self._trajectory(seed) for seed in seeds]
        monkeypatch.setitem(_LINE_CLASSES, "vmware", FourSleepVMwareLine)
        monkeypatch.setitem(_LINE_CLASSES, "uml", FourSleepUMLLine)
        assert one_wake == [self._trajectory(seed) for seed in seeds]
        results = [
            r for _, _, vms, _ in one_wake for _, rs in vms for r in rs
        ]
        # A retried action (seed 2004) and a failed one its DAG lets
        # pass (seed 7) ran too, so every branch was compared.
        assert {s for _, s, _, _ in results} == {
            ActionStatus.OK, ActionStatus.CACHED, ActionStatus.FAILED
        }
        assert any(attempts > 1 for *_, attempts in results)

    @given(
        st.floats(min_value=0.0, max_value=1e12),
        st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=4, max_size=4
        ),
    )
    @example(1.0, [0.25, 0.25, 0.25, 0.25])
    @example(9.5, [0.6, 0.4, 0.5, 2.3])
    def test_the_chained_wake_is_exact_when_start_covers_the_span(
        self, start, stages
    ):
        # Four sleeps land the clock on ``(((start + a) + b) + c) + d``;
        # one sleep of ``wake - start`` lands it on ``start + (wake -
        # start)``.  Sterbenz: ``wake - start`` is exact while ``start
        # <= wake <= 2 * start``, so the sum is ``wake`` itself.
        wake = start
        for stage in stages:
            wake += stage
        assume(wake <= 2 * start)
        assert start + (wake - start) == wake
