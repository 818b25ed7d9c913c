"""Tests for the VM information system, monitor and guest mechanics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action, ActionResult, ActionStatus
from repro.core.errors import PlantError
from repro.core.spec import CreateRequest, HardwareSpec, SoftwareSpec
from repro.plant.guest import (
    OUTPUT_MARKER,
    build_iso,
    fabricate_outputs,
    iso_size_mb,
    parse_outputs,
    render_script,
    script_length,
)
from repro.plant.infosys import VMInformationSystem
from repro.plant.monitor import VMMonitor
from repro.plant.production import VirtualMachine, VMStatus
from repro.plant.warehouse import GoldenImage
from repro.sim.kernel import Environment


def make_vm(vmid="vm1", mem=32):
    image = GoldenImage(
        image_id="img", vm_type="vmware", os="os",
        hardware=HardwareSpec(memory_mb=mem),
    )
    request = CreateRequest(
        hardware=HardwareSpec(memory_mb=mem),
        software=SoftwareSpec(os="os"),
    )
    return VirtualMachine(
        vmid=vmid, image=image, request=request, vm_type="vmware"
    )


class TestInfosys:
    def test_store_get_remove(self):
        info = VMInformationSystem()
        vm = make_vm()
        info.store(vm)
        assert info.get("vm1") is vm
        assert len(info) == 1
        assert info.remove("vm1") is vm
        with pytest.raises(PlantError):
            info.get("vm1")

    def test_duplicate_store_rejected(self):
        info = VMInformationSystem()
        info.store(make_vm())
        with pytest.raises(PlantError):
            info.store(make_vm())

    def test_query_full_is_a_copy(self):
        info = VMInformationSystem()
        vm = make_vm()
        vm.classad["a"] = 1
        info.store(vm)
        ad = info.query("vm1")
        ad["a"] = 99
        assert vm.classad["a"] == 1

    def test_query_projection_includes_undefined(self):
        info = VMInformationSystem()
        info.store(make_vm())
        ad = info.query("vm1", attributes=("ghost",))
        assert ad.get("ghost") is None

    def test_update_merges(self):
        info = VMInformationSystem()
        info.store(make_vm())
        info.update("vm1", {"status": "running", "uptime": 5.0})
        assert info.query("vm1")["uptime"] == 5.0

    def test_total_guest_memory(self):
        info = VMInformationSystem()
        info.store(make_vm("a", mem=64))
        info.store(make_vm("b", mem=256))
        assert info.guest_memory_mb == 320

    def test_active_in_registration_order(self):
        info = VMInformationSystem()
        for name in ("z", "a", "m"):
            info.store(make_vm(name))
        assert [vm.vmid for vm in info.active()] == ["z", "a", "m"]


class TestMonitor:
    def test_periodic_sweeps_update_classads(self):
        env = Environment()
        info = VMInformationSystem()
        vm = make_vm()
        vm.status = VMStatus.RUNNING
        vm.classad["created_at"] = 0.0
        info.store(vm)
        monitor = VMMonitor(env, info, period=10.0)
        monitor.start()
        env.run(until=35)
        assert monitor.sweeps == 3
        assert vm.classad["uptime"] == pytest.approx(30.0)
        assert vm.classad["status"] == "running"

    def test_stop_halts_sweeping(self):
        env = Environment()
        info = VMInformationSystem()
        monitor = VMMonitor(env, info, period=5.0)
        monitor.start()
        env.run(until=12)
        monitor.stop()
        env.run(until=50)
        assert monitor.sweeps == 2

    def test_start_idempotent(self):
        env = Environment()
        monitor = VMMonitor(env, VMInformationSystem(), period=5.0)
        p1 = monitor.start()
        p2 = monitor.start()
        assert p1 is p2

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            VMMonitor(Environment(), VMInformationSystem(), period=0)

    def test_counts_actions_completed(self):
        env = Environment()
        info = VMInformationSystem()
        vm = make_vm()
        vm.record(ActionResult("a", ActionStatus.OK))
        info.store(vm)
        monitor = VMMonitor(env, info)
        monitor.sweep()
        assert vm.classad["actions_completed"] == 1


class TestGuestMechanics:
    def test_render_script_exports_context(self):
        action = Action("cfg", command="echo hi")
        script = render_script(action, {"vmid": "vm1", "ip": "10.0.0.2"})
        assert "export VMPLANT_VMID=vm1" in script
        assert "export VMPLANT_IP=10.0.0.2" in script
        assert "echo hi" in script
        assert script.startswith("#!/bin/sh")

    def test_render_script_quotes_values(self):
        action = Action("cfg", command=":")
        script = render_script(action, {"name": "a b; rm -rf /"})
        assert "'a b; rm -rf /'" in script

    def test_render_script_emits_context_outputs(self):
        action = Action("cfg", command=":", outputs=("ip",))
        script = render_script(action, {"ip": "10.0.0.2"})
        assert f"{OUTPUT_MARKER} ip=" in script

    def test_build_iso_contains_script(self):
        action = Action("setup-user", command="useradd x")
        iso = build_iso(action, {})
        files = dict(iso.files)
        assert "scripts/setup-user.sh" in files
        assert "useradd x" in files["scripts/setup-user.sh"]
        # ISO9660 overhead on top of the payload.
        assert iso_size_mb(len(files["scripts/setup-user.sh"])) > 0.35

    def test_parse_outputs_honours_declared_only(self):
        action = Action("a", outputs=("ip", "port"))
        stdout = "\n".join(
            [
                "noise",
                f"{OUTPUT_MARKER} ip=10.0.0.2",
                f"{OUTPUT_MARKER} secret=shh",
                f"{OUTPUT_MARKER} port = 5901",
                f"{OUTPUT_MARKER} malformed-line",
            ]
        )
        outputs = parse_outputs(stdout, action)
        assert outputs == {"ip": "10.0.0.2", "port": "5901"}

    def test_fabricate_outputs_prefers_context(self):
        action = Action("a", outputs=("ip", "token"))
        outputs = fabricate_outputs(action, {"ip": "1.2.3.4",
                                             "vmid": "vm9"})
        assert outputs == {"ip": "1.2.3.4", "token": "token-vm9"}


# ``ß`` and ``ﬁ`` grow under ``upper()``; the values hold every class
# ``shlex.quote`` tells apart: empty, safe, unsafe, with single quotes.
_KEYS = st.text("abzAZ_09ßﬁé", min_size=1, max_size=6)
_VALUES = st.one_of(
    st.text("aZ09_@%+=:,./- '\"$;\\\nßé", max_size=8),
    st.integers(-5, 500),
)
_COMMANDS = (
    "",
    "plain-command --flag",
    "useradd {user}",
    "echo ${HOME} {user} {n}",
    "awk '{print $1}' /etc/{user}",
)


@st.composite
def _actions_and_contexts(draw):
    context = draw(st.dictionaries(_KEYS, _VALUES, max_size=5))
    names = sorted(context) + ["not-in-context"]
    action = Action(
        draw(st.sampled_from(["cfg", "install-vnc"])),
        command=draw(st.sampled_from(_COMMANDS)),
        params={"user": draw(st.text(max_size=6)), "n": draw(st.integers())},
        outputs=tuple(draw(st.lists(st.sampled_from(names), max_size=4))),
    )
    return action, context


class TestScriptLength:
    """The simulated lines size an ISO by :func:`script_length`; only
    the local line renders the script.  Both must agree to the byte:
    the length feeds ``redo_mb`` and, through it, migration time."""

    @given(_actions_and_contexts())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_rendered_length(self, case):
        action, context = case
        assert script_length(action, context) == len(
            render_script(action, context)
        )

    @pytest.mark.parametrize(
        "context",
        [
            {},
            {"ip": ""},
            {"straße": "o'brien"},
            {"ip": "10.0.0.2", "vmid": "vm1", "name": "a b; rm -rf /"},
        ],
    )
    def test_examples(self, context):
        action = Action(
            "cfg", command="useradd {user} ${HOME}",
            params={"user": "x y"}, outputs=("ip", "ip", "token"),
        )
        assert script_length(action, context) == len(
            render_script(action, context)
        )
