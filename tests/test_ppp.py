"""Unit tests for the Production Process Planner."""

import pytest

from repro.core.actions import Action, ActionStatus, ErrorPolicy
from repro.core.dag import ConfigDAG
from repro.core.errors import ConfigurationError, PlantError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.plant.infosys import VMInformationSystem
from repro.plant.ppp import ProductionOrder, ProductionProcessPlanner
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.sim.kernel import Environment

from tests.helpers import InstantLine, drive

OS = "testos"


def base_action():
    return Action("install-os", scope="host", command="install")


def make_dag(*extra_actions, handlers=()):
    """A chain from the base action through ``extra_actions``."""
    actions = [base_action(), *extra_actions]
    names = [action.name for action in actions]
    return ConfigDAG.from_edges(
        actions, list(zip(names, names[1:])), handlers
    )


def make_image(performed=None, image_id="img", mem=32):
    return GoldenImage(
        image_id=image_id,
        vm_type="vmware",
        os=OS,
        hardware=HardwareSpec(memory_mb=mem),
        performed=tuple([base_action()] if performed is None else performed),
        memory_state_mb=float(mem),
    )


def make_request(dag, mem=32, vm_type="vmware"):
    return CreateRequest(
        hardware=HardwareSpec(memory_mb=mem),
        software=SoftwareSpec(os=OS, dag=dag),
        network=NetworkSpec(domain="d"),
        client_id="tester",
        vm_type=vm_type,
    )


def make_ppp(env, line, images=None):
    warehouse = VMWarehouse(images or [make_image()])
    infosys = VMInformationSystem()
    return (
        ProductionProcessPlanner(env, warehouse, infosys, {"vmware": line}),
        infosys,
    )


class TestPlanning:
    def test_plan_picks_matching_image(self):
        env = Environment()
        ppp, _ = make_ppp(env, InstantLine(env))
        image, match, line = ppp.plan(request=make_request(make_dag()))
        assert image.image_id == "img"
        assert match.matches

    def test_plan_no_image_raises(self):
        env = Environment()
        ppp, _ = make_ppp(env, InstantLine(env))
        with pytest.raises(PlantError, match="no golden machine"):
            ppp.plan(request=make_request(make_dag(), mem=9999))

    def test_plan_requires_lines(self):
        env = Environment()
        with pytest.raises(ValueError):
            ProductionProcessPlanner(
                env, VMWarehouse(), VMInformationSystem(), {}
            )

    def test_plan_any_vm_type_prefers_deepest_prefix(self):
        env = Environment()
        line_vm = InstantLine(env, vm_type="vmware")
        line_uml = InstantLine(env, vm_type="uml")
        deep = GoldenImage(
            image_id="uml-deep", vm_type="uml", os=OS,
            hardware=HardwareSpec(memory_mb=32),
            performed=(base_action(), Action("extra")),
        )
        warehouse = VMWarehouse([make_image(), deep])
        ppp = ProductionProcessPlanner(
            env, warehouse, VMInformationSystem(),
            {"vmware": line_vm, "uml": line_uml},
        )
        dag = make_dag(Action("extra"))
        request = make_request(dag, vm_type=None)
        image, match, line = ppp.plan(request=request)
        assert image.image_id == "uml-deep"
        assert line is line_uml


class TestProduce:
    def test_happy_path_produces_running_vm(self):
        env = Environment()
        line = InstantLine(env, clone_time=10, action_time=2)
        ppp, infosys = make_ppp(env, line)
        dag = make_dag(Action("cfg-net", outputs=("ip",)),
                       Action("add-user"))
        order = ProductionOrder(
            "vm1", make_request(dag), context={"ip": "10.0.0.5"}
        )
        vm = drive(env, ppp.produce(order))
        assert vm.status.value == "running"
        assert vm.classad["clone_time"] == pytest.approx(10.0)
        assert vm.classad["config_time"] == pytest.approx(4.0)
        assert vm.classad["ip"] == "10.0.0.5"
        assert vm.classad["actions_cached"] == 1
        assert vm.classad["actions_executed"] == 2
        assert infosys.get("vm1") is vm
        assert line.executed == ["cfg-net", "add-user"]

    def test_cached_actions_marked(self):
        env = Environment()
        ppp, _ = make_ppp(env, InstantLine(env))
        vm = drive(
            env,
            ppp.produce(ProductionOrder("vm1", make_request(make_dag()))),
        )
        assert vm.results[0].status is ActionStatus.CACHED
        assert [a.name for a in vm.performed_actions] == ["install-os"]

    def test_residual_runs_in_topological_order(self):
        env = Environment()
        line = InstantLine(env)
        ppp, _ = make_ppp(env, line)
        dag = ConfigDAG.from_edges(
            [base_action(), Action("z-last"), Action("a-first")],
            [
                ("install-os", "z-last"),
                ("install-os", "a-first"),
                ("a-first", "z-last"),
            ],
        )
        drive(env, ppp.produce(ProductionOrder("vm1", make_request(dag))))
        assert line.executed == ["a-first", "z-last"]

    def test_clone_failure_propagates(self):
        env = Environment()
        line = InstantLine(env, fail_clones=1)
        ppp, infosys = make_ppp(env, line)
        with pytest.raises(PlantError):
            drive(
                env,
                ppp.produce(
                    ProductionOrder("vm1", make_request(make_dag()))
                ),
            )
        assert len(infosys) == 0

    def test_fail_policy_aborts_and_collects(self):
        env = Environment()
        line = InstantLine(env, fail_actions={"bad"})
        ppp, infosys = make_ppp(env, line)
        dag = make_dag(Action("bad"), Action("never-runs"))
        with pytest.raises(ConfigurationError, match="bad"):
            drive(
                env,
                ppp.produce(ProductionOrder("vm1", make_request(dag))),
            )
        assert "never-runs" not in line.executed
        assert line.collected == ["vm1"]
        assert len(infosys) == 0

    def test_ignore_policy_continues(self):
        env = Environment()
        line = InstantLine(env, fail_actions={"flaky"})
        ppp, _ = make_ppp(env, line)
        dag = make_dag(
            Action("flaky", on_error=ErrorPolicy.IGNORE),
            Action("after"),
        )
        vm = drive(
            env, ppp.produce(ProductionOrder("vm1", make_request(dag)))
        )
        assert vm.status.value == "running"
        statuses = {r.action: r.status for r in vm.results}
        assert statuses["flaky"] is ActionStatus.FAILED
        assert statuses["after"] is ActionStatus.OK
        # Failed actions are not recorded as performed.
        assert "flaky" not in [a.name for a in vm.performed_actions]

    def test_retry_policy_retries_until_success(self):
        env = Environment()
        line = InstantLine(
            env, fail_actions={"flaky"}, fail_action_times=2
        )
        ppp, _ = make_ppp(env, line)
        dag = make_dag(
            Action("flaky", on_error=ErrorPolicy.RETRY, retries=3)
        )
        vm = drive(
            env, ppp.produce(ProductionOrder("vm1", make_request(dag)))
        )
        flaky = next(r for r in vm.results if r.action == "flaky")
        assert flaky.ok
        assert flaky.attempts == 3
        assert line.executed.count("flaky") == 3

    def test_retry_policy_exhausts_budget_then_fails(self):
        env = Environment()
        line = InstantLine(env, fail_actions={"flaky"})
        ppp, _ = make_ppp(env, line)
        dag = make_dag(
            Action("flaky", on_error=ErrorPolicy.RETRY, retries=2)
        )
        with pytest.raises(ConfigurationError):
            drive(
                env,
                ppp.produce(ProductionOrder("vm1", make_request(dag))),
            )
        assert line.executed.count("flaky") == 3  # 1 + 2 retries

    def test_handler_policy_runs_subgraph_and_continues(self):
        env = Environment()
        line = InstantLine(env, fail_actions={"fragile"})
        ppp, _ = make_ppp(env, line)
        handler = ConfigDAG.from_sequence(
            [Action("diagnose"), Action("repair")]
        )
        dag = make_dag(
            Action("fragile", on_error=ErrorPolicy.HANDLER),
            Action("after"),
            handlers=[("fragile", handler)],
        )
        vm = drive(
            env, ppp.produce(ProductionOrder("vm1", make_request(dag)))
        )
        assert vm.status.value == "running"
        assert line.executed == ["fragile", "diagnose", "repair", "after"]

    def test_handler_policy_without_handler_fails(self):
        env = Environment()
        line = InstantLine(env, fail_actions={"fragile"})
        ppp, _ = make_ppp(env, line)
        dag = make_dag(Action("fragile", on_error=ErrorPolicy.HANDLER))
        with pytest.raises(ConfigurationError, match="no handler"):
            drive(
                env,
                ppp.produce(ProductionOrder("vm1", make_request(dag))),
            )

    def test_failing_handler_aborts(self):
        env = Environment()
        line = InstantLine(env, fail_actions={"fragile", "repair"})
        ppp, _ = make_ppp(env, line)
        handler = ConfigDAG.from_sequence([Action("repair")])
        dag = make_dag(
            Action("fragile", on_error=ErrorPolicy.HANDLER),
            handlers=[("fragile", handler)],
        )
        with pytest.raises(ConfigurationError, match="error handler"):
            drive(
                env,
                ppp.produce(ProductionOrder("vm1", make_request(dag))),
            )
        assert line.collected == ["vm1"]

    def test_duplicate_vmid_rejected_by_infosys(self):
        env = Environment()
        ppp, _ = make_ppp(env, InstantLine(env))
        drive(
            env,
            ppp.produce(ProductionOrder("vm1", make_request(make_dag()))),
        )
        with pytest.raises(PlantError):
            drive(
                env,
                ppp.produce(
                    ProductionOrder("vm1", make_request(make_dag()))
                ),
            )
