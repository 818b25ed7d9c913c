"""Guest actions that sleep once per stage: the reference for
``_SimLine.execute_action``.

The line runs a guest action's four stages (build the ISO, connect it,
the guest daemon mounts it, the script runs) as four draws and one
wake.  These lines are the ones it replaced: each stage is its own
sleep, drawn when the stage before it ends.  On a run where no other
VM of the host draws between the stages (one plant, one create at a
time) every clock and every ``ActionResult.duration`` must agree bit
for bit.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.core.actions import Action, ActionResult, ActionScope, ActionStatus
from repro.plant.guest import fabricate_outputs, iso_size_mb, script_length
from repro.plant.production import VirtualMachine
from repro.sim.hypervisor import SimBackend, UMLLine, VMwareLine

__all__ = ["FourSleepUMLLine", "FourSleepVMwareLine"]


def _execute_action(
    self, vm: VirtualMachine, action: Action, context: Dict[str, str]
) -> Generator:
    lat = self.latency
    if self.hang_until > self.env.now:
        yield self.hang_until - self.env.now
    self._check_host()
    start = self.env.now
    jitter, prefix = self.rng.lognormal, self._prefix
    sigma = lat.op_jitter_sigma
    if action.scope is ActionScope.HOST:
        yield 0.3 * jitter(f"{prefix}host-op/{action.name}", 0.0, sigma)
    else:
        script_bytes = script_length(action, context)
        for base, stage in (
            (lat.iso_build_s, "iso-build"),
            (lat.iso_connect_s, "iso-connect"),
            (lat.guest_mount_s, "guest-mount"),
        ):
            yield base * jitter(prefix + stage, 0.0, sigma)
        yield lat.guest_script_mean_s * jitter(
            f"{prefix}script/{action.name}", 0.0, lat.script_jitter_sigma
        )
        backend: SimBackend = vm.backend
        backend.redo_mb += iso_size_mb(script_bytes) * 0.1 + 0.5

    draw = self.rng.uniform(f"{prefix}action-fail/{action.name}", 0.0, 1.0)
    duration = self.env.now - start
    if draw < self.action_failure_prob:
        return ActionResult(
            action=action.name,
            status=ActionStatus.FAILED,
            duration=duration,
            message="guest script returned non-zero exit status",
        )
    outputs = (
        tuple(sorted(fabricate_outputs(action, context).items()))
        if action.outputs
        else ()
    )
    return ActionResult(
        action=action.name,
        status=ActionStatus.OK,
        outputs=outputs,
        stdout="",
        duration=duration,
    )


class FourSleepVMwareLine(VMwareLine):
    execute_action = _execute_action


class FourSleepUMLLine(UMLLine):
    execute_action = _execute_action
