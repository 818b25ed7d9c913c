"""The Production Process Planner (PPP).

The PPP turns a *production order* (a creation request plus the plant
assigned identity) into a running VM (Figure 2): it searches the VM
Warehouse for a suitable golden machine using the Section 3.2 matching
criterion, asks the production line to clone it, then walks the
residual configuration DAG in topological order executing each action
with its error-node semantics:

* ``FAIL`` — abort production, collect the partial clone, raise;
* ``RETRY`` — re-run the action up to its retry budget;
* ``IGNORE`` — record the failure in the classad and continue;
* ``HANDLER`` — run the explicit error-handling sub-graph; if the
  handler completes, production continues, otherwise it aborts.

All orchestration methods are simulation-kernel process generators.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Mapping, Optional, Tuple

from repro.core.actions import (
    Action,
    ActionResult,
    ActionStatus,
    ErrorPolicy,
)
from repro.core.dag import ConfigDAG
from repro.core.errors import ConfigurationError, PlantError, ReproError
from repro.core.matching import MatchResult
from repro.core.spec import CreateRequest
from repro.plant.infosys import VMInformationSystem
from repro.plant.production import (
    CloneMode,
    ProductionLine,
    VirtualMachine,
    VMStatus,
)
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.sim.kernel import Environment, Interrupt
from repro.sim.trace import trace

__all__ = ["ProductionOrder", "ProductionProcessPlanner"]


class ProductionOrder:
    """One unit of work for the PPP."""

    __slots__ = ("vmid", "request", "clone_mode", "context")

    def __init__(
        self,
        vmid: str,
        request: CreateRequest,
        clone_mode: CloneMode = CloneMode.LINK,
        context: Optional[Dict[str, str]] = None,
    ):
        self.vmid = vmid
        self.request = request
        self.clone_mode = clone_mode
        #: Request-scoped values available to configuration scripts
        #: (client id, VNET-assigned IP, ...); the PPP adds ``vmid``.
        self.context = {} if context is None else context


class ProductionProcessPlanner:
    """Plans and drives VM production for one plant."""

    def __init__(
        self,
        env: Environment,
        warehouse: VMWarehouse,
        infosys: VMInformationSystem,
        lines: Mapping[str, ProductionLine],
    ):
        if not lines:
            raise ValueError("at least one production line is required")
        self.env = env
        self.warehouse = warehouse
        self.infosys = infosys
        self.lines = dict(lines)
        # Lines are fixed at construction; pre-sort the untyped-request
        # candidate order once instead of per plan() call.
        self._sorted_vm_types = sorted(self.lines)
        #: In-flight productions: vmid → (vm, line), registered for
        #: the clone+configure window so an abort can find and release
        #: partial state (:meth:`abort_inflight`).
        self._inflight: Dict[str, Tuple[VirtualMachine, ProductionLine]] = {}

    # -- planning ---------------------------------------------------------
    def plan(
        self, *, request: CreateRequest
    ) -> Tuple[GoldenImage, MatchResult, ProductionLine]:
        """Select the golden machine and production line for a request.

        Preference: the requested technology if given, otherwise every
        line is considered and the deepest matching prefix wins
        (ties broken by line name for determinism).

        Selection goes through the warehouse's match index and
        per-request memo, so the plants of a site bidding on one
        request evaluate the Section 3.2 criterion once.  A bid plans
        without an order: no vmid is assigned until the shop dispatches.
        The request is keyword-only because the end-to-end tracer
        (``benchmarks/e2e/trace.py``) reads a positional argument here
        as a production order; passed by keyword, it takes the request
        id of the span around it.
        """
        vm_types = (
            [request.vm_type]
            if request.vm_type is not None
            else self._sorted_vm_types
        )
        best: Optional[Tuple[int, str, GoldenImage, MatchResult, ProductionLine]]
        best = None
        for vm_type in vm_types:
            line = self.lines.get(vm_type)
            if line is None or not line.can_host(request):
                continue
            software = request.software
            image, result = self.warehouse.select(
                software.dag, request.hardware, software.os, vm_type
            )
            if image is None or result is None:
                continue
            # Deepest match first (MatchResult.depth, read inline: this
            # runs once per plant bid).
            key = (-len(result.satisfied), vm_type)
            if best is None or key < (best[0], best[1]):
                best = (key[0], key[1], image, result, line)
        if best is None:
            raise PlantError(
                f"no golden machine matches request for "
                f"{request.software.os!r} / {request.hardware.memory_mb}MB"
            )
        return best[2], best[3], best[4]

    # -- production ---------------------------------------------------------
    def produce(self, order: ProductionOrder) -> Generator:
        """Clone and configure a VM; returns the VirtualMachine.

        Raises :class:`PlantError` on clone failure and
        :class:`ConfigurationError` when a FAIL/HANDLER action aborts
        production.  In both cases the partial clone is collected.
        The production is registered in-flight for its whole duration
        so :meth:`abort_inflight` can release partial state.
        """
        request = order.request
        image, match, line = self.plan(request=request)
        vm = VirtualMachine(
            vmid=order.vmid,
            image=image,
            request=request,
            vm_type=line.vm_type,
        )
        # One ``update`` per block of the ad, in the key order that
        # ``to_string()`` and the fingerprints show.
        vm.classad.update(
            {
                "vmid": order.vmid,
                "client": request.client_id,
                "image_id": image.image_id,
                "vm_type": line.vm_type,
                "os": request.software.os,
                "memory_mb": request.hardware.memory_mb,
                "created_at": self.env.now,
                "clone_mode": order.clone_mode._value_,
            }
        )

        # Registered in-flight for the clone+configure window; one
        # frame owns both the registration and the phases.
        self._inflight[order.vmid] = (vm, line)
        try:
            ad = vm.classad
            # Phase 4 of Figure 3: clone the cached sub-graph.
            if self.env.tracer is not None:
                trace(
                    self.env, "ppp", "clone-start",
                    vmid=order.vmid, image=image.image_id,
                    cached=len(match.satisfied),
                    residual=len(match.residual),
                )
            clone_start = self.env.now
            try:
                yield line.clone(vm, order.clone_mode)
            except (ReproError, Interrupt):
                # The line's clone wrapper already released host memory.
                vm.status = VMStatus.FAILED
                raise
            ad["clone_time"] = self.env.now - clone_start
            if self.env.tracer is not None:
                trace(
                    self.env, "ppp", "clone-done",
                    vmid=order.vmid, seconds=self.env.now - clone_start,
                )

            for name in match.satisfied:
                vm.record(
                    ActionResult(action=name, status=ActionStatus.CACHED)
                )
            vm.performed_actions.extend(image.performed)

            # Phase 5: execute the residual sub-graph, with the
            # context built here, where it is first read: a create
            # parked at its clone holds none.
            vm.status = VMStatus.CONFIGURING
            config_start = self.env.now
            context = dict(order.context)
            context.setdefault("vmid", order.vmid)
            context.setdefault("client", request.client_id)
            context.setdefault("domain", request.network.domain)
            try:
                yield self.run_actions(
                    vm, line, request.dag, list(match.residual), context
                )
            except ConfigurationError:
                vm.status = VMStatus.FAILED
                yield line.collect(vm)
                raise
            except (ReproError, Interrupt):
                # Crash or deadline-interrupt mid-configuration: the clone
                # is running and holds host memory, but a graceful collect
                # is impossible (host down / caller gone) — release
                # synchronously.
                vm.status = VMStatus.FAILED
                line.abort(vm)
                raise
            vm.status = VMStatus.RUNNING
            now = self.env.now
            finished = {
                "config_time": now - config_start,
                "total_time": now - clone_start,
                "actions_cached": len(match.satisfied),
                "actions_executed": len(match.residual),
                "status": vm.status._value_,
            }
            if request.lease_s is not None:
                finished["lease_expires_at"] = now + request.lease_s
            ad.update(finished)
            self.infosys.store(vm)
            if self.env.tracer is not None:
                trace(
                    self.env, "ppp", "vm-running",
                    vmid=order.vmid, total=self.env.now - clone_start,
                )
            return vm
        finally:
            self._inflight.pop(order.vmid, None)

    def abort_inflight(self, vmid: str):
        """Release an in-flight production's partial state.

        Returns ``(vm, line)`` when a production was actually aborted
        (the caller decides what else to unwind), else ``(None,
        None)``.  Synchronous: marks the VM failed and releases any
        line-held memory exactly once.
        """
        entry = self._inflight.pop(vmid, None)
        if entry is None:
            return None, None
        vm, line = entry
        vm.status = VMStatus.FAILED
        line.abort(vm)
        return vm, line

    def run_actions(
        self,
        vm: VirtualMachine,
        line: ProductionLine,
        dag: ConfigDAG,
        names: List[str],
        context: Dict[str, str],
    ) -> Generator:
        """Execute ``names`` (already topologically ordered)."""
        for name in names:
            action = dag.action(name)
            result = yield self._run_one(vm, line, action, context)
            if result.ok:
                vm.record(result)
                vm.performed_actions.append(action)
                continue
            policy = action.on_error
            if policy is ErrorPolicy.IGNORE:
                vm.record(result)
                continue
            if policy is ErrorPolicy.HANDLER:
                handler = dag.handler_for(name)
                if handler is None:
                    vm.record(result)
                    raise ConfigurationError(
                        name,
                        "failed with HANDLER policy but no handler attached",
                        vm.results,
                    )
                vm.record(result)
                yield self._run_handler(vm, line, handler, name, context)
                continue
            # FAIL (and RETRY that exhausted its budget inside _run_one).
            vm.record(result)
            raise ConfigurationError(
                name, result.message or "action failed", vm.results
            )

    def _run_one(
        self,
        vm: VirtualMachine,
        line: ProductionLine,
        action: Action,
        context: Dict[str, str],
    ) -> Generator:
        """One action with its retry budget applied."""
        budget = action.retries if action.on_error is ErrorPolicy.RETRY else 0
        attempts = 0
        while True:
            attempts += 1
            result: ActionResult = yield line.execute_action(
                vm, action, context
            )
            if result.ok or attempts > budget:
                if attempts > 1:
                    result = ActionResult(
                        action=result.action,
                        status=result.status,
                        outputs=result.outputs,
                        stdout=result.stdout,
                        duration=result.duration,
                        attempts=attempts,
                        message=result.message,
                    )
                return result

    def _run_handler(
        self,
        vm: VirtualMachine,
        line: ProductionLine,
        handler: ConfigDAG,
        failed_action: str,
        context: Dict[str, str],
    ) -> Generator:
        """Run an explicit error-handling sub-graph.

        Handler actions execute with ``failed_action`` added to the
        context; a failure inside the handler aborts production.
        """
        handler_context = dict(context)
        handler_context["failed_action"] = failed_action
        for name in handler.topological_sort():
            action = handler.action(name)
            result = yield self._run_one(
                vm, line, action, handler_context
            )
            vm.record(result)
            if result.ok:
                vm.performed_actions.append(action)
            if not result.ok and action.on_error is not ErrorPolicy.IGNORE:
                raise ConfigurationError(
                    name,
                    f"error handler for {failed_action!r} failed",
                    vm.results,
                )
