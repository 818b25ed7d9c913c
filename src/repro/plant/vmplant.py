"""The VMPlant daemon: services of Figure 2 wired together.

A plant runs on one physical resource and exposes four services to
the shop: **create**, **query**, **destroy** (collect), and
**estimate** (the cost-bidding hook).  Internally it owns a PPP, the
(site-shared) warehouse handle, its production lines, a VM information
system with run-time monitor, and the host-only network pool used for
VNET-style isolation.

``create`` and ``destroy`` are simulation-kernel process generators;
``query`` and ``estimate`` are immediate (the transport layer charges
their latency).
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Mapping, Optional

from repro.core.classad import UNDEFINED, ClassAd, Expression, equality_key
from repro.core.dag import ConfigDAG
from repro.core.errors import PlantError, VNetError
from repro.core.matching import match_performed
from repro.core.spec import CreateRequest
from repro.cost.models import CostModel, MemoryAvailableCost
from repro.plant.infosys import VMInformationSystem
from repro.plant.monitor import VMMonitor
from repro.plant.ppp import ProductionOrder, ProductionProcessPlanner
from repro.plant.production import (
    CloneMode,
    ProductionLine,
    VirtualMachine,
    VMStatus,
)
from repro.plant.warehouse import VMWarehouse
from repro.sim.kernel import Environment
from repro.sim.trace import trace
from repro.vnet.hostonly import HostOnlyNetworkPool
from repro.vnet.vnetd import VirtualNetworkService, VNetProxy, VNetServer

__all__ = ["VMPlant"]


class VMPlant:
    """One plant daemon."""

    def __init__(
        self,
        env: Environment,
        name: str,
        warehouse: VMWarehouse,
        lines: Mapping[str, ProductionLine],
        cost_model: Optional[CostModel] = None,
        host_memory_mb: int = 1536,
        max_vms: Optional[int] = None,
        network_pool: Optional[HostOnlyNetworkPool] = None,
        vnet_service: Optional[VirtualNetworkService] = None,
    ):
        self.env = env
        self.name = name
        self.warehouse = warehouse
        self.lines: Dict[str, ProductionLine] = dict(lines)
        self.cost_model = cost_model or MemoryAvailableCost()
        #: Physical memory available to the VMM on this host.
        self.host_memory_mb = host_memory_mb
        #: Maximum concurrent VMs (None = unbounded).
        self.max_vms = max_vms
        self.network_pool = network_pool or HostOnlyNetworkPool(name)
        self.vnet_service = vnet_service
        self.infosys = VMInformationSystem()
        #: Optional AdaptiveSpeculativePool serving creates from
        #: pre-warmed clones (duck-typed to avoid a circular import).
        self.speculative = None
        #: Crash state (fault injection): a down plant's host is
        #: gone — resident VMs died, and remote calls hang until
        #: recovery (see :meth:`fail` / :meth:`recover`).
        self.down = False
        self._up_event = None
        self.ppp = ProductionProcessPlanner(
            env, warehouse, self.infosys, self.lines
        )
        self.monitor = VMMonitor(env, self.infosys)
        #: description_ad memo: (infosys.version, pool.version) → ad.
        self._description_memo: Optional[tuple] = None
        #: The hosts whose committed memory the lines' ``can_host``
        #: reads, each once, and the last bid as (key, cost); see
        #: :meth:`estimate`.
        self._admission_hosts = tuple(
            dict.fromkeys(
                line.host
                for line in self.lines.values()
                if line.host is not None
            )
        )
        self._bid_memo: tuple = (None, None)
        if vnet_service is not None:
            vnet_service.register_server(
                VNetServer(plant_name=name, host=name)
            )

    def active_vm_count(self) -> int:
        """VMs currently operating on the plant."""
        return len(self.infosys.vms)

    # -- services ------------------------------------------------------------
    def description_ad(self) -> ClassAd:
        """This plant's matchmaking description (registry/bidding).

        Memoized against the infosys/network-pool mutation counters:
        every derived attribute (``committed_mb``, ``active_vms``,
        ``networks_free``) changes only when one of them ticks, so the
        same ad answers every bid between mutations.  Callers must
        treat the returned ad as read-only (``copy()`` to mutate).
        """
        key = (self.infosys.version, self.network_pool.version)
        memo = self._description_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        ad = ClassAd(
            {
                "name": self.name,
                "kind": "vmplant",
                "vm_types": sorted(self.lines),
                "host_memory_mb": self.host_memory_mb,
                "committed_mb": self.infosys.guest_memory_mb,
                "active_vms": len(self.infosys.vms),
                "networks_free": self.network_pool.free_count,
                "max_vms": (
                    self.max_vms if self.max_vms is not None else -1
                ),
            }
        )
        self._description_memo = (key, ad)
        return ad

    def estimate(self, request: CreateRequest) -> Optional[float]:
        """Bid for a creation request (None = declined).

        A plant declines when it lacks the requested technology, no
        production line can host the request, no warehouse image
        matches it, the request's matchmaking ``requirements``
        expression rejects this plant's description ad, it is at its
        VM cap or has no switch for the request's domain, or the cost
        model refuses.

        Everything but the crash test and the pool discount is
        a pure function of the request's shape and the plant's state,
        so the last answer is kept under both and a repeat bid returns
        it without planning.  A request with ``requirements`` (whose
        expression may read any request attribute) or with a DAG not
        yet fingerprinted is answered afresh and not kept.
        """
        if self.down:
            return None
        vm_type = request.vm_type
        if vm_type is not None and vm_type not in self.lines:
            return None
        key = None
        if request.requirements is None:
            software = request.software
            fingerprint = software.dag.sealed_fingerprint
            if fingerprint is not None:
                hardware = request.hardware
                key = (
                    fingerprint,
                    hardware.isa,
                    hardware.memory_mb,
                    hardware.disk_gb,
                    hardware.cpus,
                    software.os,
                    vm_type,
                    request.network.domain,
                    self.infosys.version,
                    self.network_pool.version,
                    self.warehouse.generation,
                    self.cost_model,
                    self.max_vms,
                    self.host_memory_mb,
                )
                for host in self._admission_hosts:
                    key += (host.committed_guest_mb,)
        else:
            description = self.description_ad()
            # The request's memoized ad holds the interned expression.
            ad = request.to_classad()
            # Fast reject: any ``other.attr == literal`` conjunct of
            # the requirements that provably fails against a concrete
            # description value means the conjunction cannot be True —
            # decline without running the full match.
            attrs = description._attrs
            for attr, scope_kind, wanted in ad._attrs[
                "requirements"
            ].equality_constraints:
                if scope_kind != "other":
                    continue
                raw = attrs.get(attr, UNDEFINED)
                if not isinstance(raw, Expression) and (
                    equality_key(raw) != wanted
                ):
                    return None
            if not ad.matches(description):
                return None
        memo = self._bid_memo
        if key is not None and memo[0] == key:
            cost = memo[1]
        else:
            cost = None
            # "No production line can host the request" is decided
            # inside plan(), line by line, and surfaces as its
            # PlantError.
            try:
                self.ppp.plan(request=request)
            except PlantError:
                pass
            else:
                # Admission (after plan, whose warehouse query counts
                # demand).
                max_vms = self.max_vms
                if (
                    max_vms is None or len(self.infosys.vms) < max_vms
                ) and self.network_pool.has_capacity_for(
                    request.network.domain
                ):
                    cost = self.cost_model.estimate(self, request)
            if key is not None:
                self._bid_memo = (key, cost)
        if (
            cost is not None
            and self.speculative is not None
            and self.speculative.available(request)
        ):
            # A pooled clone serves this request by extension alone —
            # quote the cheaper path so the shop prefers warm plants.
            cost *= self.speculative.bid_discount
        return cost

    def estimate_proc(self, request: CreateRequest):
        """Transport-driven estimate: hangs while the plant is down.

        A healthy plant answers with the bid itself, as :meth:`estimate`
        does.  A crashed plant's remote estimate call never returns
        until the host is back (the shop's ``bid_deadline_s`` is what
        bounds the wait): it gets a generator that parks on the
        plant's up-event and bids once the host has recovered.
        """
        if self.down:
            return self._estimate_when_up(request)
        return self.estimate(request)

    def _estimate_when_up(self, request: CreateRequest) -> Generator:
        while self.down:
            yield self._up_event
        return self.estimate(request)

    def create(
        self,
        request: CreateRequest,
        vmid: str,
        clone_mode: Optional[CloneMode] = None,
    ) -> Generator:
        """Produce a VM; returns a copy of its classad.

        The paper's creation pipeline: admission → host-only network
        attach → (optional) VNET bridge setup → PPP clone+configure.
        Failures unwind the network state before re-raising.  With a
        speculative pool attached, a compatible pre-warmed clone is
        adopted and extended instead — it already holds network and
        memory resources, so the capacity check is skipped.
        """
        if self.down:
            raise PlantError(f"plant {self.name}: host is down")
        if self.speculative is not None:
            ad = yield self.speculative.acquire(request, vmid)
            if ad is not None:
                trace(
                    self.env,
                    "plant",
                    "pool-hit",
                    plant=self.name,
                    vmid=vmid,
                )
                return ad
        if self.max_vms is not None and len(self.infosys) >= self.max_vms:
            raise PlantError(f"plant {self.name}: at VM capacity")
        domain = request.network.domain
        assignment = self.network_pool.attach(domain, vmid)

        bridged = self._bridge(request, assignment)
        context = {
            "ip": assignment.ip_address,
            "network_id": assignment.network_id,
            "plant": self.name,
        }
        order = ProductionOrder(
            vmid=vmid,
            request=request,
            clone_mode=clone_mode or CloneMode.LINK,
            context=context,
        )
        try:
            vm: VirtualMachine = yield self.ppp.produce(order)
        except Exception:
            self._unplug(vmid, domain, bridged)
            raise

        vm.bridged = bridged
        ad = vm.classad
        ad.update(
            {
                "plant": self.name,
                "network_id": assignment.network_id,
                "ip": assignment.ip_address,
                "network_fresh": assignment.fresh_allocation,
            }
        )
        return ad.copy()

    def attach_speculative(self, manager) -> None:
        """Attach an adaptive speculative-pool manager to this plant."""
        self.speculative = manager

    def rename_vm(self, old: str, new: str) -> VirtualMachine:
        """Re-register a live VM under a new vmid (pool adoption)."""
        vm = self.infosys.rename(old, new)
        vm.classad["vmid"] = new
        self.network_pool.rename(old, new)
        return vm

    def query(self, vmid: str, attributes: Iterable[str] = ()) -> ClassAd:
        """Classad (or projection) of an active VM."""
        return self.infosys.query(vmid, attributes)

    def extend(
        self,
        vmid: str,
        dag: ConfigDAG,
        context: Optional[Dict[str, str]] = None,
    ) -> Generator:
        """Apply additional configuration to a *running* VM.

        ``dag`` describes the desired total configuration; the actions
        already performed on the VM must form a valid prefix of it
        (the same Section 3.2 criterion used for golden images).  The
        residual actions are executed and the VM's classad updated —
        this is the workflow that lets a user install applications
        into a live workspace and later publish it via
        ``destroy(commit=True)``.
        """
        vm = self.infosys.get(vmid)
        line = self.lines[vm.vm_type]
        if match_performed(vm.performed_actions, dag) is not None:
            raise PlantError(
                f"VM {vmid!r} state conflicts with the extension DAG"
            )
        residual = dag.residual_after(
            [a.name for a in vm.performed_actions]
        )
        ctx = {
            "vmid": vmid,
            "client": vm.request.client_id,
            "plant": self.name,
        }
        ctx.update(context or {})
        start = self.env.now
        yield self.ppp.run_actions(vm, line, dag, residual, ctx)
        vm.classad["extended_at"] = self.env.now
        vm.classad["extend_time"] = self.env.now - start
        return vm.classad.copy()

    def destroy(
        self,
        vmid: str,
        commit: bool = False,
        publish_as: Optional[str] = None,
    ) -> Generator:
        """Collect a VM; optionally publish its state as a new image.

        With ``commit=True`` the redo-log changes are committed and a
        derived golden image — the original plus the actions executed
        on this instance — is published under ``publish_as``, enabling
        the paper's install-once-instantiate-many workflow.
        """
        vm = self.infosys.get(vmid)
        line = self.lines[vm.vm_type]
        if commit:
            publish_id = publish_as or f"{vm.image.image_id}+{vmid}"
            base = len(vm.image.performed)
            executed = vm.performed_actions[base:]
            self.warehouse.publish(
                vm.image.with_performed(executed, image_id=publish_id)
            )
        yield line.collect(vm)
        vm.status = VMStatus.COLLECTED
        vm.classad["status"] = vm.status._value_
        vm.classad["collected_at"] = self.env.now
        self.infosys.remove(vmid)
        self._unplug(vmid, vm.request.network.domain, vm.bridged)
        return vm.classad.copy()

    def _bridge(self, request: CreateRequest, assignment) -> bool:
        """Bridge ``assignment``'s network to the client's domain when
        the request asks for VNET; returns whether it did."""
        network = request.network
        if self.vnet_service is None or not network.wants_vnet:
            return False
        proxy = VNetProxy(
            domain=network.domain,
            host=network.proxy_host or "",
            port=network.proxy_port or 0,
            credentials=network.credentials,
        )
        self.vnet_service.setup_bridge(
            self.name, assignment.network_id, proxy
        )
        return True

    def _unplug(self, vmid: str, domain: str, bridged: bool) -> None:
        """Detach ``vmid``'s lease and drop its bridge reference.

        Every way off the plant ends here: collection, a kill,
        migration out, and a create that unwinds.
        """
        self.network_pool.detach(vmid)
        if bridged:
            try:
                self.vnet_service.teardown_bridge(self.name, domain)
            except VNetError:
                pass  # bridge already gone (shared teardown)

    def kill_vm(self, vmid: str) -> VirtualMachine:
        """Synchronously destroy a VM without the graceful collect.

        The crash/orphan path: release host memory, drop the classad,
        detach the network lease and tear down any bridge — no
        simulated time passes (the VM died, nobody powers it off).
        """
        vm = self.infosys.get(vmid)
        line = self.lines[vm.vm_type]
        line.abort(vm)
        vm.status = VMStatus.FAILED
        vm.classad["status"] = vm.status._value_
        self.infosys.remove(vmid)
        self._unplug(vmid, vm.request.network.domain, vm.bridged)
        trace(
            self.env, "plant", "vm-killed",
            plant=self.name, vmid=vmid,
        )
        return vm

    def abort_creation(self, vmid: str) -> List[str]:
        """Assert-and-release any partial creation state under ``vmid``.

        The shop calls this after a failed or deadline-aborted create
        so a fallthrough to the next bidder cannot leak the loser's
        network lease, host memory or infosys entry.  Idempotent and
        synchronous; returns the resource classes actually released
        (empty = the normal failure unwinding already cleaned up).
        """
        released: List[str] = []
        vm, line = self.ppp.abort_inflight(vmid)
        if vm is not None:
            if line.abort(vm):
                released.append("memory")
            released.append("production")
        if vmid in self.infosys:
            # The create finished plant-side but the response was
            # lost (deadline fired mid-reply): kill the orphan.
            self.kill_vm(vmid)
            released.append("vm")
        # An in-flight create's own unwinding dropped its bridge; only
        # a lease can be left here.
        if self.network_pool.detach(vmid):
            released.append("network")
        if released:
            trace(
                self.env, "plant", "abort-creation",
                plant=self.name, vmid=vmid,
                released=",".join(released),
            )
        return released

    # -- fault injection -----------------------------------------------------
    def fail(self) -> int:
        """Crash this plant's host (fault injection).

        Resident VMs die instantly (memory released, leases detached),
        the host's golden-state caches and speculative pools are
        invalidated, and the plant stops bidding until
        :meth:`recover`.  Returns the number of VMs killed.
        """
        if self.down:
            return 0
        self.down = True
        self._up_event = self.env.event()
        killed = 0
        for vm in list(self.infosys.active()):
            self.kill_vm(vm.vmid)
            killed += 1
        for line in self.lines.values():
            line.host_crashed()
        if self.speculative is not None:
            self.speculative.invalidate()
        trace(
            self.env, "plant", "crashed",
            plant=self.name, killed=killed,
        )
        return killed

    def recover(self) -> None:
        """Bring a crashed plant back into service."""
        if not self.down:
            return
        self.down = False
        for line in self.lines.values():
            line.host_recovered()
        up = self._up_event
        self._up_event = None
        if up is not None:
            up.succeed()
        trace(self.env, "plant", "recovered", plant=self.name)

    def handle_xml(self, request_xml: str, vmid: Optional[str] = None):
        """Dispatch one XML service request (the prototype's wire form).

        Returns a generator for create/destroy (they take simulated
        time) and an immediate value for query/estimate:

        * ``create`` → generator yielding the new VM's classad text;
        * ``estimate`` → the bid (float) or None;
        * ``query`` → classad text;
        * ``destroy`` → generator yielding the final classad text.

        ``vmid`` must be supplied for create (the shop assigns ids).
        """
        from repro.shop.protocol import service_request_from_xml

        service, request = service_request_from_xml(request_xml)
        if service == "create":
            if vmid is None:
                raise PlantError("create requires a shop-assigned vmid")

            def _create():
                ad = yield self.create(request, vmid)
                return ad.to_string()

            return _create()
        if service == "estimate":
            return self.estimate(request)
        if service == "query":
            return self.query(
                request.vmid, request.attributes
            ).to_string()
        if service == "destroy":

            def _destroy():
                ad = yield self.destroy(
                    request.vmid, request.commit, request.publish_as
                )
                return ad.to_string()

            return _destroy()
        raise PlantError(f"unsupported service {service!r}")

    # -- migration support (driven by plant.migration) -----------------------
    def begin_migration(self, vmid: str) -> VirtualMachine:
        """Validate and mark a VM as migrating out of this plant."""
        vm = self.infosys.get(vmid)
        if vm.status is not VMStatus.RUNNING:
            raise PlantError(
                f"VM {vmid!r} is {vm.status.value}, not running"
            )
        line = self.lines[vm.vm_type]
        if not line.supports_migration():
            raise PlantError(
                f"{vm.vm_type} line on {self.name} cannot migrate"
            )
        vm.status = VMStatus.MIGRATING
        return vm

    def complete_migration_out(self, vmid: str) -> None:
        """Drop all local state for a VM that migrated away."""
        vm = self.infosys.remove(vmid)
        self._unplug(vmid, vm.request.network.domain, vm.bridged)

    def adopt_migrated(self, vm: VirtualMachine, assignment) -> None:
        """Register a VM that migrated onto this plant, bridged back to
        its client's domain as a create here would be (Section 3.3)."""
        vm.status = VMStatus.RUNNING
        vm.bridged = self._bridge(vm.request, assignment)
        self.infosys.store(vm)
        ad = vm.classad
        ad["plant"] = self.name
        ad["network_id"] = assignment.network_id
        ad["ip"] = assignment.ip_address
        ad["status"] = vm.status._value_
