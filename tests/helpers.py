"""Shared test fixtures: a deterministic instant production line, the
two-pass wire codec, the process-per-bid kernel dispatch and the
keep-every-generator random hub kept as references, and the Python-call,
retained-byte and cyclic-garbage counters of the budget tests.

``InstantLine`` implements the ProductionLine interface with constant,
configurable behaviour so PPP/plant/shop logic can be tested without
the simulated hypervisor's stochastic timing.

``oracle_*`` is the request codec as it stood before it became one
pass each way (serialise, re-parse, set ``service``, serialise again;
parse, serialise, parse again, ``root.find`` the parts, a fresh DAG per
request) and before the encoder became a direct string writer
(``oracle_dag_to_element`` is the ElementTree encoder that ``src/`` no
longer holds).  ``tests/test_wire_codec.py`` holds the live codec to
its wire bytes, decoded requests and error messages.

``OracleProcess`` / ``oracle_collect`` are the kernel process (a
``lambda`` per wait, stale wake-ups told apart by a generation number)
and the bid round (one process per bidder, joined by ``AllOf``) as they
stood before dispatch became one call per wake-up and the fan-out
callback-driven.  ``oracle_gather`` is that callback-driven fan-out as
it stood while every answer still travelled back on a timer of its
own.  ``tests/test_kernel.py`` and ``tests/test_shop.py`` hold the live
code to their event logs, bids and stream states.

``oracle_rng_hub`` is ``RngHub`` as it stood while it kept a
``random.Random`` for every name it had ever seen;
``tests/test_rng.py`` holds the live hub to its draws and stream states.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import random
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from functools import partial
from math import exp
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.actions import Action, ActionResult, ActionStatus
from repro.core.dag import ConfigDAG
from repro.core.dagxml import _require, dag_from_element
from repro.core.errors import PlantError, ProtocolError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.plant.guest import fabricate_outputs
from repro.plant.production import CloneMode, ProductionLine, VirtualMachine
from repro.shop.bidding import Bid, BidCollector
from repro.sim.kernel import (
    PRIORITY_URGENT,
    Environment,
    Event,
    Initialize,
    Interrupt,
    SimulationError,
    Timeout,
    _defuse,
)


class InstantLine(ProductionLine):
    """Production line with fixed costs and scriptable failures."""

    vm_type = "vmware"

    def __init__(
        self,
        env: Environment,
        clone_time: float = 10.0,
        action_time: float = 2.0,
        fail_clones: int = 0,
        fail_actions: Optional[Set[str]] = None,
        fail_action_times: int = 10 ** 9,
        vm_type: str = "vmware",
    ):
        self.env = env
        self.clone_time = clone_time
        self.action_time = action_time
        self.fail_clones = fail_clones
        self.fail_actions = set(fail_actions or ())
        #: How many times a failing action fails before succeeding.
        self.fail_action_times = fail_action_times
        self.vm_type = vm_type
        self.cloned: List[str] = []
        self.collected: List[str] = []
        self.executed: List[str] = []
        self._action_failures: Dict[str, int] = {}

    def clone(
        self, vm: VirtualMachine, mode: CloneMode = CloneMode.LINK
    ) -> Generator:
        yield self.env.timeout(self.clone_time)
        if self.fail_clones > 0:
            self.fail_clones -= 1
            raise PlantError(f"injected clone failure for {vm.vmid}")
        self.cloned.append(vm.vmid)
        vm.backend = {"mode": mode}

    def execute_action(
        self,
        vm: VirtualMachine,
        action: Action,
        context: Dict[str, str],
    ) -> Generator:
        yield self.env.timeout(self.action_time)
        self.executed.append(action.name)
        if action.name in self.fail_actions:
            count = self._action_failures.get(action.name, 0) + 1
            self._action_failures[action.name] = count
            if count <= self.fail_action_times:
                return ActionResult(
                    action=action.name,
                    status=ActionStatus.FAILED,
                    message="injected action failure",
                )
        outputs = fabricate_outputs(action, context)
        return ActionResult(
            action=action.name,
            status=ActionStatus.OK,
            outputs=tuple(sorted(outputs.items())),
        )

    def collect(self, vm: VirtualMachine) -> Generator:
        yield self.env.timeout(0.0)
        self.collected.append(vm.vmid)

    def can_host(self, request: CreateRequest) -> bool:
        return True


def drive(env: Environment, generator):
    """Run one process to completion and return its value."""
    proc = env.process(generator)
    return env.run(until=proc)


def python_calls(fn) -> int:
    """Python-level calls ``fn()`` makes (``cProfile`` without builtins:
    exact and machine-independent, like the e2e benchmark's counter)."""
    profile = cProfile.Profile(builtins=False)
    # A cyclic collection inside the window would run the finalizers
    # of whatever earlier tests left behind (closing a suspended
    # generator is a Python call) and be counted against ``fn``.
    collecting = gc.isenabled()
    gc.disable()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
        if collecting:
            gc.enable()
    return sum(entry.callcount for entry in profile.getstats())


def retained_bytes(fn) -> int:
    """Bytes allocated inside ``fn()`` and still alive after it
    returned (``tracemalloc``, cyclic garbage collected on both sides).
    Whatever ``fn`` returns is dropped before the second reading, so
    what counts is what the objects it *touched* now hold on to."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def cyclic_garbage(fn) -> Tuple[int, Dict[str, int]]:
    """Objects only the cycle collector could free after ``fn()``:
    ``(count, {type name: count})``.  The collector is off while ``fn``
    runs and whatever it returns is dropped first, so reference
    counting alone has had its chance; the histogram (largest first)
    is for the failure message."""
    collecting = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        fn()
        gc.set_debug(gc.DEBUG_SAVEALL)
        count = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if collecting:
            gc.enable()
    return count, dict(kinds.most_common())


# ---------------------------------------------------------------------------
# Reference wire codec (two passes each way)
# ---------------------------------------------------------------------------


def oracle_dag_to_element(dag: ConfigDAG) -> ET.Element:
    """Encode a DAG as an ``<dag>`` element."""
    root = ET.Element("dag")
    for name, action in dag.actions.items():
        el = ET.SubElement(
            root,
            "action",
            {
                "name": name,
                "scope": action.scope.value,
                "command": action.command,
                "on-error": action.on_error.value,
                "retries": str(action.retries),
            },
        )
        for key, value in action.params:
            ET.SubElement(el, "param", {"key": key, "value": value})
        for out in action.outputs:
            ET.SubElement(el, "output", {"name": out})
    for u, v in dag.edges():
        ET.SubElement(root, "edge", {"from": u, "to": v})
    for name, handler in dag.handlers.items():
        hel = ET.SubElement(root, "handler", {"for": name})
        hel.append(oracle_dag_to_element(handler))
    return root


def oracle_request_to_xml(request: CreateRequest) -> str:
    root = ET.Element(
        "vmplant-request",
        {"service": "create", "client": request.client_id},
    )
    if request.vm_type is not None:
        root.set("vm-type", request.vm_type)
    if request.requirements is not None:
        root.set("requirements", request.requirements)
    if request.lease_s is not None:
        root.set("lease-s", repr(request.lease_s))
    hw = request.hardware
    ET.SubElement(
        root,
        "hardware",
        {
            "isa": hw.isa,
            "memory-mb": str(hw.memory_mb),
            "disk-gb": repr(hw.disk_gb),
            "cpus": str(hw.cpus),
        },
    )
    net = request.network
    net_attrs = {"domain": net.domain}
    if net.proxy_host is not None:
        net_attrs["proxy-host"] = net.proxy_host
    if net.proxy_port is not None:
        net_attrs["proxy-port"] = str(net.proxy_port)
    if net.credentials:
        net_attrs["credentials"] = net.credentials
    ET.SubElement(root, "network", net_attrs)
    sw = ET.SubElement(root, "software", {"os": request.software.os})
    sw.append(oracle_dag_to_element(request.software.dag))
    return ET.tostring(root, encoding="unicode")


def oracle_service_request_to_xml(
    request: CreateRequest, service: Optional[str] = None
) -> str:
    text = oracle_request_to_xml(request)
    if service is None or service == "create":
        return text
    root = ET.fromstring(text)
    root.set("service", service)
    return ET.tostring(root, encoding="unicode")


def oracle_request_from_xml(text: str) -> CreateRequest:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc
    if root.tag != "vmplant-request":
        raise ProtocolError(f"expected <vmplant-request>, got <{root.tag}>")
    if root.get("service") != "create":
        raise ProtocolError("only service=\"create\" requests carry a body")

    hw_el = root.find("hardware")
    if hw_el is None:
        raise ProtocolError("missing <hardware>")
    try:
        hardware = HardwareSpec(
            isa=hw_el.get("isa", "x86"),
            memory_mb=int(_require(hw_el, "memory-mb")),
            disk_gb=float(_require(hw_el, "disk-gb")),
            cpus=int(hw_el.get("cpus", "1")),
        )
    except ValueError as exc:
        raise ProtocolError(f"bad hardware spec: {exc}") from exc

    net_el = root.find("network")
    if net_el is not None:
        port = net_el.get("proxy-port")
        try:
            proxy_port = int(port) if port is not None else None
        except ValueError:
            raise ProtocolError(
                "<network> attribute 'proxy-port' must be an integer,"
                f" got {port!r}"
            ) from None
        network = NetworkSpec(
            domain=net_el.get("domain", "local"),
            proxy_host=net_el.get("proxy-host"),
            proxy_port=proxy_port,
            credentials=net_el.get("credentials", ""),
        )
    else:
        network = NetworkSpec()

    sw_el = root.find("software")
    if sw_el is None:
        raise ProtocolError("missing <software>")
    dag_el = sw_el.find("dag")
    if dag_el is None:
        raise ProtocolError("missing <dag> inside <software>")
    software = SoftwareSpec(
        os=sw_el.get("os", "linux-mandrake-8.1"),
        dag=dag_from_element(dag_el),
    )

    lease = root.get("lease-s")
    try:
        lease_s = float(lease) if lease is not None else None
    except ValueError:
        raise ProtocolError(
            "<vmplant-request> attribute 'lease-s' must be a number,"
            f" got {lease!r}"
        ) from None
    return CreateRequest(
        hardware=hardware,
        software=software,
        network=network,
        client_id=root.get("client", "anonymous"),
        vm_type=root.get("vm-type"),
        requirements=root.get("requirements"),
        lease_s=lease_s,
    )


def oracle_service_request_from_xml(text: str) -> Tuple[str, CreateRequest]:
    """The create/estimate half of the old envelope decoder."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc
    if root.tag != "vmplant-request":
        raise ProtocolError(f"expected <vmplant-request>, got <{root.tag}>")
    service = root.get("service")
    if service not in ("create", "estimate"):
        raise ProtocolError(f"unknown service {service!r}")
    body = ET.tostring(root, encoding="unicode")
    if service == "estimate":
        root.set("service", "create")
        body = ET.tostring(root, encoding="unicode")
    return service, oracle_request_from_xml(body)


# ---------------------------------------------------------------------------
# Reference kernel dispatch (lambda + generation, one process per bid)
# ---------------------------------------------------------------------------


class OracleProcess(Event):
    """The kernel ``Process`` before ``_resume`` became the callback."""

    __slots__ = ("_generator", "_generation")

    def __init__(self, env: Environment, generator: Generator):
        super().__init__(env)
        self._generator = generator
        self._generation = 0
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self._generator.gi_frame is not None and self._generator.gi_running:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev.defused = True
        self._generation += 1
        gen = self._generation
        interrupt_ev.callbacks = [
            lambda ev, gen=gen: self._resume(ev, gen)
        ]
        self.env.schedule(interrupt_ev, priority=PRIORITY_URGENT)

    def _resume(self, event: Event, generation: Optional[int] = None) -> None:
        if generation is not None and generation != self._generation:
            if not event._ok:
                event.defused = True
            return
        if not self.is_alive:
            if not event._ok:
                event.defused = True
            return
        try:
            if event._ok:
                next_ev = self._generator.send(event._value)
            else:
                event.defused = True
                next_ev = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        self._generation += 1
        gen = self._generation
        waiter = lambda ev, gen=gen: self._resume(ev, gen)  # noqa: E731
        if next_ev.callbacks is not None:
            next_ev.callbacks.append(waiter)
        else:
            resume_ev = Event(self.env)
            resume_ev._ok = next_ev._ok
            resume_ev._value = next_ev._value
            if not next_ev._ok:
                next_ev.defused = True
                resume_ev.defused = True
            resume_ev.callbacks = [waiter]
            self.env.schedule(resume_ev, priority=PRIORITY_URGENT)


def _oracle_one_way(transport) -> float:
    if transport.latency_s == 0:
        return 0.0
    return transport.latency_s * transport.rng.stream(
        "transport"
    ).lognormvariate(0.0, transport.jitter_sigma)


def _oracle_call(transport, handler, *args) -> Generator:
    """``Transport.call`` drawing through ``random.lognormvariate``."""
    transport.calls += 1
    yield transport.env.timeout(_oracle_one_way(transport))
    result = handler(*args)
    if hasattr(result, "send") and hasattr(result, "throw"):
        result = yield from result
    yield transport.env.timeout(_oracle_one_way(transport))
    return result


def oracle_collect(
    collector: BidCollector,
    bidders: Sequence[Any],
    request: CreateRequest,
    deadline_s: Optional[float] = None,
) -> Generator:
    """``BidCollector.collect`` with one ``OracleProcess`` per bidder."""
    env = collector.env
    procs = []
    for bidder in bidders:
        handler = getattr(bidder, "estimate_proc", None) or bidder.estimate
        procs.append(
            OracleProcess(
                env, _oracle_call(collector.transport, handler, request)
            )
        )
    if procs:
        if deadline_s is None:
            yield env.all_of(procs)
        else:
            yield env.any_of([env.all_of(procs), env.timeout(deadline_s)])
            for proc in procs:
                if not proc.triggered:
                    proc.callbacks.append(_defuse)
    bids: List[Bid] = []
    now = env.now
    for bidder, proc in zip(bidders, procs):
        if not proc.triggered:
            continue
        cost = proc.value
        if cost is not None:
            bids.append(Bid(bidder.name, float(cost), bidder, now))
    collector.collections += 1
    collector.bids_collected += len(bids)
    return bids


def oracle_gather(
    transport,
    handlers: Sequence[Callable[[], Any]],
    deadline_s: Optional[float] = None,
) -> Event:
    """``Transport.gather`` with a back-timer per answer.

    Every answer rides a ``Timeout`` of its return latency and is
    copied into the round's dictionary when that timer fires; the
    round's event is triggered from the last of those callbacks.
    """
    env = transport.env
    done = Event(env)
    answers: dict = {}
    total = len(handlers)
    transport.calls += total
    if not total:
        return done.succeed(answers)

    def fail(exc: Exception) -> None:
        if done._ok is None:
            done.fail(exc)

    def land(index: int, answer: Any, _timer: Event) -> None:
        if done._ok is None:
            answers[index] = answer
            if len(answers) == total:
                done.succeed(answers)

    def reply(index: int, answer: Any) -> None:
        Timeout(env, transport._one_way()).callbacks.append(
            partial(land, index, answer)
        )

    def advance(index: int, steps: Generator, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    event = steps.send(event._value)
                else:
                    event.defused = True
                    event = steps.throw(event._value)
            except StopIteration as stop:
                return reply(index, stop.value)
            except Exception as exc:
                return fail(exc)
            if event.callbacks is not None:
                event.callbacks.append(partial(advance, index, steps))
                return

    def arrive(index: int, timer: Event) -> None:
        try:
            result = handlers[index]()
        except Exception as exc:
            return fail(exc)
        if hasattr(result, "send") and hasattr(result, "throw"):
            advance(index, result, timer)
        else:
            reply(index, result)

    def expire(_timer: Event) -> None:
        if done._ok is None:
            done.succeed(answers)

    if deadline_s is not None:
        Timeout(env, deadline_s).callbacks.append(expire)
    for index in range(total):
        Timeout(env, transport._one_way()).callbacks.append(
            partial(arrive, index)
        )
    return done


# ---------------------------------------------------------------------------
# Reference random hub (a generator kept for every name ever seen)
# ---------------------------------------------------------------------------


class oracle_rng_hub:
    """``RngHub`` before a name drawn from once became a journal entry."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (cached) stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw ``U[low, high)`` from the named stream."""
        return self.stream(name).uniform(low, high)

    def expovariate(self, name: str, rate: float) -> float:
        """Draw an exponential inter-arrival with the given rate."""
        return self.stream(name).expovariate(rate)

    def lognormal(self, name: str, mu: float, sigma: float) -> float:
        """Draw a log-normal variate (natural-log parameters).

        What ``random.lognormvariate`` computes, spelled out to save
        its frame on a path every transport hop takes.
        """
        return exp(self.stream(name).normalvariate(mu, sigma))

    def choice(self, name: str, seq):
        """Pick a uniformly random element of ``seq``."""
        return self.stream(name).choice(seq)

    def __repr__(self) -> str:
        return f"<RngHub seed={self.seed} streams={len(self._streams)}>"
