"""Service message encodings and the latency-charging transport.

The prototype exchanges XML service specifications over sockets
(Section 4.1).  This module provides:

* :func:`service_request_to_xml` / :func:`service_request_from_xml` —
  one envelope for all four services (create carries the full request
  body of :mod:`repro.core.dagxml`; query/destroy/estimate are small);
* :class:`Transport` — the messaging substrate: every call charges a
  (jittered) round-trip latency in the simulation clock, composing
  naturally with synchronous handlers and process-generator handlers.
  A single call (:meth:`Transport.call`) is a generator the caller's
  process drives; a fan-out of calls answered together
  (:meth:`Transport.gather`) is run from timer callbacks, no process
  per call and no event per answer.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import partial
from types import GeneratorType as _GeneratorType
from typing import Any, Callable, Generator, Optional, Sequence, Tuple, Union

from repro.core.dagxml import (
    envelope_from_xml,
    request_from_element,
    request_to_xml,
)
from repro.core.errors import ProtocolError
from repro.core.spec import CreateRequest, DestroyRequest, QueryRequest
from repro.sim.kernel import Environment, Event, Timeout
from repro.sim.rng import RngHub

__all__ = [
    "Transport",
    "service_request_to_xml",
    "service_request_from_xml",
]

ServiceRequest = Union[CreateRequest, QueryRequest, DestroyRequest]


def service_request_to_xml(
    request: ServiceRequest, service: Optional[str] = None
) -> str:
    """Encode any service request as an XML string.

    ``service`` overrides the envelope's service name — used to wrap a
    :class:`CreateRequest` body in an *estimate* request for bidding.

    Nothing is remembered on the request: what thousands of requests
    share is their configuration DAG, and a frozen DAG keeps its own
    ``<dag>`` text (:func:`repro.core.dagxml.dag_to_xml`), so only the
    envelope is written per call.  A request whose DAG can still
    change is written in full every time — a client that extends its
    DAG and submits the same request object again sends the new body.
    """
    if isinstance(request, CreateRequest):
        return request_to_xml(request, service or "create")
    if isinstance(request, QueryRequest):
        root = ET.Element(
            "vmplant-request", {"service": "query", "vmid": request.vmid}
        )
        for attr in request.attributes:
            ET.SubElement(root, "attribute", {"name": attr})
        return ET.tostring(root, encoding="unicode")
    if isinstance(request, DestroyRequest):
        attrs = {
            "service": "destroy",
            "vmid": request.vmid,
            "commit": "true" if request.commit else "false",
        }
        if request.publish_as is not None:
            attrs["publish-as"] = request.publish_as
        root = ET.Element("vmplant-request", attrs)
        return ET.tostring(root, encoding="unicode")
    raise ProtocolError(
        f"unsupported request type {type(request).__name__}"
    )


def service_request_from_xml(text: str) -> Tuple[str, ServiceRequest]:
    """Decode an envelope; returns ``(service, request)``.

    A create/estimate request comes back read-only: its DAG is shared
    with every decoded request of the same body (see
    :func:`repro.core.dagxml.request_from_element`).
    """
    root = envelope_from_xml(text)
    service = root.get("service")
    if service in ("create", "estimate"):
        return service, request_from_element(root)
    if service == "query":
        vmid = root.get("vmid")
        if vmid is None:
            raise ProtocolError("query request missing vmid")
        attributes = tuple(
            el.get("name", "") for el in root if el.tag == "attribute"
        )
        return service, QueryRequest(vmid=vmid, attributes=attributes)
    if service == "destroy":
        vmid = root.get("vmid")
        if vmid is None:
            raise ProtocolError("destroy request missing vmid")
        return service, DestroyRequest(
            vmid=vmid,
            commit=root.get("commit") == "true",
            publish_as=root.get("publish-as"),
        )
    raise ProtocolError(f"unknown service {service!r}")


class Transport:
    """Message substrate charging round-trip latency per call.

    Each direction of each call draws one jittered latency from the
    ``transport`` stream, in the order the messages are sent.
    """

    def __init__(
        self,
        env: Environment,
        rng: Optional[RngHub] = None,
        latency_s: float = 0.05,
        jitter_sigma: float = 0.2,
    ):
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.rng = rng or RngHub(0)
        self.latency_s = latency_s
        self.jitter_sigma = jitter_sigma
        self.calls = 0

    def _one_way(self) -> float:
        if self.latency_s == 0:
            return 0.0
        return self.latency_s * self.rng.lognormal(
            "transport", 0.0, self.jitter_sigma
        )

    def call(self, handler: Callable[..., Any], *args: Any) -> Generator:
        """Invoke ``handler(*args)`` remotely: latency → handler → latency.

        The handler may return a plain value or a process generator
        (which is then driven to completion); the transport returns
        its result.  The call runs on the caller's process stack, so
        an interrupt of that process (a create deadline) unwinds
        through the handler's ``except``/``finally`` blocks.
        Arguments ride with the call rather than in a closure made
        for it, and a handler that only routes (a broker) returns the
        generator it routes to: this frame runs it as its sub-call.
        """
        self.calls += 1
        yield self._one_way()
        result = handler(*args)
        if hasattr(result, "send") and hasattr(result, "throw"):
            result = yield result
        yield self._one_way()
        return result

    def gather(
        self,
        handlers: Sequence[Callable[[], Any]],
        deadline_s: Optional[float] = None,
    ) -> Event:
        """Call every handler concurrently; one event for all answers.

        The same latency → handler → latency as :meth:`call`, per
        handler: the outbound latencies are drawn here, in handler
        order, and each handler runs in its arrival timer's callback;
        a handler that returns a generator is stepped in place (with
        the generators it yields as sub-calls), sleeps on the delays
        it yields, and parks only on the pending events it yields.  The
        return latency is drawn when the handler finishes, and from then on
        the answer and the instant it lands are fixed and nothing can
        observe it in flight, so it is recorded, not scheduled: once
        every handler has answered, the round's one event goes on the
        queue at the latest landing time itself.

        The returned event fires with ``{handler index: answer}`` when
        the last answer lands, or — given ``deadline_s`` — that many
        seconds from now with the answers that landed strictly before
        then; it fails with the exception of the first handler to
        raise before then.  Once it is decided, the remaining handlers
        still run (and draw their latencies), but their answers and
        failures are dropped.  The round's state is one
        :class:`_Round`, held only by the timers and parked events
        that still have a step of it to run.
        """
        env = self.env
        done = Event(env)
        total = len(handlers)
        self.calls += total
        if not total:
            return done.succeed({})
        deadline = None if deadline_s is None else env.now + deadline_s
        this = _Round(self, handlers, done, deadline)
        if deadline_s is not None:
            Timeout(env, deadline_s).callbacks.append(this.expire)
        for index in range(total):
            Timeout(env, self._one_way()).callbacks.append(
                partial(this.arrive, index)
            )
        return done


@dataclass(slots=True, eq=False)
class _Round:
    """One :meth:`Transport.gather` in flight.

    Nothing it holds points back at it.  ``done`` is dropped the
    moment the round is decided (``None`` tells the later answers):
    a failed round's event holds the handler's exception, whose
    traceback holds the frame that caught it, which holds the round.
    """

    transport: Transport
    handlers: Sequence[Callable[[], Any]]
    done: Optional[Event]
    deadline: Optional[float]
    #: (landing time, handler index, answer), as handlers finish.
    landings: list = field(default_factory=list)

    def fail(self, exc: Exception) -> None:
        done, self.done = self.done, None
        if done is not None:
            done.fail(exc)

    def reply(self, index: int, answer: Any) -> None:
        landings, transport = self.landings, self.transport
        env = transport.env
        landings.append((env.now + transport._one_way(), index, answer))
        if len(landings) == len(self.handlers) and self.done is not None:
            last = max(landings)[0]  # ties end at the unique index
            # At or past the deadline, the deadline timer decides.
            if self.deadline is None or last < self.deadline:
                done, self.done = self.done, None
                done._ok = True
                done._value = {i: got for _, i, got in landings}
                env.schedule_at(done, last)

    def advance(self, index: int, stack: list, event: Event) -> None:
        # A handler's generators, outermost first: a yielded generator
        # is a sub-call, run on top of its caller as the kernel does.
        ok, value = event._ok, event._value
        if not ok:
            event.defused = True
        while True:
            try:
                if ok:
                    event = stack[-1].send(value)
                else:
                    event = stack[-1].throw(value)
            except StopIteration as stop:
                stack.pop()
                if not stack:
                    return self.reply(index, stop.value)
                ok, value = True, stop.value
                continue
            except Exception as exc:
                stack.pop()
                if not stack:
                    return self.fail(exc)
                # Minus this frame: it holds the stack.
                ok = False
                value = exc.with_traceback(exc.__traceback__.tb_next)
                continue
            kind = type(event)
            if kind is _GeneratorType:
                stack.append(event)
                ok, value = True, None
            elif kind is float or kind is int:  # a delay, as the kernel
                if event < 0:
                    ok, value = False, ValueError(f"negative delay {event}")
                    continue
                self.transport.env.call_later(
                    event, partial(self.advance, index, stack)
                )
                return
            elif event.callbacks is not None:
                event.callbacks.append(partial(self.advance, index, stack))
                return
            else:
                ok, value = event._ok, event._value
                if not ok:
                    event.defused = True

    def arrive(self, index: int, timer: Event) -> None:
        try:
            result = self.handlers[index]()
        except Exception as exc:
            return self.fail(exc)
        if hasattr(result, "send") and hasattr(result, "throw"):
            self.advance(index, [result], timer)
        else:
            self.reply(index, result)

    def expire(self, _timer: Event) -> None:
        done, self.done = self.done, None
        if done is not None:
            deadline = self.deadline
            done.succeed(
                {i: got for at, i, got in self.landings if at < deadline}
            )
