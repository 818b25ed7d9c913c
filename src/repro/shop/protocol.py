"""Service message encodings and the latency-charging transport.

The prototype exchanges XML service specifications over sockets
(Section 4.1).  This module provides:

* :func:`service_request_to_xml` / :func:`service_request_from_xml` —
  one envelope for all four services (create carries the full request
  body of :mod:`repro.core.dagxml`; query/destroy/estimate are small);
* :class:`Transport` — the messaging substrate: every call charges a
  (jittered) round-trip latency in the simulation clock, composing
  naturally with synchronous handlers and process-generator handlers.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Callable, Generator, Optional, Tuple, Union

from repro.core.dagxml import (
    envelope_from_xml,
    request_from_element,
    request_to_xml,
)
from repro.core.errors import ProtocolError
from repro.core.spec import CreateRequest, DestroyRequest, QueryRequest
from repro.sim.kernel import Environment
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

    Encodings are memoized on the (frozen) request object per service
    name: bidding encodes one request once, not once per plant.
    """
    memo = getattr(request, "_xml_memo", None)
    if memo is not None:
        cached = memo.get(service)
        if cached is not None:
            return cached
    text = _encode_request(request, service)
    if memo is None:
        memo = {}
        object.__setattr__(request, "_xml_memo", memo)
    memo[service] = text
    return text


def _encode_request(
    request: ServiceRequest, service: Optional[str] = None
) -> str:
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
    """Message substrate charging round-trip latency per call."""

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

    def call(self, handler: Callable[[], Any]) -> Generator:
        """Invoke ``handler`` remotely: latency → handler → latency.

        ``handler()`` may return a plain value or a process generator
        (which is then driven to completion); the transport returns
        its result.
        """
        self.calls += 1
        yield self.env.timeout(self._one_way())
        result = handler()
        if hasattr(result, "send") and hasattr(result, "throw"):
            result = yield from result
        yield self.env.timeout(self._one_way())
        return result
