"""The shared-resource primitive of the simulation kernel.

:class:`Resource` is a pool of identical servers claimed and released
by processes (used for CPU slots and NFS service threads), after
SimPy's.  All waiting is strictly FIFO, which keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.sim.kernel import Environment, Event

__all__ = ["Request", "Release", "Resource"]


class Request(Event):
    """Pending claim on a :class:`Resource` slot.

    The holder releases the slot itself, also when it fails::

        req = resource.request()
        try:
            yield req
            ... hold the slot ...
        finally:
            resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)


class Release(Event):
    """Immediate event confirming a slot release."""

    __slots__ = ()

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        resource._do_release(request)
        self.succeed()


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a granted slot (or withdraw a waiting claim)."""
        return Release(self, request)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _do_release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        else:
            try:
                self.queue.remove(request)
            except ValueError:
                pass  # releasing twice is a no-op

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()
