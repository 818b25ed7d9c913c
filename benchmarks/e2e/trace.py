"""Timing shims around the public callables of each layer.

``tracing()`` swaps class (and two module) attributes for wrappers
that record one span per call, and puts the originals back on exit —
nothing under ``src/`` is edited and nothing stays patched.  It is
never active while end-to-end numbers are taken.

* A plain function gets a span per call.
* A generator method (``VMShop.create``, ``VMPlant.create``, ...) is
  driven by a forwarding generator that times each *resumption* and
  notes the simulated clock at start and end, so the one span carries
  both the host cost and the simulated stage duration.
* Spans nest by a stack: the whole simulator is single-threaded and
  every model callback runs inside ``Environment.run*``, which is
  wrapped too.  A span's self time is its duration minus the time its
  child spans cover; ``sim.kernel`` self time is therefore "run-loop
  time outside every wrapped callable".
* A span inherits its request id from the span that caused it unless
  its own arguments carry a ``CreateRequest``.

``Testbed.__init__`` is wrapped only to *note* every testbed built
while tracing, which is how the layer counters of sites constructed
deep inside ``run_sharded`` / ``run_creation_suite`` are read through
public attributes afterwards.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "tracing", "patch_owner", "TARGETS", "COLUMNS"]

#: Column names of one span row in the written trace.
COLUMNS = (
    "name",
    "request",
    "parent",
    "host_start_s",
    "host_s",
    "self_s",
    "sim_start_s",
    "sim_end_s",
    "resumes",
)
_NAME, _RID, _PARENT, _START, _DUR, _SELF, _SIM0, _SIM1, _RESUMES = range(9)
#: Private tenth field: the span's own row number (what children point at).
_INDEX = 9


# Request-id getters read positional arguments only; a call that passes
# its request by keyword simply inherits the id of the span around it.
def _rid_request(args) -> Optional[str]:
    return getattr(args[1], "client_id", None) if len(args) > 1 else None


def _rid_order(args) -> Optional[str]:
    return args[1].request.client_id if len(args) > 1 else None


def _rid_first(args) -> Optional[str]:
    return getattr(args[0], "client_id", None) if args else None


def _env_self(obj):
    return obj.env


def _env_shop(obj):
    return obj.shop.env


#: (module, class or None, attribute, span name, rid getter,
#:  env getter — set for generator methods, None for plain calls)
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Any, Any], ...] = (
    ("repro.sim.kernel", "Environment", "run", "sim.kernel.run", None, None),
    ("repro.sim.kernel", "Environment", "run_below",
     "sim.kernel.run_below", None, None),
    ("repro.sim.kernel", "Environment", "run_below_fenced",
     "sim.kernel.run_below_fenced", None, None),
    ("repro.sim.kernel", "Environment", "step", "sim.kernel.step", None, None),
    ("repro.sim.network", "FairShareLink", "transfer",
     "sim.network.transfer", None, None),
    ("repro.sim.network", "BoundaryLink", "send",
     "sim.network.send", None, None),
    ("repro.plant.warehouse", "VMWarehouse", "select",
     "core.matching.select", None, None),
    ("repro.core.classad", "ClassAd", "matches",
     "core.classad.matches", None, None),
    ("repro.core.classad", "Expression", "evaluate",
     "core.classad.evaluate", None, None),
    ("repro.plant.vmplant", "VMPlant", "estimate",
     "plant.estimate", _rid_request, None),
    ("repro.plant.vmplant", "VMPlant", "create",
     "plant.create", _rid_request, _env_self),
    ("repro.plant.ppp", "ProductionProcessPlanner", "plan",
     "plant.plan", _rid_order, None),
    ("repro.plant.ppp", "ProductionProcessPlanner", "produce",
     "plant.produce", _rid_order, _env_self),
    ("repro.shop.vmshop", "VMShop", "create",
     "shop.create", _rid_request, _env_self),
    ("repro.shop.vmshop", "VMShop", "estimate",
     "shop.estimate", _rid_request, _env_self),
    ("repro.shop.vmshop", "VMShop", "destroy",
     "shop.destroy", None, _env_self),
    # Module functions: patched where they are defined and where
    # vmshop imported them by name.
    ("repro.shop.protocol", None, "service_request_to_xml",
     "shop.protocol.to_xml", _rid_first, None),
    ("repro.shop.protocol", None, "service_request_from_xml",
     "shop.protocol.from_xml", None, None),
    ("repro.shop.vmshop", None, "service_request_to_xml",
     "shop.protocol.to_xml", _rid_first, None),
    ("repro.shop.vmshop", None, "service_request_from_xml",
     "shop.protocol.from_xml", None, None),
    ("repro.federation.gateway", "FederationGateway", "create",
     "federation.gateway.create", _rid_request, _env_shop),
    ("repro.federation.gateway", "FederationGateway", "place",
     "federation.gateway.place", _rid_request, _env_shop),
    ("repro.federation.gateway", "FederationGateway", "estimate",
     "federation.gateway.estimate", _rid_request, _env_shop),
    ("repro.federation.gateway", "FederationGateway", "should_spill",
     "federation.gateway.should_spill", None, None),
    ("repro.federation.admission", "AdmissionController", "admit",
     "federation.admission.admit", None, None),
    ("repro.analysis.streaming", "WorkloadSummary", "record_ok",
     "analysis.streaming.record_ok", None, None),
    ("repro.analysis.streaming", "WorkloadSummary", "record_failed",
     "analysis.streaming.record_failed", None, None),
    ("repro.analysis.streaming", "WorkloadSummary", "record_shed",
     "analysis.streaming.record_shed", None, None),
)


def patch_owner(module: str, cls: Optional[str]) -> Any:
    """The class (or module) whose attribute a ``TARGETS`` row replaces."""
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


class Tracer:
    """In-memory span store plus the shims that fill it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Open frames: [span, entered_at, child_seconds].
        self._stack: List[list] = []
        #: Every Testbed constructed while tracing, in build order.
        self.beds: List[Any] = []
        #: id -> every link a transfer/send shim saw (for ``total_mb``).
        self._links: Dict[int, Any] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self._t0 = perf_counter()

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str, rid: Optional[str]) -> list:
        parent = -1
        if self._stack:
            top = self._stack[-1][0]
            parent = top[_INDEX]
            if rid is None:
                rid = top[_RID]
        span = [name, rid, parent, 0.0, 0.0, 0.0, None, None, 0, len(self.spans)]
        self.spans.append(span)
        return span

    def _enter(self, span: list) -> list:
        frame = [span, perf_counter(), 0.0]
        if not span[_RESUMES]:
            span[_START] = frame[1] - self._t0
        span[_RESUMES] += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        elapsed = perf_counter() - frame[1]
        stack = self._stack
        stack.pop()
        span = frame[0]
        span[_DUR] += elapsed
        span[_SELF] += elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed

    # -- shim factories ----------------------------------------------------
    def _wrap_call(self, fn: Callable, name: str, rid_of) -> Callable:
        open_, enter, leave = self._open, self._enter, self._leave
        links = self._links if name.startswith("sim.network.") else None

        def shim(*args, **kwargs):
            if links is not None:
                links[id(args[0])] = args[0]
            frame = enter(open_(name, rid_of(args) if rid_of else None))
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        shim.__wrapped__ = fn
        return shim

    def _wrap_generator(
        self, fn: Callable, name: str, rid_of, env_of
    ) -> Callable:
        open_, enter, leave = self._open, self._enter, self._leave

        def shim(*args, **kwargs):
            gen = fn(*args, **kwargs)
            env = env_of(args[0])
            span = open_(name, rid_of(args) if rid_of else None)
            span[_SIM0] = env.now
            value, error = None, None
            try:
                while True:
                    frame = enter(span)
                    try:
                        if error is None:
                            item = gen.send(value)
                        else:
                            thrown, error = error, None
                            item = gen.throw(thrown)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave(frame)
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded, not handled
                        error = exc
            finally:
                span[_SIM1] = env.now

        shim.__wrapped__ = fn
        return shim

    def _wrap_testbed_init(self, init: Callable) -> Callable:
        beds = self.beds

        def shim(bed, *args, **kwargs):
            init(bed, *args, **kwargs)
            beds.append(bed)

        shim.__wrapped__ = init
        return shim

    # -- install / remove --------------------------------------------------
    def install(self) -> None:
        for module, cls, attr, name, rid_of, env_of in TARGETS:
            owner = patch_owner(module, cls)
            original = vars(owner)[attr]
            if env_of is None:
                shim = self._wrap_call(original, name, rid_of)
            else:
                shim = self._wrap_generator(original, name, rid_of, env_of)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, shim)
        from repro.sim.cluster import Testbed

        init = vars(Testbed)["__init__"]
        self._patched.append((Testbed, "__init__", init))
        Testbed.__init__ = self._wrap_testbed_init(init)
        self._t0 = perf_counter()

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    @property
    def links(self) -> List[Any]:
        return list(self._links.values())

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """name -> {"calls", "self_s", "host_s"} over all spans."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            agg = out.get(span[_NAME])
            if agg is None:
                agg = out[span[_NAME]] = {
                    "calls": 0, "self_s": 0.0, "host_s": 0.0
                }
            agg["calls"] += 1
            agg["self_s"] += span[_SELF]
            agg["host_s"] += span[_DUR]
        return out

    def sim_durations(self, name: str) -> List[float]:
        """Simulated durations of the finished generator spans ``name``."""
        return [
            s[_SIM1] - s[_SIM0]
            for s in self.spans
            if s[_NAME] == name and s[_SIM1] is not None
        ]

    def rows(self) -> Iterator[list]:
        for span in self.spans:
            row = span[:_INDEX]
            for i in (_START, _DUR, _SELF):
                row[i] = round(row[i], 7)
            yield row

    def write(self, path, header: Dict[str, Any]) -> None:
        """Dump every span (one row each, ``COLUMNS`` order) as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {**header, "columns": list(COLUMNS), "spans": list(self.rows())},
                fh,
                separators=(",", ":"),
            )


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install the shims for the duration of the block."""
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
