"""Configuration actions: the node payload of a configuration DAG.

An :class:`Action` describes one step needed to bring a virtual
machine from its current state toward the client's desired state —
installing a package, creating a user, attaching a virtual device.
Actions are *guest*-scoped (executed by the guest daemon inside the
VM, e.g. ``useradd``) or *host*-scoped (executed by the production
line on the VM host, e.g. connecting a CD-ROM ISO image), mirroring
Section 3.1 of the paper.

Actions are value objects: equality and the matching signature depend
only on their content, so a warehouse descriptor produced on one plant
matches requests arriving at another.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Mapping, Optional, Tuple, Union

__all__ = [
    "ActionScope",
    "ErrorPolicy",
    "ActionStatus",
    "Action",
    "ActionResult",
]


class ActionScope(Enum):
    """Where an action executes (Section 3.1)."""

    #: Executed inside the virtual machine by the guest daemon.
    GUEST = "guest"
    #: Executed by the virtual machine's host (production line).
    HOST = "host"


class ErrorPolicy(Enum):
    """What the PPP does when an action fails.

    Every action node has an implicit error node; this policy selects
    its behaviour.  A custom error-handling sub-graph (``handler``)
    can additionally be attached to the node in the DAG.
    """

    #: Abort production and collect the partially configured VM.
    FAIL = "fail"
    #: Re-run the action up to ``retries`` times before failing.
    RETRY = "retry"
    #: Record the failure in the classad and continue.
    IGNORE = "ignore"
    #: Run the explicit error-handling sub-graph; continue if it
    #: completes, abort production if it fails too.
    HANDLER = "handler"


class ActionStatus(Enum):
    """Outcome of one action execution."""

    OK = "ok"
    FAILED = "failed"
    SKIPPED = "skipped"
    #: Satisfied by the golden image — no execution needed.
    CACHED = "cached"


#: Bound of the canonical-parameters intern table (entries, LRU).  A
#: catalog builds thousands of actions from a few dozen parameter sets;
#: this keeps one tuple per set without pinning a one-off stream's.
PARAMS_INTERN_MAX = 256
_interned_params: Dict[Tuple, Tuple[Tuple[str, str], ...]] = {}


def _canonical_params(
    params: Union[Mapping[str, Any], Tuple[Tuple[str, str], ...]],
) -> Tuple[Tuple[str, str], ...]:
    """Canonical, hashable form of an action's parameter mapping.

    A tuple is taken as the canonical form itself — what
    ``Action.params`` stores and ``dataclasses.replace`` feeds back —
    and must already be one: ``(key, repr)`` string pairs in strictly
    increasing key order.  Equal parameter sets get one shared tuple
    while it stays among the :data:`PARAMS_INTERN_MAX` most recent.
    """
    if isinstance(params, tuple):
        pairs = all(
            isinstance(pair, tuple)
            and len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], str)
            for pair in params
        )
        if not pairs or any(
            a[0] >= b[0] for a, b in zip(params, params[1:])
        ):
            raise ValueError(f"params tuple is not canonical: {params!r}")
        canonical = params
    else:
        canonical = tuple(
            sorted((str(k), repr(v)) for k, v in params.items())
        )
    if not canonical:
        return ()
    shared = _interned_params.pop(canonical, None)
    if shared is None:
        shared = canonical
        if len(_interned_params) >= PARAMS_INTERN_MAX:
            del _interned_params[next(iter(_interned_params))]
    _interned_params[shared] = shared
    return shared


def decode_literal(rep: str) -> Any:
    """What ``ast.literal_eval(rep)`` returns or raises.

    Strings and numbers, all a workload's parameters are, never reach
    the stdlib's converter: it is a closure that refers to itself, a
    reference cycle per call.  A container still does.
    """
    quote = rep[:1]
    if quote in ("'", '"') and len(rep) > 1 and rep[-1] == quote:
        inner = rep[1:-1]
        if quote not in inner and "\\" not in inner and inner.isprintable():
            return inner  # a repr that needed no escape, read off unparsed
    node = ast.parse(rep.lstrip(" \t"), mode="eval").body
    if type(node) is ast.Constant:
        return node.value
    if type(node) is ast.UnaryOp and type(node.op) is ast.USub:
        number = node.operand
        if type(number) is ast.Constant and type(number.value) in (int, float):
            return -number.value
    return ast.literal_eval(node)


@dataclass(frozen=True, slots=True)
class Action:
    """One configuration step.

    A slotted value: no instance ``__dict__``, and equal parameter
    mappings share one ``params`` tuple, so a catalog of thousands of
    DAGs costs a few machine words per step.

    Parameters
    ----------
    name:
        Unique name within its DAG, e.g. ``"install-vnc"``.  Warehouse
        matching identifies operations by name, so the *signature*
        (name + scope + command + params) detects conflicting reuse of
        a name.
    scope:
        :class:`ActionScope.GUEST` or :class:`ActionScope.HOST`.
    command:
        The command template the production line materializes into a
        configuration script (guest) or a host-side operation name.
    params:
        Template parameters substituted into the command.
    outputs:
        Names of values this action publishes into the VM's classad
        (e.g. the assigned IP address).
    on_error:
        Error policy for the implicit error node.
    retries:
        Retry budget when ``on_error`` is :class:`ErrorPolicy.RETRY`.
    """

    name: str
    scope: ActionScope = ActionScope.GUEST
    command: str = ""
    params: Tuple[Tuple[str, str], ...] = field(default=())
    outputs: Tuple[str, ...] = ()
    on_error: ErrorPolicy = ErrorPolicy.FAIL
    retries: int = 0
    #: Content hash identifying the operation across plants: a slot left
    #: unset until its first read, which :meth:`__getattr__` fills.
    #: Neither ``==``, ``hash`` nor ``repr`` reads it.
    signature: str = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        name: str,
        scope: ActionScope = ActionScope.GUEST,
        command: str = "",
        params: Union[
            Mapping[str, Any], Tuple[Tuple[str, str], ...], None
        ] = None,
        outputs: Tuple[str, ...] = (),
        on_error: ErrorPolicy = ErrorPolicy.FAIL,
        retries: int = 0,
    ):
        if not name:
            raise ValueError("action name must be non-empty")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        object.__setattr__(self, "name", name)
        # A member is kept as is: ``Enum(member)`` is two Python calls.
        if type(scope) is not ActionScope:
            scope = ActionScope(scope)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "command", command)
        object.__setattr__(
            self, "params", _canonical_params(params or {})
        )
        object.__setattr__(self, "outputs", tuple(outputs))
        if type(on_error) is not ErrorPolicy:
            on_error = ErrorPolicy(on_error)
        object.__setattr__(self, "on_error", on_error)
        object.__setattr__(self, "retries", int(retries))

    @property
    def param_dict(self) -> Dict[str, str]:
        """Parameters as a plain dict (values are ``repr`` strings)."""
        return dict(self.params)

    def __getattr__(self, name: str) -> str:
        # Reached only when normal lookup fails, so for ``signature``
        # just once: a read after the first is a plain slot read.
        # Hashing in ``__init__`` instead would cost every action built,
        # read or not.
        if name != "signature":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        payload = "\x1f".join(
            [
                self.name,
                self.scope._value_,
                self.command,
                repr(self.params),
            ]
        )
        signature = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        object.__setattr__(self, "signature", signature)
        return signature

    def rendered_command(self) -> str:
        """Command with ``{param}`` placeholders substituted.

        Only declared parameter names are substituted — arbitrary
        braces (shell syntax, awk programs …) pass through verbatim.
        A ``{name}`` token naming an undeclared parameter is an error.

        Parameter values were canonicalized with ``repr``; string
        values are unquoted again for substitution.
        """
        values: Dict[str, str] = {}
        for key, rep in self.params:
            if rep.startswith(("'", '"')) and rep.endswith(("'", '"')):
                try:
                    values[key] = str(decode_literal(rep))
                    continue
                except (ValueError, SyntaxError):
                    pass
            values[key] = rep

        def substitute(match: "re.Match[str]") -> str:
            name = match.group(1)
            if name not in values:
                raise ValueError(
                    f"action {self.name!r}: unbound command parameter "
                    f"{name!r}"
                )
            return values[name]

        # Substitute only identifier-shaped {tokens} that are not
        # shell ${VAR} expansions; any other brace construct passes
        # through untouched.
        return re.sub(
            r"(?<!\$)\{([A-Za-z_][A-Za-z0-9_]*)\}",
            substitute,
            self.command,
        )

    def __str__(self) -> str:
        return f"{self.name}[{self.scope.value}]"


@dataclass(frozen=True)
class ActionResult:
    """Outcome of executing (or skipping) one action."""

    action: str
    status: ActionStatus
    outputs: Tuple[Tuple[str, str], ...] = ()
    stdout: str = ""
    duration: float = 0.0
    attempts: int = 1
    message: str = ""

    @property
    def ok(self) -> bool:
        """True for OK or CACHED outcomes."""
        return self.status in (ActionStatus.OK, ActionStatus.CACHED)

    @property
    def output_dict(self) -> Dict[str, str]:
        """Published outputs as a plain dict."""
        return dict(self.outputs)
