"""Classads: attribute stores with a matchmaking expression language.

VMShop/VMPlant exchange machine descriptions as *classads* — ordered
(attribute, value) collections in the style of Condor matchmaking
[Raman et al., HPDC'98], which the paper adopts for VM descriptions
and query results.  This module implements:

* :class:`ClassAd` — a case-insensitive ordered attribute map whose
  values are booleans, numbers, strings, lists, or unevaluated
  expressions;
* a small expression language with Condor's three-valued logic
  (``UNDEFINED`` propagation, ``&&``/``||`` short-circuit semantics),
  comparison and arithmetic operators, meta-equality (``=?=``,
  ``=!=``), the ternary conditional, and cross-ad references through
  the ``other`` scope;
* bilateral matching: ``a.matches(b)`` evaluates ``a``'s
  ``requirements`` expression with ``b`` bound as ``other``.

Grammar (precedence low → high)::

    expr     := or ('?' expr ':' expr)?
    or       := and ('||' and)*
    and      := meta ('&&' meta)*
    meta     := cmp (('=?=' | '=!=') cmp)*
    cmp      := add (('==','!=','<','<=','>','>=') add)*
    add      := mul (('+'|'-') mul)*
    mul      := unary (('*'|'/'|'%') unary)*
    unary    := ('!'|'-')* atom
    atom     := literal | reference | '(' expr ')' | list
    reference:= IDENT ('.' IDENT)?

Two evaluation engines share one grammar:

* the **compiled engine** (default) — :class:`Expression` lowers its
  AST once into nested Python closures with the operator dispatch,
  scope selection and attribute-name lowering resolved at compile
  time, constant subexpressions folded, and the evaluation environment
  inlined into three positional arguments ``(ad, other, depth)`` so a
  ``matches`` call allocates nothing on the fast path;
* the **interpreter** — the original recursive ``_Node.eval`` tree
  walk over a :class:`_Scope`, kept verbatim as the reference
  implementation.  Nothing in ``src/`` runs it; the differential
  suite in ``tests/test_classad_compiled.py`` calls it directly
  (:meth:`Expression.evaluate_interpreted`) and pins the two engines
  to bit-identical behaviour.

``Expression(text)`` and :func:`evaluate` go through a bounded global
intern cache (:data:`_EXPR_CACHE_MAX` entries, LRU), so repeated
expression texts — the common case on the shop/broker bid path —
parse and compile exactly once.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.errors import ClassAdError

__all__ = [
    "Undefined",
    "UNDEFINED",
    "ClassAd",
    "Expression",
    "evaluate",
    "equality_key",
    "parse_cache_info",
    "clear_parse_cache",
]


class Undefined:
    """Condor's UNDEFINED value (singleton)."""

    _instance: Optional["Undefined"] = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


#: The UNDEFINED singleton.
UNDEFINED = Undefined()

Value = Union[bool, int, float, str, Undefined, List["Value"]]

#: A compiled expression: ``(ad, other, depth) -> Value``.
CompiledFn = Callable[[Optional["ClassAd"], Optional["ClassAd"], int], Value]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>=\?=|=!=|==|!=|<=|>=|\|\||&&|[-+*/%!<>()\[\],.?:;=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"true", "false", "undefined"}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ClassAdError(
                f"lexical error at {text[pos:pos + 10]!r}"
            )
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group()))
    tokens.append(("eof", ""))
    return tokens


# ---------------------------------------------------------------------------
# AST (shared by both engines; ``eval`` is the reference interpreter,
# ``compile`` lowers to closures)
# ---------------------------------------------------------------------------

#: Maximum nesting depth of attribute-valued expression references.
_MAX_REF_DEPTH = 32
_DEPTH_MSG = "expression recursion too deep"


class _Node:
    __slots__ = ()

    def eval(self, scope: "_Scope") -> Value:
        raise NotImplementedError

    def compile(self) -> CompiledFn:
        raise NotImplementedError

    def is_const(self) -> bool:
        return False


def _compile_node(node: _Node) -> CompiledFn:
    """Compile ``node``, folding closed constant subexpressions.

    Folding evaluates the compiled closure once with empty scopes; a
    :class:`ClassAdError` (e.g. ``1/0`` or ``5 && true``) keeps the
    node dynamic so the error surfaces at evaluation time exactly as
    the interpreter raises it.  List results are never folded — each
    evaluation must return a fresh list.
    """
    fn = node.compile()
    if node.is_const():
        try:
            value = fn(None, None, 0)
        except ClassAdError:
            return fn
        if isinstance(value, list):
            return fn
        return lambda ad, other, depth: value
    return fn


class _Literal(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value

    def eval(self, scope: "_Scope") -> Value:
        return self.value

    def compile(self) -> CompiledFn:
        value = self.value
        return lambda ad, other, depth: value

    def is_const(self) -> bool:
        return True


class _Ref(_Node):
    __slots__ = ("scope_name", "attr", "attr_low", "kind")

    def __init__(self, scope_name: Optional[str], attr: str):
        self.scope_name = scope_name.lower() if scope_name else None
        self.attr = attr
        self.attr_low = attr.lower()
        if self.scope_name is None:
            self.kind = "bare"
        elif self.scope_name in ("my", "self"):
            self.kind = "self"
        elif self.scope_name in ("other", "target"):
            self.kind = "other"
        else:
            self.kind = "unknown"

    def eval(self, scope: "_Scope") -> Value:
        return scope.lookup(self.scope_name, self.attr)

    def compile(self) -> CompiledFn:  # noqa: C901
        attr = self.attr_low
        kind = self.kind

        if kind == "unknown":
            scope_name = self.scope_name

            def unknown(ad, other, depth):
                raise ClassAdError(f"unknown scope {scope_name!r}")

            return unknown

        if kind == "other":

            def deref_other(ad, other, depth):
                if depth > _MAX_REF_DEPTH:
                    raise ClassAdError(_DEPTH_MSG)
                if other is None:
                    return UNDEFINED
                raw = other._attrs.get(attr, UNDEFINED)
                if isinstance(raw, Expression):
                    # Attribute-valued expressions evaluate in their
                    # own ad's scope, keeping the counterpart bound.
                    return raw._fn(other, ad, depth + 1)
                return raw

            return deref_other

        if kind == "self":

            def deref_self(ad, other, depth):
                if depth > _MAX_REF_DEPTH:
                    raise ClassAdError(_DEPTH_MSG)
                if ad is None:
                    return UNDEFINED
                raw = ad._attrs.get(attr, UNDEFINED)
                if isinstance(raw, Expression):
                    return raw._fn(ad, other, depth + 1)
                return raw

            return deref_self

        def deref_bare(ad, other, depth):
            if depth > _MAX_REF_DEPTH:
                raise ClassAdError(_DEPTH_MSG)
            if ad is None:
                return UNDEFINED
            raw = ad._attrs.get(attr, UNDEFINED)
            if isinstance(raw, Expression):
                return raw._fn(ad, other, depth + 1)
            if raw is UNDEFINED and other is not None:
                # Condor falls through to the target ad for bare names.
                raw = other._attrs.get(attr, UNDEFINED)
                if isinstance(raw, Expression):
                    return raw._fn(other, ad, depth + 1)
            return raw

        return deref_bare


class _ListNode(_Node):
    __slots__ = ("items",)

    def __init__(self, items: List[_Node]):
        self.items = items

    def eval(self, scope: "_Scope") -> Value:
        return [item.eval(scope) for item in self.items]

    def compile(self) -> CompiledFn:
        fns = tuple(_compile_node(item) for item in self.items)
        return lambda ad, other, depth: [
            fn(ad, other, depth) for fn in fns
        ]

    def is_const(self) -> bool:
        # Lists are mutable results: compile the elements but never
        # collapse the node itself into a shared constant.
        return False


class _Unary(_Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: _Node):
        self.op = op
        self.operand = operand

    def eval(self, scope: "_Scope") -> Value:
        val = self.operand.eval(scope)
        if isinstance(val, Undefined):
            return UNDEFINED
        if self.op == "!":
            if isinstance(val, bool):
                return not val
            raise ClassAdError(f"! applied to non-boolean {val!r}")
        if self.op == "-":
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ClassAdError(f"- applied to non-number {val!r}")
            return -val
        raise ClassAdError(f"unknown unary {self.op}")  # pragma: no cover

    def compile(self) -> CompiledFn:
        sub = _compile_node(self.operand)
        if self.op == "!":

            def negate(ad, other, depth):
                val = sub(ad, other, depth)
                if val is True:
                    return False
                if val is False:
                    return True
                if val is UNDEFINED:
                    return UNDEFINED
                raise ClassAdError(f"! applied to non-boolean {val!r}")

            return negate

        def minus(ad, other, depth):
            val = sub(ad, other, depth)
            if val is UNDEFINED:
                return UNDEFINED
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ClassAdError(f"- applied to non-number {val!r}")
            return -val

        return minus

    def is_const(self) -> bool:
        return self.operand.is_const()


def _is_number(val: Value) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _make_comparator(op: str) -> Callable[[Value, Value], Value]:
    """Typed comparison with Condor semantics, operator pre-bound."""
    py = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }[op]
    is_equality = op in ("==", "!=")

    def compare(lhs: Value, rhs: Value) -> Value:
        if _is_number(lhs) and _is_number(rhs):
            return py(lhs, rhs)
        if isinstance(lhs, str) and isinstance(rhs, str):
            # Condor string comparison is case-insensitive.
            return py(lhs.lower(), rhs.lower())
        if isinstance(lhs, bool) and isinstance(rhs, bool):
            if not is_equality:
                raise ClassAdError("ordering applied to booleans")
            return py(lhs, rhs)
        if op == "==":
            return False
        if op == "!=":
            return True
        raise ClassAdError(f"cannot compare {lhs!r} with {rhs!r}")

    return compare


def _make_arithmetic(op: str) -> Callable[[Value, Value], Value]:
    """Typed arithmetic with Condor semantics, operator pre-bound."""

    def arith(lhs: Value, rhs: Value) -> Value:
        if op == "+" and isinstance(lhs, str) and isinstance(rhs, str):
            return lhs + rhs
        if not (_is_number(lhs) and _is_number(rhs)):
            raise ClassAdError(
                f"arithmetic {op} on non-numbers {lhs!r}, {rhs!r}"
            )
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                raise ClassAdError("division by zero")
            result = lhs / rhs
            if isinstance(lhs, int) and isinstance(rhs, int):
                return int(lhs // rhs) if lhs % rhs == 0 else result
            return result
        if rhs == 0:
            raise ClassAdError("modulo by zero")
        return lhs % rhs

    return arith


_COMPARATORS = {
    op: _make_comparator(op) for op in ("==", "!=", "<", "<=", ">", ">=")
}
_ARITHMETIC = {op: _make_arithmetic(op) for op in ("+", "-", "*", "/", "%")}


class _Binary(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: _Node, right: _Node):
        self.op = op
        self.left = left
        self.right = right

    def eval(self, scope: "_Scope") -> Value:  # noqa: C901
        op = self.op
        if op == "&&":
            lhs = self.left.eval(scope)
            if lhs is False:
                return False
            rhs = self.right.eval(scope)
            if rhs is False:
                return False
            if isinstance(lhs, Undefined) or isinstance(rhs, Undefined):
                return UNDEFINED
            if lhs is True and rhs is True:
                return True
            raise ClassAdError("&& applied to non-boolean")
        if op == "||":
            lhs = self.left.eval(scope)
            if lhs is True:
                return True
            rhs = self.right.eval(scope)
            if rhs is True:
                return True
            if isinstance(lhs, Undefined) or isinstance(rhs, Undefined):
                return UNDEFINED
            if lhs is False and rhs is False:
                return False
            raise ClassAdError("|| applied to non-boolean")

        lhs = self.left.eval(scope)
        rhs = self.right.eval(scope)

        if op == "=?=":
            return type(lhs) is type(rhs) and lhs == rhs
        if op == "=!=":
            return not (type(lhs) is type(rhs) and lhs == rhs)

        if isinstance(lhs, Undefined) or isinstance(rhs, Undefined):
            return UNDEFINED

        if op in ("==", "!=", "<", "<=", ">", ">="):
            if _is_number(lhs) and _is_number(rhs):
                pass
            elif isinstance(lhs, str) and isinstance(rhs, str):
                # Condor string comparison is case-insensitive.
                lhs, rhs = lhs.lower(), rhs.lower()
            elif isinstance(lhs, bool) and isinstance(rhs, bool):
                if op not in ("==", "!="):
                    raise ClassAdError("ordering applied to booleans")
            else:
                if op == "==":
                    return False
                if op == "!=":
                    return True
                raise ClassAdError(
                    f"cannot compare {lhs!r} with {rhs!r}"
                )
            return {
                "==": lambda a, b: a == b,
                "!=": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }[op](lhs, rhs)

        if op in ("+", "-", "*", "/", "%"):
            if op == "+" and isinstance(lhs, str) and isinstance(rhs, str):
                return lhs + rhs
            if not (_is_number(lhs) and _is_number(rhs)):
                raise ClassAdError(
                    f"arithmetic {op} on non-numbers {lhs!r}, {rhs!r}"
                )
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                if rhs == 0:
                    raise ClassAdError("division by zero")
                result = lhs / rhs
                if isinstance(lhs, int) and isinstance(rhs, int):
                    return int(lhs // rhs) if lhs % rhs == 0 else result
                return result
            if op == "%":
                if rhs == 0:
                    raise ClassAdError("modulo by zero")
                return lhs % rhs
        raise ClassAdError(f"unknown operator {op}")  # pragma: no cover

    def compile(self) -> CompiledFn:  # noqa: C901
        op = self.op
        lf = _compile_node(self.left)
        rf = _compile_node(self.right)

        if op == "&&":

            def logical_and(ad, other, depth):
                lhs = lf(ad, other, depth)
                if lhs is False:
                    return False
                rhs = rf(ad, other, depth)
                if rhs is False:
                    return False
                if lhs is UNDEFINED or rhs is UNDEFINED:
                    return UNDEFINED
                if lhs is True and rhs is True:
                    return True
                raise ClassAdError("&& applied to non-boolean")

            return logical_and

        if op == "||":

            def logical_or(ad, other, depth):
                lhs = lf(ad, other, depth)
                if lhs is True:
                    return True
                rhs = rf(ad, other, depth)
                if rhs is True:
                    return True
                if lhs is UNDEFINED or rhs is UNDEFINED:
                    return UNDEFINED
                if lhs is False and rhs is False:
                    return False
                raise ClassAdError("|| applied to non-boolean")

            return logical_or

        if op == "=?=":

            def meta_eq(ad, other, depth):
                lhs = lf(ad, other, depth)
                rhs = rf(ad, other, depth)
                return type(lhs) is type(rhs) and lhs == rhs

            return meta_eq

        if op == "=!=":

            def meta_ne(ad, other, depth):
                lhs = lf(ad, other, depth)
                rhs = rf(ad, other, depth)
                return not (type(lhs) is type(rhs) and lhs == rhs)

            return meta_ne

        typed = _COMPARATORS.get(op) or _ARITHMETIC.get(op)
        if typed is None:  # pragma: no cover - parser emits known ops
            raise ClassAdError(f"unknown operator {op}")

        def binary(ad, other, depth):
            lhs = lf(ad, other, depth)
            rhs = rf(ad, other, depth)
            if lhs is UNDEFINED or rhs is UNDEFINED:
                return UNDEFINED
            return typed(lhs, rhs)

        return binary

    def is_const(self) -> bool:
        return self.left.is_const() and self.right.is_const()


def _fn_size(value: Value) -> Value:
    if isinstance(value, (str, list)):
        return len(value)
    raise ClassAdError("size() requires a string or list")


def _fn_member(needle: Value, haystack: Value) -> Value:
    if not isinstance(haystack, list):
        raise ClassAdError("member() requires a list second argument")
    for item in haystack:
        if isinstance(item, str) and isinstance(needle, str):
            if item.lower() == needle.lower():
                return True
        elif type(item) is type(needle) and item == needle:
            return True
    return False


def _numeric_fn(name, fn):
    def wrapped(*args: Value) -> Value:
        for arg in args:
            if not _is_number(arg):
                raise ClassAdError(f"{name}() requires numbers")
        return fn(*args)

    return wrapped


#: Built-in function table (Condor-style, case-insensitive names).
_FUNCTIONS: Dict[str, Any] = {
    "floor": _numeric_fn("floor", lambda x: int(x // 1)),
    "ceiling": _numeric_fn(
        "ceiling", lambda x: int(-((-x) // 1))
    ),
    "round": _numeric_fn("round", lambda x: int(x + 0.5) if x >= 0
                         else -int(-x + 0.5)),
    "min": _numeric_fn("min", min),
    "max": _numeric_fn("max", max),
    "strcat": lambda *args: "".join(
        a if isinstance(a, str) else _format_value(a) for a in args
    ),
    "tolower": lambda s: _require_str("toLower", s).lower(),
    "toupper": lambda s: _require_str("toUpper", s).upper(),
    "size": _fn_size,
    "member": _fn_member,
}


def _require_str(name: str, value: Value) -> str:
    if not isinstance(value, str):
        raise ClassAdError(f"{name}() requires a string")
    return value


class _Call(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: List[_Node]):
        self.name = name.lower()
        self.args = args
        if self.name not in _FUNCTIONS:
            raise ClassAdError(f"unknown function {name!r}")

    def eval(self, scope: "_Scope") -> Value:
        values = [arg.eval(scope) for arg in self.args]
        if any(isinstance(v, Undefined) for v in values):
            return UNDEFINED
        try:
            return _FUNCTIONS[self.name](*values)
        except TypeError as exc:
            raise ClassAdError(
                f"{self.name}(): bad arity ({len(values)} args)"
            ) from exc

    def compile(self) -> CompiledFn:
        fns = tuple(_compile_node(arg) for arg in self.args)
        func = _FUNCTIONS[self.name]
        name = self.name

        def call(ad, other, depth):
            values = [fn(ad, other, depth) for fn in fns]
            for value in values:
                if value is UNDEFINED:
                    return UNDEFINED
            try:
                return func(*values)
            except TypeError as exc:
                raise ClassAdError(
                    f"{name}(): bad arity ({len(values)} args)"
                ) from exc

        return call

    def is_const(self) -> bool:
        # All built-ins are pure, so a call over constants is constant.
        return all(arg.is_const() for arg in self.args)


class _Ternary(_Node):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: _Node, then: _Node, orelse: _Node):
        self.cond = cond
        self.then = then
        self.orelse = orelse

    def eval(self, scope: "_Scope") -> Value:
        cond = self.cond.eval(scope)
        if isinstance(cond, Undefined):
            return UNDEFINED
        if not isinstance(cond, bool):
            raise ClassAdError("ternary condition must be boolean")
        return self.then.eval(scope) if cond else self.orelse.eval(scope)

    def compile(self) -> CompiledFn:
        cf = _compile_node(self.cond)
        tf = _compile_node(self.then)
        of = _compile_node(self.orelse)

        def ternary(ad, other, depth):
            cond = cf(ad, other, depth)
            if cond is True:
                return tf(ad, other, depth)
            if cond is False:
                return of(ad, other, depth)
            if cond is UNDEFINED:
                return UNDEFINED
            raise ClassAdError("ternary condition must be boolean")

        return ternary

    def is_const(self) -> bool:
        return (
            self.cond.is_const()
            and self.then.is_const()
            and self.orelse.is_const()
        )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    __slots__ = ("tokens", "pos")

    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        kind, value = self.next()
        if value != text:
            raise ClassAdError(f"expected {text!r}, got {value!r}")

    def parse_expr(self) -> _Node:
        node = self.parse_or()
        if self.peek()[1] == "?":
            self.next()
            then = self.parse_expr()
            self.expect(":")
            orelse = self.parse_expr()
            return _Ternary(node, then, orelse)
        return node

    def _binary_chain(self, sub, ops) -> _Node:
        node = sub()
        while self.peek()[1] in ops:
            op = self.next()[1]
            node = _Binary(op, node, sub())
        return node

    def parse_or(self) -> _Node:
        return self._binary_chain(self.parse_and, ("||",))

    def parse_and(self) -> _Node:
        return self._binary_chain(self.parse_meta, ("&&",))

    def parse_meta(self) -> _Node:
        return self._binary_chain(self.parse_cmp, ("=?=", "=!="))

    def parse_cmp(self) -> _Node:
        return self._binary_chain(
            self.parse_add, ("==", "!=", "<", "<=", ">", ">=")
        )

    def parse_add(self) -> _Node:
        return self._binary_chain(self.parse_mul, ("+", "-"))

    def parse_mul(self) -> _Node:
        return self._binary_chain(self.parse_unary, ("*", "/", "%"))

    def parse_unary(self) -> _Node:
        if self.peek()[1] in ("!", "-"):
            op = self.next()[1]
            return _Unary(op, self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> _Node:
        kind, value = self.next()
        if kind == "int":
            return _Literal(int(value))
        if kind == "float":
            return _Literal(float(value))
        if kind == "string":
            return _Literal(_unescape(value[1:-1]))
        if kind == "ident":
            low = value.lower()
            if low == "true":
                return _Literal(True)
            if low == "false":
                return _Literal(False)
            if low == "undefined":
                return _Literal(UNDEFINED)
            if self.peek()[1] == "(":
                self.next()
                args: List[_Node] = []
                if self.peek()[1] != ")":
                    args.append(self.parse_expr())
                    while self.peek()[1] == ",":
                        self.next()
                        args.append(self.parse_expr())
                self.expect(")")
                return _Call(value, args)
            if self.peek()[1] == ".":
                self.next()
                kind2, attr = self.next()
                if kind2 != "ident":
                    raise ClassAdError(f"expected attribute after {value}.")
                return _Ref(value, attr)
            return _Ref(None, value)
        if value == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if value == "[":
            items: List[_Node] = []
            if self.peek()[1] != "]":
                items.append(self.parse_expr())
                while self.peek()[1] == ",":
                    self.next()
                    items.append(self.parse_expr())
            self.expect("]")
            return _ListNode(items)
        raise ClassAdError(f"unexpected token {value!r}")


_UNESCAPE_MAP = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def _unescape(body: str) -> str:
    # Single pass so an escaped backslash can never re-combine with a
    # following character into a second escape.
    return re.sub(
        r"\\(.)",
        lambda m: _UNESCAPE_MAP.get(m.group(1), m.group(0)),
        body,
    )


def _escape(body: str) -> str:
    return (
        body.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace("\r", "\\r")
    )


def _fold_constant(node: _Node) -> _Node:
    """Fold ``-<number>`` (arbitrarily nested) into a literal node."""
    if isinstance(node, _Unary) and node.op == "-":
        inner = _fold_constant(node.operand)
        if isinstance(inner, _Literal) and _is_number(inner.value):
            return _Literal(-inner.value)
    if isinstance(node, _ListNode):
        return _ListNode([_fold_constant(i) for i in node.items])
    return node


def equality_key(value: Any) -> Optional[tuple]:
    """Normalized hash key under classad ``==`` semantics, or None.

    Two scalar values satisfy ``a == b`` exactly when their keys are
    equal: strings compare case-insensitively, booleans only against
    booleans, and numbers cross int/float (``("n", 1)`` and
    ``("n", 1.0)`` are equal dict keys).  Lists, UNDEFINED and
    :class:`Expression` values are not equality-indexable and map to
    None.
    """
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", value)
    if isinstance(value, str):
        return ("s", value.lower())
    return None


# ---------------------------------------------------------------------------
# Expression: parse/intern cache + engine switch
# ---------------------------------------------------------------------------

#: Upper bound on the global expression intern cache (LRU).
_EXPR_CACHE_MAX = 4096
_EXPR_CACHE: "OrderedDict[str, Expression]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def parse_cache_info() -> Dict[str, int]:
    """Intern-cache statistics (size, bound, hits, misses)."""
    return {
        "size": len(_EXPR_CACHE),
        "max": _EXPR_CACHE_MAX,
        "hits": _cache_hits,
        "misses": _cache_misses,
    }


def clear_parse_cache() -> None:
    """Drop every interned expression (tests and benchmarks)."""
    _EXPR_CACHE.clear()


class Expression:
    """A parsed, compiled, interned, reusable classad expression.

    Construction is amortized O(1) for repeated texts: instances are
    interned in a bounded LRU cache keyed by the exact source text, so
    ``Expression(text) is Expression(text)`` while the cache holds the
    entry.  Each instance carries both the AST (the reference
    interpreter) and the compiled closure chain (the default engine).
    """

    __slots__ = ("text", "_ast", "_fn", "_constraints")

    def __new__(cls, text: str) -> "Expression":
        global _cache_hits, _cache_misses
        if cls is Expression:
            cached = _EXPR_CACHE.get(text)
            if cached is not None:
                _cache_hits += 1
                _EXPR_CACHE.move_to_end(text)
                return cached
            _cache_misses += 1
        self = super().__new__(cls)
        self.text = text
        parser = _Parser(_tokenize(text))
        ast = parser.parse_expr()
        if parser.peek()[0] != "eof":
            raise ClassAdError(
                f"trailing input after expression: {parser.peek()[1]!r}"
            )
        self._ast = ast
        self._fn = _compile_node(ast)
        self._constraints = None
        if cls is Expression:
            _EXPR_CACHE[text] = self
            if len(_EXPR_CACHE) > _EXPR_CACHE_MAX:
                _EXPR_CACHE.popitem(last=False)
        return self

    def __init__(self, text: str):
        # All construction happens in __new__ so interned cache hits
        # skip re-parsing entirely.
        pass

    def evaluate(
        self,
        ad: Optional["ClassAd"] = None,
        other: Optional["ClassAd"] = None,
    ) -> Value:
        """Evaluate against ``ad`` (``self``/``my``) and ``other``."""
        return self._fn(ad, other, 0)

    def evaluate_compiled(
        self,
        ad: Optional["ClassAd"] = None,
        other: Optional["ClassAd"] = None,
    ) -> Value:
        """Force the compiled engine (differential tests/benchmarks)."""
        return self._fn(ad, other, 0)

    def evaluate_interpreted(
        self,
        ad: Optional["ClassAd"] = None,
        other: Optional["ClassAd"] = None,
    ) -> Value:
        """Force the reference interpreter (differential tests)."""
        return self._ast.eval(_Scope(ad, other))

    def equality_constraints(self) -> Tuple[Tuple[str, str, tuple], ...]:
        """Top-level equality conjuncts, for index pre-filtering.

        Walks ``&&`` conjunctions from the root and extracts every
        ``<ref> == <scalar literal>`` (either side) as
        ``(attribute_lower, scope_kind, equality_key)`` with
        ``scope_kind`` one of ``"bare"``, ``"self"``, ``"other"``.
        A consumer may prune a candidate ``other`` ad when a
        constraint's attribute holds a non-Expression value whose
        :func:`equality_key` differs — that conjunct then evaluates to
        False or UNDEFINED, so the whole conjunction cannot be True.
        """
        cached = self._constraints
        if cached is None:
            out: List[Tuple[str, str, tuple]] = []
            stack: List[_Node] = [self._ast]
            while stack:
                node = stack.pop()
                if isinstance(node, _Binary):
                    if node.op == "&&":
                        stack.append(node.left)
                        stack.append(node.right)
                    elif node.op == "==":
                        for ref, lit in (
                            (node.left, node.right),
                            (node.right, node.left),
                        ):
                            if isinstance(ref, _Ref) and isinstance(
                                lit, _Literal
                            ):
                                key = equality_key(lit.value)
                                if key is not None and ref.kind != "unknown":
                                    out.append((ref.attr_low, ref.kind, key))
            cached = tuple(out)
            self._constraints = cached
        return cached

    def __reduce__(self):
        # Closures don't pickle; re-intern from the source text.
        return (Expression, (self.text,))

    def __repr__(self) -> str:
        return f"Expression({self.text!r})"


class _Scope:
    """Name-resolution context: the owning ad plus the matched ad.

    ``_depth`` counts the nesting of attribute-valued expression
    references and is threaded into the child scope each hop, so a
    reference chain deeper than :data:`_MAX_REF_DEPTH` raises
    :class:`ClassAdError` — the same bound the compiled closures
    enforce through their ``depth`` argument.
    """

    __slots__ = ("ad", "other", "_depth")

    def __init__(
        self,
        ad: Optional["ClassAd"],
        other: Optional["ClassAd"],
        depth: int = 0,
    ):
        self.ad = ad
        self.other = other
        self._depth = depth

    def lookup(self, scope_name: Optional[str], attr: str) -> Value:
        if self._depth > _MAX_REF_DEPTH:
            raise ClassAdError(_DEPTH_MSG)
        if scope_name in ("other", "target"):
            source = self.other
        elif scope_name in ("my", "self") or scope_name is None:
            source = self.ad
        else:
            raise ClassAdError(f"unknown scope {scope_name!r}")
        if source is None:
            return UNDEFINED
        raw = source.lookup(attr)
        if isinstance(raw, Expression):
            # Attribute-valued expressions evaluate in their own
            # ad's scope, keeping ``other`` bound.
            return raw._ast.eval(
                _Scope(
                    source,
                    self.other if source is self.ad else self.ad,
                    self._depth + 1,
                )
            )
        if scope_name is None and raw is UNDEFINED and self.other is not None:
            # Condor falls through to the target ad for bare names.
            raw2 = self.other.lookup(attr)
            if isinstance(raw2, Expression):
                return raw2._ast.eval(
                    _Scope(self.other, self.ad, self._depth + 1)
                )
            return raw2
        return raw


def evaluate(
    text: str,
    ad: Optional["ClassAd"] = None,
    other: Optional["ClassAd"] = None,
) -> Value:
    """Evaluate ``text`` in one call (parse/compile interned)."""
    return Expression(text).evaluate(ad, other)


#: What an attribute, or an element of a list-valued one, may hold.
_SCALARS = (bool, int, float, str, Undefined, Expression)


class ClassAd:
    """Case-insensitive ordered attribute map with lazy expressions.

    Values set via :meth:`__setitem__` are stored verbatim; values set
    via :meth:`set_expression` are parsed and evaluated on access
    through :meth:`eval`.
    """

    __slots__ = ("_attrs", "_names")

    def __init__(self, attrs: Optional[Dict[str, Any]] = None):
        self._attrs: Dict[str, Value] = {}
        self._names: Dict[str, str] = {}  # lower → original spelling
        if attrs:
            self.update(attrs)

    # -- mapping interface -------------------------------------------------
    def __setitem__(self, key: str, value: Any) -> None:
        if not isinstance(value, _SCALARS):
            value = self._checked_list(value)
        # An already-lower key is its own folded form: shared, not
        # copied (``str.lower`` always builds a new string).
        low = key if key.islower() else key.lower()
        self._names[low] = key
        self._attrs[low] = value

    @staticmethod
    def _checked_list(value: Any) -> List[Value]:
        # Lists accept the same element types scalars do, including
        # nested unevaluated expressions.
        if not isinstance(value, (list, tuple)):
            raise ClassAdError(
                f"unsupported classad value type {type(value).__name__}"
            )
        for element in value:
            if not isinstance(element, _SCALARS):
                raise ClassAdError(
                    f"unsupported list element type {type(element).__name__}"
                )
        return list(value)

    def set_expression(self, key: str, text: str) -> None:
        """Store ``text`` as a lazily evaluated expression."""
        self[key] = Expression(text)

    def __getitem__(self, key: str) -> Value:
        val = self._attrs.get(key.lower(), UNDEFINED)
        if isinstance(val, Undefined):
            raise KeyError(key)
        return val

    def lookup(self, key: str) -> Value:
        """Like ``[]`` but returns UNDEFINED instead of raising."""
        return self._attrs.get(key.lower(), UNDEFINED)

    def get(self, key: str, default: Any = None) -> Any:
        val = self._attrs.get(key.lower(), UNDEFINED)
        return default if isinstance(val, Undefined) else val

    def __contains__(self, key: str) -> bool:
        return key.lower() in self._attrs

    def __delitem__(self, key: str) -> None:
        low = key.lower()
        del self._attrs[low]
        del self._names[low]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names.values())

    def __len__(self) -> int:
        return len(self._attrs)

    def items(self) -> Iterator[Tuple[str, Value]]:
        for low, name in self._names.items():
            yield name, self._attrs[low]

    def update(self, other: Union["ClassAd", Dict[str, Any]]) -> None:
        # ``__setitem__`` written out: an ad is built a block of
        # attributes at a time, and a call per attribute was most of
        # what building one cost.
        names, attrs = self._names, self._attrs
        for key, value in other.items():
            if not isinstance(value, _SCALARS):
                value = self._checked_list(value)
            low = key if key.islower() else key.lower()
            names[low] = key
            attrs[low] = value

    def copy(self) -> "ClassAd":
        dup = ClassAd()
        dup._attrs = dict(self._attrs)
        dup._names = dict(self._names)
        return dup

    # -- evaluation ---------------------------------------------------------
    def eval(self, key: str, other: Optional["ClassAd"] = None) -> Value:
        """Evaluate attribute ``key`` (expressions resolved)."""
        raw = self.lookup(key)
        if isinstance(raw, Expression):
            return raw.evaluate(self, other)
        return raw

    def matches(self, other: "ClassAd") -> bool:
        """Unilateral match: does ``self.requirements`` accept ``other``?

        A missing requirements attribute accepts everything; an
        UNDEFINED result rejects (Condor semantics).
        """
        raw = self._attrs.get("requirements", UNDEFINED)
        if isinstance(raw, Undefined):
            return True
        if not isinstance(raw, Expression):
            return bool(raw is True)
        return raw._fn(self, other, 0) is True

    def symmetric_match(self, other: "ClassAd") -> bool:
        """Bilateral match: both ads' requirements accept each other."""
        return self.matches(other) and other.matches(self)

    # -- serialization --------------------------------------------------------
    def to_string(self) -> str:
        """Condor-style ``[a = 1; b = "x"]`` text form."""
        parts = []
        for name, value in self.items():
            parts.append(f"{name} = {_format_value(value)}")
        return "[" + "; ".join(parts) + "]"

    @classmethod
    def from_string(cls, text: str) -> "ClassAd":
        """Parse the text form produced by :meth:`to_string`."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ClassAdError("classad text must be bracketed")
        parser = _Parser(_tokenize(text[1:-1]))
        ad = cls()
        while parser.peek()[0] != "eof":
            kind, name = parser.next()
            if kind != "ident":
                raise ClassAdError(f"expected attribute name, got {name!r}")
            parser.expect("=")
            start = parser.pos
            node = parser.parse_expr()
            end = parser.pos
            # Literals (including negated numbers) are stored as
            # values; anything else as an expression (re-rendered from
            # the consumed tokens).
            node = _fold_constant(node)
            if isinstance(node, _Literal):
                ad[name] = node.value
            elif isinstance(node, _ListNode) and all(
                isinstance(i, _Literal) for i in node.items
            ):
                ad[name] = [i.value for i in node.items]
            else:
                toks = [t[1] for t in parser.tokens[start:end]]
                ad.set_expression(name, " ".join(toks))
            if parser.peek()[1] == ";":
                parser.next()
        return ad

    def __getstate__(self):
        return (self._attrs, self._names)

    def __setstate__(self, state):
        self._attrs, self._names = state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassAd):
            return NotImplemented
        mine = {
            k: (v.text if isinstance(v, Expression) else v)
            for k, v in self._attrs.items()
        }
        theirs = {
            k: (v.text if isinstance(v, Expression) else v)
            for k, v in other._attrs.items()
        }
        return mine == theirs

    def __repr__(self) -> str:
        return f"ClassAd({self.to_string()})"


def _format_value(value: Value) -> str:
    if isinstance(value, Expression):
        return value.text
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Undefined):
        return "undefined"
    if isinstance(value, str):
        return f'"{_escape(value)}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return repr(value)
