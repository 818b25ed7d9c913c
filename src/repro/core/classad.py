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

An :class:`Expression` is compiled to one generated Python function
``_fn(ad, other, depth)``, written from its AST and ``compile()``-d
once per text (the technique ``dataclasses`` uses for ``__init__``).
Attribute fetch, comparison of numbers or of a string with a string
literal, and ``&&``/``||`` are inline; UNDEFINED, lists, type
mismatches, arithmetic and built-in calls go to shared helpers.  A
``matches`` call is then two Python calls.  The tree-walking
interpreter this replaced is the reference it is held to, error text
included (``tests/oracles/classad_interp.py``).

``Expression(text)`` and :func:`evaluate` go through a bounded global
intern cache (:data:`_EXPR_CACHE_MAX` entries, LRU), so repeated
expression texts — the common case on the shop/broker bid path —
parse and compile exactly once.
"""

from __future__ import annotations

import operator
import re
from collections import OrderedDict
from math import isfinite
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
# AST (``emit`` writes a node as Python source, see :class:`_Codegen`)
# ---------------------------------------------------------------------------

#: Maximum nesting depth of attribute-valued expression references.
_MAX_REF_DEPTH = 32
_DEPTH_MSG = "expression recursion too deep"

#: ``type(x)`` test of the generated numeric fast path (an ``int``
#: subclass such as ``bool`` takes the slow path).
_IS_NUMBER = "(type({0}) is int or type({0}) is float)"


class _Node:
    __slots__ = ()

    def emit(self, gen: "_Codegen", ind: int) -> str:
        """Append the statements computing this node to ``gen`` at
        indent ``ind``; return the source of the computed value."""
        raise NotImplementedError


class _Literal(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value

    def emit(self, gen: "_Codegen", ind: int) -> str:
        return gen.const(self.value)


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

    def emit(self, gen: "_Codegen", ind: int) -> str:
        gen.line(ind, f"if depth > {_MAX_REF_DEPTH}:")
        gen.line(ind + 1, "raise ClassAdError(_DEPTH_MSG)")
        if self.kind == "unknown":
            message = f"unknown scope {self.scope_name!r}"
            gen.line(ind, f"raise ClassAdError({message!r})")
            return "UNDEFINED"
        if self.kind == "other":
            own, their = "other", "ad"
        else:
            own, their = "ad", "other"
        key = repr(self.attr_low)
        out = gen.temp()
        gen.line(ind, f"if {own} is None:")
        gen.line(ind + 1, f"{out} = UNDEFINED")
        gen.line(ind, "else:")
        gen.line(ind + 1, f"{out} = {own}._attrs.get({key}, UNDEFINED)")
        # Attribute-valued expressions evaluate in their own ad's
        # scope, keeping the counterpart bound.
        gen.line(ind + 1, f"if isinstance({out}, Expression):")
        gen.line(ind + 2, f"{out} = {out}._fn({own}, {their}, depth + 1)")
        if self.kind == "bare":
            # Condor falls through to the target ad for bare names.
            gen.line(
                ind + 1, f"elif {out} is UNDEFINED and other is not None:"
            )
            gen.line(ind + 2, f"{out} = other._attrs.get({key}, UNDEFINED)")
            gen.line(ind + 2, f"if isinstance({out}, Expression):")
            gen.line(ind + 3, f"{out} = {out}._fn(other, ad, depth + 1)")
        return out


class _ListNode(_Node):
    """A list literal: each evaluation builds a fresh list."""

    __slots__ = ("items",)

    def __init__(self, items: List[_Node]):
        self.items = items

    def emit(self, gen: "_Codegen", ind: int) -> str:
        items = [item.emit(gen, ind) for item in self.items]
        out = gen.temp()
        gen.line(ind, f"{out} = [{', '.join(items)}]")
        return out


class _Unary(_Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: _Node):
        self.op = op
        self.operand = operand

    def emit(self, gen: "_Codegen", ind: int) -> str:
        val = gen.var(self.operand.emit(gen, ind), ind)
        out = gen.temp()
        if self.op == "!":
            gen.line(
                ind,
                f"{out} = False if {val} is True else True if {val} is False"
                f" else _unary('!', {val})",
            )
        else:
            gen.line(
                ind,
                f"{out} = -{val} if {_IS_NUMBER.format(val)}"
                f" else _unary('-', {val})",
            )
        return out


def _is_number(val: Value) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _unary(op: str, val: Value) -> Value:
    """``!val`` / ``-val``, every case (the generated code inlines
    ``!`` of a boolean and ``-`` of an ``int`` or ``float``)."""
    if val is UNDEFINED:
        return UNDEFINED
    if op == "!":
        if isinstance(val, bool):
            return not val
        raise ClassAdError(f"! applied to non-boolean {val!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ClassAdError(f"- applied to non-number {val!r}")
    return -val


def _compare(op: str, lhs: Value, rhs: Value) -> Value:
    """``lhs op rhs`` with Condor typing, every case (the generated code
    inlines two numbers, and a string against a string literal)."""
    if lhs is UNDEFINED or rhs is UNDEFINED:
        return UNDEFINED
    if _is_number(lhs) and _is_number(rhs):
        pass
    elif isinstance(lhs, str) and isinstance(rhs, str):
        # Condor string comparison is case-insensitive.
        lhs, rhs = lhs.lower(), rhs.lower()
    elif isinstance(lhs, bool) and isinstance(rhs, bool):
        if op != "==" and op != "!=":
            raise ClassAdError("ordering applied to booleans")
    elif op == "==":
        return False
    elif op == "!=":
        return True
    else:
        raise ClassAdError(f"cannot compare {lhs!r} with {rhs!r}")
    return _COMPARISONS[op](lhs, rhs)


def _arith(op: str, lhs: Value, rhs: Value) -> Value:
    """``lhs op rhs`` for an arithmetic operator with Condor typing."""
    if lhs is UNDEFINED or rhs is UNDEFINED:
        return UNDEFINED
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


class _Binary(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: _Node, right: _Node):
        self.op = op
        self.left = left
        self.right = right

    def emit(self, gen: "_Codegen", ind: int) -> str:
        op = self.op
        if op == "&&" or op == "||":
            return self._emit_logic(gen, ind)
        lhs = self.left.emit(gen, ind)
        rhs = self.right.emit(gen, ind)
        out = gen.temp()
        if op == "=?=":
            value = f"type({lhs}) is type({rhs}) and {lhs} == {rhs}"
        elif op == "=!=":
            value = f"not (type({lhs}) is type({rhs}) and {lhs} == {rhs})"
        elif op in _COMPARISONS:
            value = gen.compare(op, lhs, rhs)
        else:
            value = f"_arith({op!r}, {lhs}, {rhs})"
        gen.line(ind, f"{out} = {value}")
        return out

    def _emit_logic(self, gen: "_Codegen", ind: int) -> str:
        # ``decides`` settles the result alone, whichever side holds it.
        if self.op == "&&":
            decides, other = "False", "True"
        else:
            decides, other = "True", "False"
        lhs = gen.var(self.left.emit(gen, ind), ind)
        out = gen.temp()
        gen.line(ind, f"if {lhs} is {decides}:")
        gen.line(ind + 1, f"{out} = {decides}")
        gen.line(ind, "else:")
        rhs = gen.var(self.right.emit(gen, ind + 1), ind + 1)
        gen.line(ind + 1, f"if {rhs} is {decides}:")
        gen.line(ind + 2, f"{out} = {decides}")
        gen.line(ind + 1, f"elif {lhs} is {other} and {rhs} is {other}:")
        gen.line(ind + 2, f"{out} = {other}")
        gen.line(ind + 1, f"elif {lhs} is UNDEFINED or {rhs} is UNDEFINED:")
        gen.line(ind + 2, f"{out} = UNDEFINED")
        gen.line(ind + 1, "else:")
        message = f"{self.op} applied to non-boolean"
        gen.line(ind + 2, f"raise ClassAdError({message!r})")
        return out


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

#: The name each built-in goes by in generated code.
_FUNCTION_ALIASES = {name: f"_call{i}" for i, name in enumerate(_FUNCTIONS)}


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

    def emit(self, gen: "_Codegen", ind: int) -> str:
        args = [arg.emit(gen, ind) for arg in self.args]
        out = gen.temp()
        # A constant argument other than UNDEFINED needs no test.
        maybe_undefined = [
            f"{arg} is UNDEFINED"
            for arg in args
            if gen.known.get(arg, UNDEFINED) is UNDEFINED
        ]
        if maybe_undefined:
            gen.line(ind, f"if {' or '.join(maybe_undefined)}:")
            gen.line(ind + 1, f"{out} = UNDEFINED")
            gen.line(ind, "else:")
            ind += 1
        call = f"{_FUNCTION_ALIASES[self.name]}({', '.join(args)})"
        message = f"{self.name}(): bad arity ({len(args)} args)"
        gen.line(ind, "try:")
        gen.line(ind + 1, f"{out} = {call}")
        gen.line(ind, "except TypeError as exc:")
        gen.line(ind + 1, f"raise ClassAdError({message!r}) from exc")
        return out


class _Ternary(_Node):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: _Node, then: _Node, orelse: _Node):
        self.cond = cond
        self.then = then
        self.orelse = orelse

    def emit(self, gen: "_Codegen", ind: int) -> str:
        cond = gen.var(self.cond.emit(gen, ind), ind)
        out = gen.temp()
        gen.line(ind, f"if {cond} is True:")
        value = self.then.emit(gen, ind + 1)
        gen.line(ind + 1, f"{out} = {value}")
        gen.line(ind, f"elif {cond} is False:")
        value = self.orelse.emit(gen, ind + 1)
        gen.line(ind + 1, f"{out} = {value}")
        gen.line(ind, f"elif {cond} is UNDEFINED:")
        gen.line(ind + 1, f"{out} = UNDEFINED")
        gen.line(ind, "else:")
        gen.line(
            ind + 1, "raise ClassAdError('ternary condition must be boolean')"
        )
        return out


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

_NOTHING = object()


class _Codegen:
    """Writes one AST as the body of ``def _f(ad, other, depth)``.

    A node's ``emit(gen, ind)`` appends the statements that compute it
    and returns the source of its value: a literal, or a local assigned
    once.  Request text reaches the source only through ``repr`` of a
    literal or an attribute name; a value with no literal (``inf``,
    ``nan``, an int too long for ``repr``) is bound in the function's
    globals instead.
    """

    __slots__ = ("lines", "known", "bound", "temps")

    def __init__(self):
        self.lines: List[str] = []
        #: Source of each constant written so far -> its value.
        self.known: Dict[str, Value] = {}
        self.bound: Dict[str, Value] = {}
        self.temps = 0

    def line(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def temp(self) -> str:
        self.temps += 1
        return f"_{self.temps}"

    def const(self, value: Value) -> str:
        if value is UNDEFINED:
            source = "UNDEFINED"
        elif (isinstance(value, float) and not isfinite(value)) or (
            isinstance(value, int) and value.bit_length() > 128
        ):
            source = f"_k{len(self.bound)}"
            self.bound[source] = value
        else:
            source = repr(value)
        self.known[source] = value
        return source

    def var(self, source: str, ind: int) -> str:
        """``source`` in a form ``is`` may test (no int/str literal)."""
        value = self.known.get(source, _NOTHING)
        if value is _NOTHING or value is True or value is False or (
            value is UNDEFINED
        ):
            return source
        out = self.temp()
        self.line(ind, f"{out} = {source}")
        return out

    def compare(self, op: str, lhs: str, rhs: str) -> str:
        slow = f"_compare({op!r}, {lhs}, {rhs})"
        left = self.known.get(lhs, _NOTHING)
        right = self.known.get(rhs, _NOTHING)
        if left is not _NOTHING and right is not _NOTHING:
            return slow
        if type(left) is int or type(left) is float:
            return f"{lhs} {op} {rhs} if {_IS_NUMBER.format(rhs)} else {slow}"
        if type(right) is int or type(right) is float:
            return f"{lhs} {op} {rhs} if {_IS_NUMBER.format(lhs)} else {slow}"
        if type(left) is str:
            low = repr(left.lower())
            test = f"type({rhs}) is str"
            return f"{low} {op} {rhs}.lower() if {test} else {slow}"
        if type(right) is str:
            low = repr(right.lower())
            test = f"type({lhs}) is str"
            return f"{lhs}.lower() {op} {low} if {test} else {slow}"
        if left is _NOTHING and right is _NOTHING:
            return (
                f"{lhs} {op} {rhs} if {_IS_NUMBER.format(lhs)}"
                f" and {_IS_NUMBER.format(rhs)} else {slow}"
            )
        return slow  # a boolean or UNDEFINED literal


def _function(ast: _Node) -> CompiledFn:
    """Generate and compile the evaluation function of ``ast``."""
    gen = _Codegen()
    result = ast.emit(gen, 1)
    gen.line(1, f"return {result}")
    source = "def _f(ad, other, depth):\n" + "\n".join(gen.lines) + "\n"
    namespace = {**_NAMESPACE, **gen.bound} if gen.bound else _NAMESPACE
    scope: Dict[str, Any] = {}
    exec(compile(source, "<classad>", "exec"), namespace, scope)
    return scope["_f"]


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
# Expression: parse/intern cache
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


def _parse(text: str) -> _Node:
    parser = _Parser(_tokenize(text))
    ast = parser.parse_expr()
    if parser.peek()[0] != "eof":
        raise ClassAdError(
            f"trailing input after expression: {parser.peek()[1]!r}"
        )
    return ast


def _equality_constraints(ast: _Node) -> Tuple[Tuple[str, str, tuple], ...]:
    """Top-level equality conjuncts of ``ast`` (see :class:`Expression`)."""
    out: List[Tuple[str, str, tuple]] = []
    stack: List[_Node] = [ast]
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
                    if isinstance(ref, _Ref) and isinstance(lit, _Literal):
                        key = equality_key(lit.value)
                        if key is not None and ref.kind != "unknown":
                            out.append((ref.attr_low, ref.kind, key))
    return tuple(out)


class Expression:
    """A parsed, compiled, interned, reusable classad expression.

    Construction is amortized O(1) for repeated texts: instances are
    interned in a bounded LRU cache keyed by the exact source text, so
    ``Expression(text) is Expression(text)`` while the cache holds the
    entry.  An instance holds its generated function
    ``_fn(ad, other, depth)`` and :attr:`equality_constraints`.
    """

    __slots__ = ("text", "_fn", "equality_constraints")

    #: Top-level ``<ref> == <scalar literal>`` conjuncts (either side),
    #: as ``(attribute_lower, scope_kind, equality_key)`` with
    #: ``scope_kind`` one of ``"bare"``, ``"self"``, ``"other"``.  A
    #: consumer may prune a candidate ``other`` ad when a constraint's
    #: attribute holds a non-Expression value whose :func:`equality_key`
    #: differs — that conjunct then evaluates to False or UNDEFINED, so
    #: the whole conjunction cannot be True.
    equality_constraints: Tuple[Tuple[str, str, tuple], ...]

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
        ast = _parse(text)
        self._fn = _function(ast)
        self.equality_constraints = _equality_constraints(ast)
        if cls is Expression:
            _EXPR_CACHE[text] = self
            if len(_EXPR_CACHE) > _EXPR_CACHE_MAX:
                _EXPR_CACHE.popitem(last=False)
        return self

    def evaluate(
        self,
        ad: Optional["ClassAd"] = None,
        other: Optional["ClassAd"] = None,
    ) -> Value:
        """Evaluate against ``ad`` (``self``/``my``) and ``other``."""
        return self._fn(ad, other, 0)

    def __reduce__(self):
        # Functions don't pickle; re-intern from the source text.
        return (Expression, (self.text,))


#: Globals of every generated function.
_NAMESPACE: Dict[str, Any] = {
    "UNDEFINED": UNDEFINED,
    "Expression": Expression,
    "ClassAdError": ClassAdError,
    "_DEPTH_MSG": _DEPTH_MSG,
    "_unary": _unary,
    "_compare": _compare,
    "_arith": _arith,
    **{alias: _FUNCTIONS[name] for name, alias in _FUNCTION_ALIASES.items()},
}


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
        #: Folded name → value, in insertion order.
        self._attrs: Dict[str, Value] = {}
        #: Folded name → original spelling, for names that fold to
        #: something else; ``None`` until one is set (most ads have
        #: none, and a second dict was nearly half of what an ad cost).
        self._names: Optional[Dict[str, str]] = None
        if attrs:
            self.update(attrs)

    # -- mapping interface -------------------------------------------------
    def __setitem__(self, key: str, value: Any) -> None:
        if not isinstance(value, _SCALARS):
            value = self._checked_list(value)
        # An already-lower key is its own folded form: shared, not
        # copied (``str.lower`` always builds a new string).
        low = key if key.islower() else key.lower()
        names = self._names
        if low != key:
            if names is None:
                names = self._names = {}
            names[low] = key
        elif names is not None:
            names.pop(low, None)  # re-spelt in lower case
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
        names = self._names
        if names is not None:
            names.pop(low, None)

    def __iter__(self) -> Iterator[str]:
        names = self._names
        if not names:
            return iter(self._attrs)
        return map(names.get, self._attrs, self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def items(self) -> Iterator[Tuple[str, Value]]:
        names = self._names
        if not names:
            yield from self._attrs.items()
            return
        for low, value in self._attrs.items():
            yield names.get(low, low), value

    def update(self, other: Union["ClassAd", Dict[str, Any]]) -> None:
        # ``__setitem__`` written out: an ad is built a block of
        # attributes at a time, and a call per attribute was most of
        # what building one cost.
        names, attrs = self._names, self._attrs
        for key, value in other.items():
            if not isinstance(value, _SCALARS):
                value = self._checked_list(value)
            low = key if key.islower() else key.lower()
            if low != key:
                if names is None:
                    names = self._names = {}
                names[low] = key
            elif names is not None:
                names.pop(low, None)
            attrs[low] = value

    def copy(self) -> "ClassAd":
        dup = ClassAd()
        dup._attrs = dict(self._attrs)
        if self._names:
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

    # The pickled state is what it was while every name had a spelling
    # entry: ``(attrs, {folded: spelling})``.
    def __getstate__(self):
        names = self._names or {}
        spelt = {low: names.get(low, low) for low in self._attrs}
        return (self._attrs, spelt)

    def __setstate__(self, state):
        self._attrs, spelt = state
        self._names = {
            low: name for low, name in spelt.items() if name != low
        } or None

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
