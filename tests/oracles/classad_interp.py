"""The tree-walking classad interpreter: the reference engine.

``repro.core.classad`` compiles every expression to one generated
Python function.  This module evaluates the same AST by walking it,
node by node, over a :class:`_Scope` — the engine that was there
before — and ``tests/test_classad_compiled.py`` holds the generated
functions to it: same values (exact Python types, since ``1`` and
``1.0`` differ under ``=?=``), same UNDEFINED propagation, same
:class:`ClassAdError` text.

The grammar and the built-in function table are shared with ``src/``;
the evaluation rules are written out here a second time.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.classad import (
    _DEPTH_MSG,
    _FUNCTIONS,
    _MAX_REF_DEPTH,
    UNDEFINED,
    ClassAd,
    Expression,
    Undefined,
    Value,
    _Binary,
    _Call,
    _ListNode,
    _Literal,
    _Node,
    _parse,
    _Ref,
    _Ternary,
    _Unary,
)
from repro.core.errors import ClassAdError

__all__ = ["evaluate_interpreted"]

_ASTS: Dict[str, _Node] = {}


def _ast(text: str) -> _Node:
    ast = _ASTS.get(text)
    if ast is None:
        ast = _ASTS[text] = _parse(text)
    return ast


def evaluate_interpreted(
    expr: Expression,
    ad: Optional[ClassAd] = None,
    other: Optional[ClassAd] = None,
) -> Value:
    """``expr.evaluate(ad, other)``, by walking the tree."""
    return _eval(_ast(expr.text), _Scope(ad, other))


class _Scope:
    """Name-resolution context: the owning ad plus the matched ad.

    ``_depth`` counts the nesting of attribute-valued expression
    references and is threaded into the child scope each hop, so a
    reference chain deeper than ``_MAX_REF_DEPTH`` raises
    :class:`ClassAdError`.
    """

    __slots__ = ("ad", "other", "_depth")

    def __init__(
        self,
        ad: Optional[ClassAd],
        other: Optional[ClassAd],
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
            return _eval(
                _ast(raw.text),
                _Scope(
                    source,
                    self.other if source is self.ad else self.ad,
                    self._depth + 1,
                ),
            )
        if scope_name is None and raw is UNDEFINED and self.other is not None:
            # Condor falls through to the target ad for bare names.
            raw2 = self.other.lookup(attr)
            if isinstance(raw2, Expression):
                return _eval(
                    _ast(raw2.text),
                    _Scope(self.other, self.ad, self._depth + 1),
                )
            return raw2
        return raw


def _is_number(val: Value) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _eval_literal(node: _Literal, scope: _Scope) -> Value:
    return node.value


def _eval_ref(node: _Ref, scope: _Scope) -> Value:
    return scope.lookup(node.scope_name, node.attr)


def _eval_list(node: _ListNode, scope: _Scope) -> Value:
    return [_eval(item, scope) for item in node.items]


def _eval_unary(node: _Unary, scope: _Scope) -> Value:
    val = _eval(node.operand, scope)
    if isinstance(val, Undefined):
        return UNDEFINED
    if node.op == "!":
        if isinstance(val, bool):
            return not val
        raise ClassAdError(f"! applied to non-boolean {val!r}")
    if node.op == "-":
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ClassAdError(f"- applied to non-number {val!r}")
        return -val
    raise ClassAdError(f"unknown unary {node.op}")


def _eval_binary(node: _Binary, scope: _Scope) -> Value:  # noqa: C901
    op = node.op
    if op == "&&":
        lhs = _eval(node.left, scope)
        if lhs is False:
            return False
        rhs = _eval(node.right, scope)
        if rhs is False:
            return False
        if isinstance(lhs, Undefined) or isinstance(rhs, Undefined):
            return UNDEFINED
        if lhs is True and rhs is True:
            return True
        raise ClassAdError("&& applied to non-boolean")
    if op == "||":
        lhs = _eval(node.left, scope)
        if lhs is True:
            return True
        rhs = _eval(node.right, scope)
        if rhs is True:
            return True
        if isinstance(lhs, Undefined) or isinstance(rhs, Undefined):
            return UNDEFINED
        if lhs is False and rhs is False:
            return False
        raise ClassAdError("|| applied to non-boolean")

    lhs = _eval(node.left, scope)
    rhs = _eval(node.right, scope)

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
            raise ClassAdError(f"cannot compare {lhs!r} with {rhs!r}")
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
    raise ClassAdError(f"unknown operator {op}")


def _eval_call(node: _Call, scope: _Scope) -> Value:
    values = [_eval(arg, scope) for arg in node.args]
    if any(isinstance(v, Undefined) for v in values):
        return UNDEFINED
    try:
        return _FUNCTIONS[node.name](*values)
    except TypeError as exc:
        raise ClassAdError(
            f"{node.name}(): bad arity ({len(values)} args)"
        ) from exc


def _eval_ternary(node: _Ternary, scope: _Scope) -> Value:
    cond = _eval(node.cond, scope)
    if isinstance(cond, Undefined):
        return UNDEFINED
    if not isinstance(cond, bool):
        raise ClassAdError("ternary condition must be boolean")
    return _eval(node.then, scope) if cond else _eval(node.orelse, scope)


_EVAL = {
    _Literal: _eval_literal,
    _Ref: _eval_ref,
    _ListNode: _eval_list,
    _Unary: _eval_unary,
    _Binary: _eval_binary,
    _Call: _eval_call,
    _Ternary: _eval_ternary,
}


def _eval(node: _Node, scope: _Scope) -> Value:
    return _EVAL[type(node)](node, scope)
