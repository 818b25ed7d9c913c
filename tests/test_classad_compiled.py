"""Differential tests: compiled classad engine vs the interpreter.

The compiled closure engine must be observably identical to the
reference tree-walking interpreter — same values (including exact
Python types, since ``1`` and ``1.0`` differ under ``=?=``), same
UNDEFINED propagation, and same :class:`ClassAdError` diagnostics.
A seeded fuzzer crosses >600 randomized expressions with randomized
ad pairs; hand-written cases pin the edges the fuzzer might only
brush (short-circuit over erroring subtrees, constant folding, list
freshness, recursion bounds, the intern cache and pickling).
"""

import pickle
import random

import pytest

from repro.core import classad as ca
from repro.core.classad import (
    UNDEFINED,
    ClassAd,
    Expression,
    Undefined,
    clear_parse_cache,
    equality_key,
    evaluate,
    parse_cache_info,
)
from repro.core.errors import ClassAdError

# ---------------------------------------------------------------------------
# Differential helpers
# ---------------------------------------------------------------------------


def _outcome(fn, ad, other):
    try:
        return ("ok", fn(ad, other))
    except ClassAdError as exc:
        return ("err", str(exc))


def _assert_same_value(compiled, interpreted, context):
    assert type(compiled) is type(interpreted), context
    if isinstance(compiled, list):
        assert len(compiled) == len(interpreted), context
        for c_item, i_item in zip(compiled, interpreted):
            _assert_same_value(c_item, i_item, context)
    elif isinstance(compiled, Undefined):
        assert compiled is interpreted is UNDEFINED, context
    else:
        assert compiled == interpreted, context


def assert_engines_agree(text, ad=None, other=None):
    expr = Expression(text)
    compiled = _outcome(expr.evaluate_compiled, ad, other)
    interpreted = _outcome(expr.evaluate_interpreted, ad, other)
    context = f"expr={text!r} ad={ad!r} other={other!r}"
    assert compiled[0] == interpreted[0], (
        f"{context}: compiled={compiled} interpreted={interpreted}"
    )
    if compiled[0] == "ok":
        _assert_same_value(compiled[1], interpreted[1], context)
    else:
        assert compiled[1] == interpreted[1], context
    return compiled


# ---------------------------------------------------------------------------
# Randomized expression / ad generation
# ---------------------------------------------------------------------------

_ATTRS = ["a", "b", "c", "d", "e", "f"]
_STRINGS = ["Linux", "uml", "x86", "VMware", ""]
_SCALARS = [0, 1, -3, 7, 2.5, 0.0, True, False, "Linux", "x86", "uml"]
_EXPR_ATTR_TEXTS = [
    "b + 1",
    "other.a",
    "a",
    "c && true",
    "undefined",
    "my.d > 2",
]


def random_ad(rng):
    ad = ClassAd()
    for attr in _ATTRS:
        roll = rng.random()
        if roll < 0.25:
            continue  # leave the attribute undefined
        if roll < 0.80:
            ad[attr] = rng.choice(_SCALARS)
        elif roll < 0.92:
            ad[attr] = [
                rng.choice(_SCALARS)
                for _ in range(rng.randrange(0, 4))
            ]
        else:
            ad.set_expression(attr, rng.choice(_EXPR_ATTR_TEXTS))
    return ad


def random_expr(rng, depth=0):
    if depth >= 4 or rng.random() < 0.28:
        leaf = rng.random()
        if leaf < 0.30:
            return str(rng.randrange(-2, 12))
        if leaf < 0.40:
            return f"{rng.uniform(0, 5):.2f}"
        if leaf < 0.50:
            return f'"{rng.choice(_STRINGS)}"'
        if leaf < 0.60:
            return rng.choice(["true", "false", "undefined"])
        scope = rng.choice(["", "", "my.", "other.", "self.", "target."])
        return scope + rng.choice(_ATTRS)
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice(
            [
                "&&", "||", "==", "!=", "<", "<=", ">", ">=",
                "=?=", "=!=", "+", "-", "*", "/", "%",
            ]
        )
        lhs = random_expr(rng, depth + 1)
        rhs = random_expr(rng, depth + 1)
        return f"({lhs} {op} {rhs})"
    if roll < 0.65:
        return "!" + random_expr(rng, depth + 1)
    if roll < 0.72:
        return "-" + random_expr(rng, depth + 1)
    if roll < 0.82:
        cond = random_expr(rng, depth + 1)
        then = random_expr(rng, depth + 1)
        orelse = random_expr(rng, depth + 1)
        return f"({cond} ? {then} : {orelse})"
    if roll < 0.90:
        items = ", ".join(
            random_expr(rng, depth + 2)
            for _ in range(rng.randrange(0, 3))
        )
        return f"member({random_expr(rng, depth + 1)}, [{items}])"
    name = rng.choice(
        ["floor", "ceiling", "round", "min", "max", "size",
         "strcat", "tolower", "toupper"]
    )
    arity = 2 if name in ("min", "max", "strcat") else 1
    args = ", ".join(
        random_expr(rng, depth + 1) for _ in range(arity)
    )
    return f"{name}({args})"


class TestDifferentialFuzz:
    def test_fuzz_600_random_expressions(self):
        rng = random.Random(20040406)
        outcomes = {"ok": 0, "err": 0, "undefined": 0}
        for i in range(600):
            ad = random_ad(rng)
            other = random_ad(rng) if rng.random() < 0.8 else None
            text = random_expr(rng)
            result = assert_engines_agree(text, ad, other)
            if result[0] == "ok" and result[1] is UNDEFINED:
                outcomes["undefined"] += 1
            else:
                outcomes[result[0]] += 1
        # The corpus must actually exercise all three outcome classes.
        assert outcomes["ok"] > 100
        assert outcomes["err"] > 20
        assert outcomes["undefined"] > 20

    def test_fuzz_matches_path(self):
        """a.matches(b) agrees between engines on random ad pairs."""
        rng = random.Random(777)
        flips = 0
        for _ in range(150):
            a = random_ad(rng)
            b = random_ad(rng)
            a.set_expression(
                "requirements",
                random_expr(rng, depth=2),
            )
            requirements = a.lookup("requirements")
            compiled = _outcome(lambda x, y: a.matches(y), None, b)
            interpreted = _outcome(
                lambda x, y: requirements.evaluate_interpreted(a, y) is True,
                None,
                b,
            )
            assert compiled == interpreted
            if compiled == ("ok", True):
                flips += 1
        assert flips > 5  # some requirements actually accepted


class TestHandWrittenEdges:
    CASES = [
        # UNDEFINED propagation and three-valued logic
        ("undefined == undefined", None, None),
        ("undefined =?= undefined", None, None),
        ("undefined =!= 1", None, None),
        ("undefined && false", None, None),
        ("undefined && true", None, None),
        ("undefined || true", None, None),
        ("undefined || false", None, None),
        ("!undefined", None, None),
        ("-undefined", None, None),
        # non-boolean operands of the logic operators
        ("5 && false", None, None),
        ("5 && true", None, None),
        ("0 || true", None, None),
        ("0 || false", None, None),
        # numeric edge cases
        ("7 / 2", None, None),
        ("6 / 2", None, None),
        ("6 / 2 =?= 3", None, None),
        ("7 / 2.0", None, None),
        ("1 / 0", None, None),
        ("5 % 0", None, None),
        ("1 == 1.0", None, None),
        ("1 =?= 1.0", None, None),
        ("true == 1", None, None),
        ("true == true", None, None),
        ("true < false", None, None),
        # strings
        ('"ABC" == "abc"', None, None),
        ('"abc" < "ABD"', None, None),
        ('"a" + "b"', None, None),
        ('"a" < 1', None, None),
        ('"a" == 1', None, None),
        ('"a" != 1', None, None),
        # ternary
        ("undefined ? 1 : 2", None, None),
        ("1 ? 1 : 2", None, None),
        ("true ? 1 : 1/0", None, None),
        ("false ? 1/0 : 2", None, None),
        # functions
        ("floor(2.7)", None, None),
        ("ceiling(2.1)", None, None),
        ("round(2.5)", None, None),
        ("round(-2.5)", None, None),
        ("min(3, 2.0)", None, None),
        ("strcat(\"a\", 1, true)", None, None),
        ("size([1, 2, 3])", None, None),
        ("size(5)", None, None),
        ("member(\"UML\", [\"uml\", \"vmware\"])", None, None),
        ("member(1, [true, 1.0, 1])", None, None),
        ("member(1, 5)", None, None),
        ("min(1)", None, None),  # bad arity
        ("tolower(5)", None, None),
    ]

    def test_static_cases(self):
        for text, ad, other in self.CASES:
            assert_engines_agree(text, ad, other)

    def test_cross_ad_fallback_cases(self):
        mine = ClassAd({"x": 1, "s": "Plant"})
        theirs = ClassAd({"y": 2, "s": "Client", "memory": 512})
        for text in [
            "x + y",            # bare-name fallback to other
            "s",                # defined in both: own ad wins
            "other.s",
            "my.s",
            "self.x == 1 && target.y == 2",
            "other.missing",
            "missing",          # missing in both
            "memory >= 256",    # only in other
        ]:
            assert_engines_agree(text, mine, theirs)
            assert_engines_agree(text, mine, None)
            assert_engines_agree(text, None, theirs)
            assert_engines_agree(text, None, None)

    def test_expression_valued_attributes(self):
        mine = ClassAd({"base": 10})
        mine.set_expression("derived", "base * 2")
        theirs = ClassAd({"base": 3})
        theirs.set_expression("back", "other.base + 1")
        for text in [
            "derived",
            "other.back",     # evaluates in theirs with mine as other
            "derived + other.back",
        ]:
            assert_engines_agree(text, mine, theirs)

    def test_recursion_bound_identical(self):
        ad = ClassAd()
        ad.set_expression("a", "b")
        ad.set_expression("b", "a")
        result = assert_engines_agree("a", ad, None)
        assert result == ("err", "expression recursion too deep")

    def test_unknown_scope_raises_at_eval(self):
        result = assert_engines_agree("bogus.x", ClassAd(), None)
        assert result[0] == "err"
        assert "unknown scope" in result[1]


class TestCompilation:
    def test_constant_folding_does_not_hoist_errors(self):
        # Construction must not raise even though the subtree is a
        # constant error; evaluation must.
        expr = Expression("(1 / 0) > 1")
        with pytest.raises(ClassAdError):
            expr.evaluate()
        # Short-circuit still protects the erroring branch.
        assert evaluate("false && ((1 / 0) > 1)") is False
        assert evaluate("true || ((1 / 0) > 1)") is True

    def test_folded_constants_evaluate_without_ads(self):
        assert evaluate("2 + 3 * 4") == 14
        assert evaluate("floor(9 / 2)") == 4
        assert evaluate('tolower("ABC")') == "abc"

    def test_list_expressions_return_fresh_lists(self):
        expr = Expression("[1, 2]")
        first = expr.evaluate()
        first.append(3)
        assert expr.evaluate() == [1, 2]


class TestInternCache:
    def test_same_text_returns_same_object(self):
        clear_parse_cache()
        assert Expression("a + 1") is Expression("a + 1")
        info = parse_cache_info()
        assert info["hits"] >= 1

    def test_cache_is_bounded_lru(self):
        clear_parse_cache()
        for i in range(ca._EXPR_CACHE_MAX + 50):
            Expression(f"x + {i}")
        assert parse_cache_info()["size"] <= ca._EXPR_CACHE_MAX
        # Oldest entries were evicted; newest retained.
        newest = f"x + {ca._EXPR_CACHE_MAX + 49}"
        assert newest in ca._EXPR_CACHE
        assert "x + 0" not in ca._EXPR_CACHE
        clear_parse_cache()

    def test_set_expression_and_evaluate_share_cache(self):
        clear_parse_cache()
        ad = ClassAd()
        ad.set_expression("requirements", "other.kind == \"vmplant\"")
        before = parse_cache_info()["misses"]
        evaluate("other.kind == \"vmplant\"", ad, None)
        assert parse_cache_info()["misses"] == before  # cache hit

    def test_evaluation_error_text_still_interned(self):
        # Parse succeeds, so the instance interns even though every
        # evaluation raises.
        clear_parse_cache()
        assert Expression("1/0") is Expression("1/0")


class TestSlotsAndPickling:
    def test_classad_hot_classes_have_no_instance_dict(self):
        for cls in (
            ClassAd,
            Expression,
            ca._Scope,
            ca._Parser,
            ca._Literal,
            ca._Ref,
            ca._ListNode,
            ca._Unary,
            ca._Binary,
            ca._Call,
            ca._Ternary,
        ):
            assert hasattr(cls, "__slots__")
            instance = object.__new__(cls)
            assert not hasattr(instance, "__dict__"), cls.__name__

    def test_expression_pickle_roundtrip(self):
        expr = Expression("other.x > 1 && member(os, [\"linux\"])")
        clone = pickle.loads(pickle.dumps(expr))
        assert clone.text == expr.text
        ad = ClassAd({"os": "linux"})
        assert clone.evaluate(ad, ClassAd({"x": 2})) is True

    def test_classad_with_expression_pickle_roundtrip(self):
        ad = ClassAd({"x": 5})
        ad.set_expression("requirements", "other.x == 5")
        clone = pickle.loads(pickle.dumps(ad))
        assert clone.matches(ClassAd({"x": 5})) is True
        assert clone == ad

    def test_lists_accept_nested_expressions(self):
        ad = ClassAd()
        ad["mixed"] = [1, Expression("2 + 3"), "s"]
        stored = ad.lookup("mixed")
        assert isinstance(stored[1], Expression)
        assert "2 + 3" in ad.to_string()
        with pytest.raises(ClassAdError):
            ad["bad"] = [object()]


class TestEqualityConstraints:
    def test_extracts_conjunct_equalities(self):
        expr = Expression(
            'other.kind == "vmplant" && vm_type == "uml" '
            "&& other.active_vms < 8 && 2 == other.cpus"
        )
        constraints = dict(
            ((attr, kind), key)
            for attr, kind, key in expr.equality_constraints()
        )
        assert constraints[("kind", "other")] == ("s", "vmplant")
        assert constraints[("vm_type", "bare")] == ("s", "uml")
        assert constraints[("cpus", "other")] == ("n", 2)
        assert ("active_vms", "other") not in constraints

    def test_disjunctions_extract_nothing(self):
        expr = Expression('other.os == "linux" || other.os == "bsd"')
        assert expr.equality_constraints() == ()

    def test_equality_key_semantics(self):
        assert equality_key(1) == equality_key(1.0)
        assert equality_key(True) != equality_key(1)
        assert equality_key("Linux") == equality_key("linux")
        assert equality_key([1]) is None
        assert equality_key(UNDEFINED) is None
        assert equality_key(Expression("1")) is None
