"""Unit tests for the classad store and expression language."""

import pickle
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.classad import (
    UNDEFINED,
    ClassAd,
    Expression,
    Undefined,
    evaluate,
)
from repro.core.errors import ClassAdError
from tests.helpers import oracle_classad, python_calls, retained_bytes


class TestLiteralsAndArithmetic:
    def test_integers_and_floats(self):
        assert evaluate("42") == 42
        assert evaluate("3.5") == 3.5
        assert evaluate("1e3") == 1000.0

    def test_strings(self):
        assert evaluate('"hello"') == "hello"
        assert evaluate('"a\\"b"') == 'a"b'

    def test_booleans_and_undefined(self):
        assert evaluate("true") is True
        assert evaluate("FALSE") is False
        assert isinstance(evaluate("undefined"), Undefined)

    def test_arithmetic_precedence(self):
        assert evaluate("2+3*4") == 14
        assert evaluate("(2+3)*4") == 20
        assert evaluate("10-2-3") == 5
        assert evaluate("7%3") == 1

    def test_division_semantics(self):
        assert evaluate("10/2") == 5
        assert evaluate("7/2") == 3.5

    def test_division_by_zero_raises(self):
        with pytest.raises(ClassAdError):
            evaluate("1/0")
        with pytest.raises(ClassAdError):
            evaluate("1%0")

    def test_unary_minus_and_not(self):
        assert evaluate("-5") == -5
        assert evaluate("--5") == 5
        assert evaluate("!true") is False
        assert evaluate("!!false") is False

    def test_string_concatenation(self):
        assert evaluate('"foo" + "bar"') == "foobar"

    def test_type_errors(self):
        with pytest.raises(ClassAdError):
            evaluate('1 + "a"')
        with pytest.raises(ClassAdError):
            evaluate("!3")
        with pytest.raises(ClassAdError):
            evaluate("-\"x\"")


class TestComparisonsAndLogic:
    def test_numeric_comparison(self):
        assert evaluate("1 < 2") is True
        assert evaluate("2 <= 2") is True
        assert evaluate("3 > 4") is False
        assert evaluate("5 != 6") is True

    def test_string_comparison_case_insensitive(self):
        assert evaluate('"ABC" == "abc"') is True
        assert evaluate('"a" < "B"') is True

    def test_cross_type_equality(self):
        assert evaluate('1 == "1"') is False
        assert evaluate('1 != "1"') is True

    def test_cross_type_ordering_raises(self):
        with pytest.raises(ClassAdError):
            evaluate('1 < "2"')

    def test_three_valued_and(self):
        assert evaluate("undefined && false") is False
        assert isinstance(evaluate("undefined && true"), Undefined)
        assert evaluate("true && true") is True

    def test_three_valued_or(self):
        assert evaluate("undefined || true") is True
        assert isinstance(evaluate("undefined || false"), Undefined)
        assert evaluate("false || false") is False

    def test_undefined_propagates_through_comparison(self):
        assert isinstance(evaluate("undefined == 1"), Undefined)
        assert isinstance(evaluate("undefined + 1"), Undefined)

    def test_meta_equality_pierces_undefined(self):
        assert evaluate("undefined =?= undefined") is True
        assert evaluate("undefined =?= 1") is False
        assert evaluate("1 =?= 1.0") is False  # type-exact
        assert evaluate("1 =!= 2") is True

    def test_ternary(self):
        assert evaluate("1 < 2 ? 10 : 20") == 10
        assert evaluate("1 > 2 ? 10 : 20") == 20
        assert isinstance(evaluate("undefined ? 1 : 2"), Undefined)

    def test_short_circuit_avoids_errors(self):
        # Right side would raise; short circuit must prevent it.
        assert evaluate("false && (1/0 == 1)") is False
        assert evaluate("true || (1/0 == 1)") is True


class TestReferences:
    def test_bare_reference(self):
        ad = ClassAd({"memory": 64})
        assert evaluate("memory * 2", ad) == 128

    def test_my_and_other_scopes(self):
        mine = ClassAd({"memory": 64})
        theirs = ClassAd({"memory": 32})
        assert evaluate("my.memory > other.memory", mine, theirs) is True
        assert evaluate("self.memory", mine) == 64
        assert evaluate("target.memory", mine, theirs) == 32

    def test_missing_attribute_is_undefined(self):
        ad = ClassAd()
        assert isinstance(evaluate("nope", ad), Undefined)

    def test_bare_name_falls_through_to_other(self):
        mine = ClassAd()
        theirs = ClassAd({"shared": 9})
        assert evaluate("shared", mine, theirs) == 9

    def test_expression_valued_attribute(self):
        ad = ClassAd({"base": 10})
        ad.set_expression("derived", "base * 3")
        assert ad.eval("derived") == 30

    def test_unknown_scope_rejected(self):
        with pytest.raises(ClassAdError):
            evaluate("bogus.attr", ClassAd())


class TestParserErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "1 +", "(1", "1 ? 2", "a.", "@", '"unterminated', "1 2"],
    )
    def test_malformed_expressions(self, text):
        with pytest.raises(ClassAdError):
            evaluate(text)


class TestClassAd:
    def test_case_insensitive_keys(self):
        ad = ClassAd({"Memory": 64})
        assert ad["memory"] == 64
        assert "MEMORY" in ad
        del ad["mEmOrY"]
        assert "memory" not in ad

    @pytest.mark.parametrize("build", ["update", "assign"])
    def test_mixed_case_keys_fold_and_keep_their_spelling(self, build):
        block = {"VMID": "v1", "Memory_MB": 64, "os": "linux", "x_1": 1,
                 "_2": 2, "Tür": 3}
        ad = ClassAd()
        if build == "update":
            ad.update(block)
        else:
            for key, value in block.items():
                ad[key] = value
        for key, value in block.items():
            for spelling in (key, key.lower(), key.upper(), key.swapcase()):
                assert ad[spelling] == value
        assert list(ad.items()) == list(block.items())
        assert ad.to_string().startswith('[VMID = "v1"; Memory_MB = 64')
        # An already-lower key is stored as the caller's own string.
        (folded,) = (k for k in ad._attrs if k == "os")
        assert folded is next(k for k in block if k == "os")

    def test_getitem_missing_raises_keyerror(self):
        with pytest.raises(KeyError):
            ClassAd()["ghost"]

    def test_lookup_and_get(self):
        ad = ClassAd({"a": 1})
        assert ad.lookup("missing") is UNDEFINED
        assert ad.get("missing", "dflt") == "dflt"
        assert ad.get("a") == 1

    def test_unsupported_value_rejected(self):
        with pytest.raises(ClassAdError):
            ClassAd({"bad": object()})
        with pytest.raises(ClassAdError):
            ClassAd({"bad": [object()]})

    @pytest.mark.parametrize("bad", [object(), [object()], {"a": 1}, None])
    def test_unsupported_value_rejected_by_assignment_and_update(self, bad):
        ad = ClassAd({"kept": 1})
        with pytest.raises(ClassAdError, match="unsupported"):
            ad["bad"] = bad
        with pytest.raises(ClassAdError, match="unsupported"):
            ad.update({"good": 2, "bad": bad, "never": 3})
        # What came before the bad value went in, as with assignments.
        assert list(ad.items()) == [("kept", 1), ("good", 2)]

    def test_lists_supported(self):
        ad = ClassAd({"tags": ["x", "y"]})
        assert ad["tags"] == ["x", "y"]

    def test_list_values_are_copied_on_every_path(self):
        tags = ["x", Expression("1 + 1")]
        built, assigned, updated = ClassAd({"t": tags}), ClassAd(), ClassAd()
        assigned["t"] = tags
        updated.update({"t": tuple(tags)})
        tags.append("z")
        for ad in (built, assigned, updated):
            assert ad["t"] == tags[:2]

    def test_update_writes_like_assignments_in_order(self):
        block = {"Vmid": "v1", "os": "linux", "memory_mb": 64, "ok": True}
        assigned = ClassAd({"os": "none", "first": 0.5})
        updated = assigned.copy()
        for key, value in block.items():
            assigned[key] = value
        updated.update(block)
        assert list(updated.items()) == list(assigned.items())
        assert updated.to_string() == assigned.to_string()
        assert updated.to_string().startswith('[os = "linux"; first = 0.5; Vm')
        updated.update(ClassAd({"VMID": "v2"}))
        assert [k for k, _ in updated.items()][2] == "VMID"

    def test_an_ad_is_built_a_block_at_a_time(self):
        # The VM's ad is assembled from blocks of 8, 5-6 and 4
        # attributes on every create; a ``__setitem__`` call per
        # attribute was 23 calls a request from constructors alone.
        eight = {f"attr{i}": i for i in range(8)}
        assert python_calls(partial(ClassAd, eight)) <= 2
        ad = ClassAd()
        six = {f"ATTR{i}": float(i) for i in range(6)}
        assert python_calls(partial(ad.update, six)) <= 1
        assert len(ad) == 6

    def test_update_and_copy_independent(self):
        ad = ClassAd({"a": 1})
        dup = ad.copy()
        dup["a"] = 2
        assert ad["a"] == 1
        ad.update({"b": 3})
        assert "b" not in dup

    def test_items_preserve_insertion_order(self):
        ad = ClassAd()
        ad["z"] = 1
        ad["a"] = 2
        assert [k for k, _ in ad.items()] == ["z", "a"]


class TestMatching:
    def test_requirements_match(self):
        job = ClassAd({"memory_needed": 64})
        job.set_expression(
            "requirements", "other.memory >= my.memory_needed"
        )
        assert job.matches(ClassAd({"memory": 128}))
        assert not job.matches(ClassAd({"memory": 32}))

    def test_missing_requirements_accepts_all(self):
        assert ClassAd().matches(ClassAd())

    def test_undefined_requirements_rejects(self):
        job = ClassAd()
        job.set_expression("requirements", "other.ghost > 5")
        assert not job.matches(ClassAd())

    def test_symmetric_match(self):
        a = ClassAd({"kind": "shop"})
        a.set_expression("requirements", 'other.kind == "plant"')
        b = ClassAd({"kind": "plant"})
        b.set_expression("requirements", 'other.kind == "shop"')
        assert a.symmetric_match(b)
        assert not a.symmetric_match(a)


class TestSerialization:
    def test_roundtrip_scalars(self):
        ad = ClassAd(
            {"i": 3, "f": 2.5, "s": "text", "b": True, "u": UNDEFINED}
        )
        back = ClassAd.from_string(ad.to_string())
        assert back == ad

    def test_roundtrip_expression(self):
        ad = ClassAd({"mem": 32})
        ad.set_expression("requirements", "other.mem == my.mem")
        back = ClassAd.from_string(ad.to_string())
        assert back.matches(ClassAd({"mem": 32}))
        assert not back.matches(ClassAd({"mem": 64}))

    def test_roundtrip_list(self):
        ad = ClassAd({"tags": ["a", "b"]})
        back = ClassAd.from_string(ad.to_string())
        assert back["tags"] == ["a", "b"]

    def test_roundtrip_escaped_string(self):
        ad = ClassAd({"path": 'C:\\dir\\"quoted"'})
        back = ClassAd.from_string(ad.to_string())
        assert back["path"] == ad["path"]

    def test_unbracketed_text_rejected(self):
        with pytest.raises(ClassAdError):
            ClassAd.from_string("a = 1")

    def test_expression_object_reusable(self):
        expr = Expression("x + 1")
        assert expr.evaluate(ClassAd({"x": 1})) == 2
        assert expr.evaluate(ClassAd({"x": 10})) == 11


class TestFunctions:
    def test_numeric_functions(self):
        assert evaluate("floor(3.7)") == 3
        assert evaluate("ceiling(3.2)") == 4
        assert evaluate("round(2.5)") == 3
        assert evaluate("min(3, 7)") == 3
        assert evaluate("max(1, 9, 5)") == 9

    def test_string_functions(self):
        assert evaluate('strcat("vm-", 42)') == "vm-42"
        assert evaluate('toUpper("ab")') == "AB"
        assert evaluate('toLower("AB")') == "ab"
        assert evaluate('size("hello")') == 5

    def test_member_case_insensitive_strings(self):
        ad = ClassAd({"oses": ["RH8", "mandrake"]})
        assert evaluate('member("rh8", oses)', ad) is True
        assert evaluate('member("xp", oses)', ad) is False

    def test_member_in_requirements(self):
        """Functions compose with matchmaking."""
        req = ClassAd()
        req.set_expression(
            "requirements", 'member("vmware", other.vm_types)'
        )
        plant = ClassAd({"vm_types": ["uml", "vmware"]})
        assert req.matches(plant)
        assert not req.matches(ClassAd({"vm_types": ["uml"]}))

    def test_undefined_propagates_through_calls(self):
        from repro.core.classad import Undefined

        assert isinstance(evaluate("floor(undefined)"), Undefined)

    def test_unknown_function_rejected(self):
        with pytest.raises(ClassAdError):
            evaluate("teleport(1)")

    def test_bad_arity_rejected(self):
        with pytest.raises(ClassAdError):
            evaluate("floor(1, 2)")

    def test_type_errors(self):
        with pytest.raises(ClassAdError):
            evaluate('floor("x")')
        with pytest.raises(ClassAdError):
            evaluate("size(3)")
        with pytest.raises(ClassAdError):
            evaluate('member("a", "not-a-list")')


# ---------------------------------------------------------------------------
# One dict an ad: the live ad against the two-dict reference
# ---------------------------------------------------------------------------

#: Names that fold to themselves, to another spelling, to nothing new
#: (no cased letter) and to a longer string (``"İ".lower()``).
_KEYS = ("a", "A", "ab", "Ab", "aB", "os", "OS", "x_1", "X_1", "_2",
         "tür", "Tür", "TÜR", "İ", "i̇")
_values = st.one_of(
    st.integers(-3, 3),
    st.text(alphabet="ab\"", max_size=2),
    st.booleans(),
    st.just(UNDEFINED),
    st.sampled_from(["1 + 1", "my.a > 0"]).map(Expression),
    st.lists(st.integers(0, 2), max_size=2),
)
_classad_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(_KEYS), _values),
        st.tuples(
            st.just("update"),
            st.lists(st.tuples(st.sampled_from(_KEYS), _values), max_size=4),
        ),
        st.tuples(st.just("delete"), st.sampled_from(_KEYS)),
        # Set an attribute the ad holds under another spelling of it.
        st.tuples(
            st.just("recase"),
            st.integers(0, 9),
            st.sampled_from([str.lower, str.upper, str.swapcase]),
            _values,
        ),
        st.tuples(st.just("copy")),
        st.tuples(st.just("pickle")),
    ),
    max_size=14,
)


def _apply(ad, op) -> str:
    kind = op[0]
    try:
        if kind == "set":
            ad[op[1]] = op[2]
        elif kind == "update":
            ad.update(dict(op[1]))
        elif kind == "delete":
            del ad[op[1]]
        elif kind == "recase":
            names = list(ad)
            if names:
                ad[op[2](names[op[1] % len(names)])] = op[3]
    except KeyError as exc:
        return f"KeyError {exc}"
    return "ok"


def _observed(ad) -> tuple:
    spellings = {f(k) for k in _KEYS for f in (str, str.lower, str.upper)}
    return (
        list(ad),
        list(ad.items()),
        ad.to_string(),
        len(ad),
        ad.__getstate__(),
        [
            (k, k in ad, repr(ad.lookup(k)), repr(ad.get(k, "-")))
            for k in sorted(spellings)
        ],
    )


class TestOneDictMatchesTwo:
    """The ad that keeps a spelling only for a name that folds to
    something else, against ``oracle_classad``, which keeps one for
    every name: the same iteration, items, text form, equality, lookups
    and pickled state after any sequence of writes."""

    @given(_classad_ops)
    # Re-spelt in lower case: the kept spelling must go.
    @example([("set", "OS", 1), ("set", "os", 2), ("copy",), ("pickle",)])
    # A caseless name, then a spelling that folds to a longer string.
    @example([("set", "_2", 1), ("set", "İ", 2), ("delete", "İ"),
              ("update", [("Ab", 3), ("ab", 4), ("aB", 5)])])
    @settings(max_examples=300, deadline=None)
    def test_drawn_writes_read_identically(self, ops):
        # Writes go to the newest pair; a copy or a pickled round trip
        # starts a new one, and every pair is read after every step (so
        # a copy that shares state with its original shows).
        pairs = [(ClassAd(), oracle_classad())]
        for op in ops:
            live, oracle = pairs[-1]
            if op[0] == "copy":
                pairs.append((live.copy(), oracle.copy()))
            elif op[0] == "pickle":
                pairs.append(
                    (pickle.loads(pickle.dumps(live)),
                     pickle.loads(pickle.dumps(oracle)))
                )
            else:
                assert _apply(live, op) == _apply(oracle, op), op
            for live, oracle in pairs:
                assert type(live) is ClassAd
                assert type(oracle) is oracle_classad
                assert _observed(live) == _observed(oracle), op
                assert live == oracle and oracle == live

    def test_twelve_lower_case_attributes(self):
        # 521 B an ad at the time of writing, pinned with 15 %
        # headroom; 985 B with a spelling dict beside every ad.
        block = {f"attr{i:02d}": i for i in range(12)}
        keep = []
        per_ad = retained_bytes(
            lambda: keep.extend(ClassAd(block) for _ in range(1000))
        ) / 1000
        assert per_ad <= 600
