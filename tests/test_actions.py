"""Unit tests for the Action value object."""

import ast
import copy
import dataclasses
import pickle
import random
import warnings

import pytest

from repro.core.actions import (
    Action,
    ActionResult,
    ActionScope,
    ActionStatus,
    ErrorPolicy,
    decode_literal,
)


class TestAction:
    def test_defaults(self):
        action = Action("setup")
        assert action.scope is ActionScope.GUEST
        assert action.on_error is ErrorPolicy.FAIL
        assert action.retries == 0
        assert action.params == ()

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Action("")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            Action("x", retries=-1)

    def test_params_canonicalized(self):
        a = Action("x", params={"b": 2, "a": 1})
        b = Action("x", params={"a": 1, "b": 2})
        assert a == b
        assert a.params == (("a", "1"), ("b", "2"))

    def test_replace_round_trips_canonical_params(self):
        # dataclasses.replace feeds the stored tuple back to __init__.
        action = Action("x", command="echo {v}", params={"v": 1, "a": "s"})
        same = dataclasses.replace(action)
        assert same == action
        assert same.signature == action.signature
        renamed = dataclasses.replace(action, name="y")
        assert renamed.params == action.params == (("a", "'s'"), ("v", "1"))
        assert renamed.rendered_command() == "echo 1"
        assert renamed.signature == Action(
            "y", command="echo {v}", params={"v": 1, "a": "s"}
        ).signature
        swapped = dataclasses.replace(action, params={"v": 2})
        assert swapped.params == (("v", "2"),)

    @pytest.mark.parametrize(
        "params",
        [
            (("b", "1"), ("a", "2")),  # not sorted
            (("a", "1"), ("a", "2")),  # duplicate key
            (("a", 1),),  # value is not a repr string
            (("a", "1", "2"),),  # not a pair
            ("a", "1"),  # a flat pair, not a tuple of pairs
        ],
    )
    def test_non_canonical_params_tuple_rejected(self, params):
        with pytest.raises(ValueError, match="not canonical"):
            Action("x", params=params)

    def test_params_neither_mapping_nor_tuple_rejected(self):
        with pytest.raises(AttributeError):
            Action("x", params=[("a", 1)])

    def test_param_dict_view(self):
        action = Action("x", params={"user": "alice"})
        assert action.param_dict == {"user": "'alice'"}

    def test_signature_stable_across_param_order(self):
        a = Action("x", command="c", params={"p": 1, "q": 2})
        b = Action("x", command="c", params={"q": 2, "p": 1})
        assert a.signature == b.signature

    def test_signature_differs_on_content(self):
        base = Action("x", command="c")
        assert base.signature != Action("x", command="d").signature
        assert base.signature != Action(
            "x", command="c", scope=ActionScope.HOST
        ).signature
        assert base.signature != Action(
            "x", command="c", params={"k": 1}
        ).signature

    def test_signature_ignores_error_policy(self):
        # Error handling is orchestration, not machine state.
        a = Action("x", command="c", on_error=ErrorPolicy.FAIL)
        b = Action("x", command="c", on_error=ErrorPolicy.RETRY, retries=3)
        assert a.signature == b.signature

    def test_rendered_command_substitutes_strings(self):
        action = Action(
            "x", command="useradd {user}", params={"user": "alice"}
        )
        assert action.rendered_command() == "useradd alice"

    def test_rendered_command_substitutes_numbers(self):
        action = Action(
            "x", command="mem {mb}", params={"mb": 64}
        )
        assert action.rendered_command() == "mem 64"

    def test_rendered_command_unbound_param_raises(self):
        action = Action("x", command="use {missing}")
        with pytest.raises(ValueError, match="unbound"):
            action.rendered_command()

    def test_enum_coercion_from_strings(self):
        action = Action("x", scope="host", on_error="retry", retries=1)
        assert action.scope is ActionScope.HOST
        assert action.on_error is ErrorPolicy.RETRY

    def test_str_form(self):
        assert str(Action("setup", scope=ActionScope.HOST)) == "setup[host]"

    def test_hashable_and_frozen(self):
        action = Action("x")
        assert hash(action) == hash(Action("x"))
        with pytest.raises(Exception):
            action.name = "y"  # type: ignore[misc]


class TestFootprint:
    """An action is a few machine words: slots, and one shared
    parameter tuple for equal parameters."""

    def test_no_instance_dict(self):
        action = Action("x", command="c", params={"v": 1})
        assert not hasattr(action, "__dict__")
        action.signature  # filling the lazy slot adds no dict either
        assert not hasattr(action, "__dict__")

    def test_equal_param_dicts_share_one_tuple(self):
        a = Action("a", params={"ver": 3, "arch": "i386"})
        b = Action("b", params={"arch": "i386", "ver": 3})
        assert a.params is b.params
        assert dataclasses.replace(a, name="c").params is a.params
        assert Action("c", params={"ver": 4}).params is not a.params

    def test_param_intern_table_is_bounded(self):
        from repro.core import actions

        for i in range(actions.PARAMS_INTERN_MAX + 10):
            Action("x", params={"i": i})
        assert len(actions._interned_params) == actions.PARAMS_INTERN_MAX

    @pytest.mark.parametrize(
        "clone",
        [
            lambda a: pickle.loads(pickle.dumps(a)),
            copy.deepcopy,
            dataclasses.replace,
        ],
        ids=["pickle", "deepcopy", "replace"],
    )
    def test_unread_signature_survives(self, clone):
        unread = Action("x", command="rpm -i {v}", params={"v": 1})
        copied = clone(unread)
        assert copied == unread
        assert copied.signature == unread.signature == Action(
            "x", command="rpm -i {v}", params={"v": 1}
        ).signature

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'signatur'"):
            Action("x").signatur


class TestDecodeLiteral:
    """``decode_literal`` is ``ast.literal_eval`` with the strings and
    numbers decoded in place: same value, same exception."""

    #: What ``repr`` writes for a scalar, what it never writes, near
    #: misses of the plain-string fast path, and two containers for
    #: the stdlib fallback.
    REPS = [
        "", "'", '"', "''", '""', "'a'", '"a"', "'a' 'b'", "'a', 'b'",
        "'a'+'b'", "'''a'''", "''''", "'a'b", "u'a'", "b'x'", "f'a'",
        "'a' # c", "'a'\n", " 'a'", "'a' ", "'\\n'", "'a\\'", "'\\x41'",
        "'a\nb'", "'a\tb'", "'a\rb'", "'a\x00b'", "'\xa0'", "' '",
        "'\xe9'", "'\U0001f600'", "'\ud800'", "'{x}'", "'\"'", '"\'"',
        "0", "-0", "7", "-5", "--5", "+5", "- 5", " 5", "5 ", "\t5",
        "\n5", "007", "0x10", "1_000", "9" * 5000, "1e3", "1.5",
        "-1.5e-07", "-0.0", "inf", "nan", "True", "-True", "False",
        "None", "-None", "-'a'", "...", "x", "-x", "1+2", "1j", "-1j",
        "1+2j", "[1, 'a']", "{'k': (2.5, None)}",
    ]

    @staticmethod
    def outcome(decode, rep):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # invalid escape sequences
            try:
                value = decode(rep)
            except (ValueError, SyntaxError, TypeError) as exc:
                return type(exc)
        return type(value), repr(value)

    @pytest.mark.parametrize("rep", REPS)
    def test_named_cases(self, rep):
        assert self.outcome(decode_literal, rep) == self.outcome(
            ast.literal_eval, rep
        )

    def test_random_text(self):
        rng = random.Random(24)
        alphabet = "'\"\\ \t\n0129-+.ejxab_#TrueNon\xe9"
        for _ in range(2000):
            rep = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(9))
            )
            assert self.outcome(decode_literal, rep) == self.outcome(
                ast.literal_eval, rep
            ), repr(rep)

    def test_reprs_round_trip(self):
        for value in (
            "alice", "it's", 'say "hi"', "a\\b", "tab\t", "", "\xe9t\xe9",
            0, -3, 10 ** 30, 2.5, -1e-9, True, None, [1, "a"],
        ):
            decoded = decode_literal(repr(value))
            assert decoded == value and type(decoded) is type(value)


class TestActionResult:
    def test_ok_statuses(self):
        assert ActionResult("a", ActionStatus.OK).ok
        assert ActionResult("a", ActionStatus.CACHED).ok
        assert not ActionResult("a", ActionStatus.FAILED).ok
        assert not ActionResult("a", ActionStatus.SKIPPED).ok

    def test_output_dict(self):
        result = ActionResult(
            "a", ActionStatus.OK, outputs=(("ip", "10.0.0.1"),)
        )
        assert result.output_dict == {"ip": "10.0.0.1"}
