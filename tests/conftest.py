"""A time limit on every test, and the hypothesis profiles.

A test that runs longer than the limit fails, naming where it was,
instead of hanging the suite: a ``SIGALRM`` interval timer armed around
each test's call.  Where the platform has no ``SIGALRM`` the tests run
unbounded.

Two hypothesis profiles.  ``tier1``, the default, draws the same
examples on every run (derived from each test's name), keeps no example
database and runs each test's own ``max_examples``: a red run is red
again on rerun, wherever it runs.  ``deep`` (``--hypothesis-profile
deep``) draws from a random seed that the end of the report prints
and runs ten times each test's examples, with ten times the time
limit.  ``--hypothesis-profile deep --hypothesis-seed N`` replays such
a run (under ``tier1`` a seed is ignored: derandomizing wins).

Hypothesis has no public way to scale a test's own ``max_examples``, so
``deep`` rewrites the settings each ``@given`` test and state machine
carries.  Before any test runs, a ``deep`` run checks on two probes that
hypothesis runs the scaled count, and stops with a usage error if not;
the end of the report says how many tests it scaled.
"""

from __future__ import annotations

import random
import signal

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("deep", database=None, print_blob=True)
settings.load_profile("tier1")

#: How many times its own ``max_examples`` a test runs under ``deep``.
DEEP_EXAMPLES_FACTOR = 10

#: Seconds a test's call may take under ``tier1``: the slowest tier-1
#: test takes ~7 s on a 2-vCPU guest.
TEST_TIME_LIMIT_S = 120


class TestTimeLimitExceeded(BaseException):
    """Raised into a test that ran past :data:`TEST_TIME_LIMIT_S`.

    A ``BaseException``, and not ``pytest.fail``'s ``Failed``: the code
    under test catches ``Exception`` in places, and hypothesis counts
    ``Failed`` as a failing example, which it would run again to shrink
    it — the very example that hung.
    """

    __test__ = False  # not a test class, whatever its name


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    # Ten times the examples under ``deep``, ten times the time.
    limit = TEST_TIME_LIMIT_S * (DEEP_EXAMPLES_FACTOR if _deep(item.config) else 1)

    def time_is_up(_signum, _frame):
        raise TestTimeLimitExceeded(f"test ran past {limit} s")

    previous = signal.signal(signal.SIGALRM, time_is_up)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _deep(config) -> bool:
    return config.getoption("hypothesis_profile") == "deep"


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Before hypothesis's own hook reads the option.
    if _deep(config) and config.getoption("hypothesis_seed") is None:
        config.option.hypothesis_seed = str(random.SystemRandom().getrandbits(32))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _deep(config):
        seed = config.getoption("hypothesis_seed")
        terminalreporter.write_line(
            f"hypothesis deep profile: {config.stash.get(_SCALED, 0)} tests "
            f"ran {DEEP_EXAMPLES_FACTOR}x their examples from seed {seed}; "
            f"--hypothesis-profile deep --hypothesis-seed {seed} replays it"
        )


_SCALED = pytest.StashKey[int]()


def pytest_collection_modifyitems(config, items):
    """Under ``deep``, scale each hypothesis test's ``max_examples``."""
    if not _deep(config):
        return
    _check_scaling()
    scaled = set()
    for item in items:
        # A ``@given`` function, or a state machine's test case class.
        owner = getattr(item, "function", None)
        if not hasattr(owner, "_hypothesis_internal_use_settings"):
            owner = item.cls if hasattr(item.cls, "runTest") else None
        if owner is not None and id(owner) not in scaled:
            scaled.add(id(owner))
            _scale(owner)
    config.stash[_SCALED] = len(scaled)


def _scale(owner) -> None:
    if isinstance(owner, type):
        owner.settings = _scaled(owner.settings)
    else:
        owner._hypothesis_internal_use_settings = _scaled(
            owner._hypothesis_internal_use_settings
        )


def _scaled(base):
    return settings(base, max_examples=base.max_examples * DEEP_EXAMPLES_FACTOR)


def _check_scaling() -> None:
    """Run a two-example ``@given`` probe and state machine, scaled as
    the tests are, and fail the session unless each ran more than two
    examples: a hypothesis that stopped reading the rewritten settings
    would otherwise turn ``deep`` into a quiet ``tier1``."""
    from hypothesis import given, strategies as st
    from hypothesis.stateful import RuleBasedStateMachine, rule

    runs = {"given": 0, "machine": 0}

    @settings(max_examples=2, database=None, deadline=None)
    @given(st.integers())
    def probe(_n):
        runs["given"] += 1

    class Probe(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            runs["machine"] += 1

        @rule()
        def step(self):
            pass

    Probe.TestCase.settings = settings(
        max_examples=2, database=None, deadline=None, stateful_step_count=1
    )
    _scale(probe)
    _scale(Probe.TestCase)
    probe()
    Probe.TestCase("runTest").runTest()
    if min(runs.values()) <= 2:
        raise pytest.UsageError(
            f"hypothesis deep profile: probes ran {runs} examples, not "
            f"{2 * DEEP_EXAMPLES_FACTOR} each; the scaling no longer takes"
        )
