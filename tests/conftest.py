"""A time limit on every test: one that runs longer fails, naming where
it was, instead of hanging the suite.

Stdlib only: a ``SIGALRM`` interval timer armed around each test's
call.  Where the platform has no ``SIGALRM`` the tests run unbounded.
"""

from __future__ import annotations

import signal

import pytest

#: Seconds a test's call may take: the slowest tier-1 test takes ~7 s
#: on a 2-vCPU guest.
TEST_TIME_LIMIT_S = 120


class TestTimeLimitExceeded(BaseException):
    """Raised into a test that ran past :data:`TEST_TIME_LIMIT_S`.

    A ``BaseException``, and not ``pytest.fail``'s ``Failed``: the code
    under test catches ``Exception`` in places, and hypothesis counts
    ``Failed`` as a failing example, which it would run again to shrink
    it — the very example that hung.
    """

    __test__ = False  # not a test class, whatever its name


def _time_is_up(_signum, _frame):
    raise TestTimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _time_is_up)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
