"""Unit tests for the Resource primitive."""

import pytest

from repro.sim.kernel import Environment
from repro.sim.resources import Resource


class TestResource:
    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        log = []

        def worker(env, name):
            req = res.request()
            try:
                yield req
                log.append((env.now, name))
                yield env.timeout(5)
            finally:
                res.release(req)

        for name in "abc":
            env.process(worker(env, name))
        env.run()
        assert log == [(0.0, "a"), (0.0, "b"), (5.0, "c")]

    def test_fifo_ordering(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(env, name, hold):
            req = res.request()
            try:
                yield req
                order.append(name)
                yield env.timeout(hold)
            finally:
                res.release(req)

        for i, name in enumerate("abcd"):
            env.process(worker(env, name, 1))
        env.run()
        assert order == list("abcd")

    def test_cancel_waiting_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        holder = res.request()
        waiter = res.request()
        assert not waiter.triggered
        res.release(waiter)
        res.release(holder)
        assert len(res.queue) == 0
        assert res.users == []

    def test_double_release_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        req = res.request()
        res.release(req)
        res.release(req)
        assert res.users == []
