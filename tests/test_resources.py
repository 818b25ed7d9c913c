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
            with res.request() as req:
                yield req
                log.append((env.now, name))
                yield env.timeout(5)

        for name in "abc":
            env.process(worker(env, name))
        env.run()
        assert log == [(0.0, "a"), (0.0, "b"), (5.0, "c")]

    def test_fifo_ordering(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(env, name, hold):
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(hold)

        for i, name in enumerate("abcd"):
            env.process(worker(env, name, 1))
        env.run()
        assert order == list("abcd")

    def test_context_manager_releases_on_exception(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def failing(env):
            with res.request() as req:
                yield req
                raise RuntimeError("die holding the slot")

        def after(env):
            yield env.timeout(1)
            with res.request() as req:
                yield req
                return env.now

        bad = env.process(failing(env))
        good = env.process(after(env))
        with pytest.raises(RuntimeError):
            env.run()
        env.run()
        assert good.value == 1.0
        assert res.count == 0

    def test_cancel_waiting_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        holder = res.request()
        waiter = res.request()
        assert not waiter.triggered
        waiter.cancel()
        res.release(holder)
        assert len(res.queue) == 0
        assert res.count == 0

    def test_double_release_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        req = res.request()
        res.release(req)
        res.release(req)
        assert res.count == 0

    def test_count_property(self):
        env = Environment()
        res = Resource(env, capacity=3)
        reqs = [res.request() for _ in range(2)]
        assert res.count == 2
        res.release(reqs[0])
        assert res.count == 1
