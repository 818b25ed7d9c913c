"""``RngHub`` against the hub that kept every generator, and what a
name costs in memory.

The live hub keeps a ``random.Random`` only for a name that comes back
or was handed out; ``tests.helpers.oracle_rng_hub`` keeps one for every
name it has seen.  Whatever is asked of both, in whatever order, every
value and every final stream state must be equal.
"""

import copy
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shop.protocol import Transport
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub
from tests.helpers import oracle_rng_hub, traced_footprints

_NAMES = ("a", "b", "node0/vmware/script/tail-00001", "transport", "é", "")

_floats = st.floats(-4.0, 4.0)

_OPS = {
    "uniform": lambda hub, name, a, b: hub.uniform(name, a, b),
    "lognormal": lambda hub, name, a, b: hub.lognormal(name, a, b),
    "expovariate": lambda hub, name, a, b: hub.expovariate(name, abs(a) + 0.1),
    "choice": lambda hub, name, a, b: hub.choice(name, [a, b, name]),
    "random": lambda hub, name, a, b: hub.stream(name).random(),
    "getstate": lambda hub, name, a, b: hub.stream(name).getstate(),
}

_steps = st.lists(
    st.tuples(
        st.sampled_from(sorted(_OPS)),
        st.sampled_from(_NAMES),
        _floats,
        _floats,
    ),
    max_size=30,
)


def _drive_both(steps, seed=2004):
    """Drive both hubs through ``steps``; return (live, oracle) logs
    ending with every touched name's stream state."""
    logs = []
    for hub in (RngHub(seed), oracle_rng_hub(seed)):
        log = [_OPS[op](hub, name, a, b) for op, name, a, b in steps]
        for name in sorted({name for _, name, _, _ in steps}):
            log.append(hub.stream(name).getstate())
        logs.append(log)
    return logs


class TestSameDrawsAsAGeneratorPerName:
    @given(st.integers(0, 2**31), _steps)
    @settings(max_examples=300, deadline=None)
    def test_random_op_sequences_draw_identically(self, seed, steps):
        live, oracle = _drive_both(steps, seed)
        assert live == oracle

    def test_first_uniform_then_lognormal_on_one_name(self):
        steps = [("uniform", "a", 1.0, 3.0), ("lognormal", "a", 0.5, 0.25)]
        live, oracle = _drive_both(steps)
        assert live == oracle
        # ... and the other way round (a lognormal consumes a variable
        # number of ``random()`` calls, a uniform exactly one).
        live, oracle = _drive_both(steps[::-1] + steps)
        assert live == oracle

    def test_handed_out_generator_is_the_resident_one(self):
        hub, oracle = RngHub(7), oracle_rng_hub(7)
        assert hub.uniform("a", 0.0, 1.0) == oracle.uniform("a", 0.0, 1.0)
        held = hub.stream("a")
        assert hub.stream("a") is held
        assert hub.lognormal("a", 0.0, 0.1) == oracle.lognormal("a", 0.0, 0.1)
        # The named draw moved the generator the caller holds.
        assert held.getstate() == oracle.stream("a").getstate()
        assert held.random() == oracle.stream("a").random()
        assert hub.uniform("a", 2.0, 5.0) == oracle.uniform("a", 2.0, 5.0)
        assert hub.stream("a") is held

    def test_stream_first_named_draws_after(self):
        hub, oracle = RngHub(7), oracle_rng_hub(7)
        held = hub.stream("a")
        assert held.getstate() == oracle.stream("a").getstate()
        for _ in range(3):
            assert hub.uniform("a", 0, 9) == oracle.uniform("a", 0, 9)
            assert hub.lognormal("a", 0, 1) == oracle.lognormal("a", 0, 1)
        assert hub.stream("a") is held
        assert held.getstate() == oracle.stream("a").getstate()

    def test_one_draw_in_two_hubs_with_different_seeds(self):
        draws = {}
        for seed in (1, 2):
            hub, oracle = RngHub(seed), oracle_rng_hub(seed)
            draws[seed] = hub.uniform("a", 0.0, 1.0)
            assert draws[seed] == oracle.uniform("a", 0.0, 1.0)
            assert hub.stream("a").getstate() == oracle.stream("a").getstate()
        assert draws[1] != draws[2]

    def test_deepcopy_between_first_and_second_draw(self):
        hub, oracle = RngHub(7), oracle_rng_hub(7)
        first = hub.lognormal("a", 0.0, 0.3)
        assert first == oracle.lognormal("a", 0.0, 0.3)
        twin = copy.deepcopy(hub)
        second = oracle.uniform("a", 0.0, 1.0)
        # Both copies go on from the same place, neither moves the other.
        assert twin.uniform("a", 0.0, 1.0) == second
        assert hub.uniform("a", 0.0, 1.0) == second
        assert twin.stream("a") is not hub.stream("a")
        assert twin.stream("a").getstate() == hub.stream("a").getstate()

    def test_choice_neither_keeps_nor_replays_the_callers_sequence(self):
        class Bids(list):  # a plain list cannot be weakly referenced
            pass

        hub, oracle = RngHub(7), oracle_rng_hub(7)
        bids = Bids(["node0", "node1", "node2"])
        gone = weakref.ref(bids)
        assert hub.choice("bid-tie", bids) == oracle.choice("bid-tie", bids)
        # The caller's list changes under a hub that kept it ...
        bids.clear()
        assert hub.uniform("bid-tie", 0, 1) == oracle.uniform("bid-tie", 0, 1)
        # ... and lives as long as a hub that kept it.
        del bids
        assert gone() is None

    def test_repr_counts_every_name_once(self):
        hub = RngHub(7)

        def names():
            return len(hub._streams) + len(hub._drawn_once)

        hub.uniform("a", 0.0, 1.0)
        assert names() == 1
        hub.uniform("a", 0.0, 1.0)
        hub.stream("b")
        hub.lognormal("c", 0.0, 1.0)
        assert names() == 3


class TestBitForBitWithTheStdlib:
    """``RngHub.lognormal`` / ``uniform`` spell out the stdlib's own
    arithmetic (the Kinderman–Monahan loop of ``normalvariate``, and
    ``a + (b - a) * random()``) to save its frames.  This is the test
    that fails if a Python release changes either."""

    DRAWS = 10_000

    @staticmethod
    def reference(seed, name):
        return oracle_rng_hub(seed).stream(name)

    @pytest.mark.parametrize("sigma", [0.0, 0.2, 0.6])
    @pytest.mark.parametrize("how", ["resident", "drawn-once", "handed-out"])
    def test_ten_thousand_draws_equal_random_random(self, how, sigma):
        hub = RngHub(2004)
        name = "node3/vmware/script/install-os"
        ref = self.reference(2004, name)
        held = None
        if how == "resident":
            hub.stream(name)
        elif how == "handed-out":
            held = hub.stream(name)
        else:
            # The first draw seeds, draws and lets go; the second
            # replays it and keeps the generator.
            assert hub.lognormal(name, 0.5, sigma).hex() == (
                ref.lognormvariate(0.5, sigma).hex()
            )
            assert name not in hub._streams
        live, want = [], []
        for i in range(self.DRAWS):
            mu, low, high = (i % 7) - 3.0, i * 0.5, i * 0.5 + 1 + i % 3
            live.append(hub.lognormal(name, mu, sigma).hex())
            want.append(ref.lognormvariate(mu, sigma).hex())
            live.append(hub.uniform(name, low, high).hex())
            want.append(ref.uniform(low, high).hex())
            if held is not None and i % 97 == 0:  # the holder draws too
                live.append(held.random().hex())
                want.append(ref.random().hex())
        assert live == want
        assert hub.stream(name).getstate() == ref.getstate()

    @pytest.mark.parametrize("how", ["resident", "drawn-once", "handed-out"])
    def test_choice_equals_random_choice(self, how):
        # ``choice`` spells out ``_randbelow_with_getrandbits``: every
        # length 1-65 covers each power of two up to 64 and both its
        # neighbours, where the rejection loop's bit count changes.
        hub = RngHub(2004)
        name = "shop/bid-tie"
        ref = self.reference(2004, name)
        held = None
        if how == "resident":
            hub.stream(name)
        elif how == "handed-out":
            held = hub.stream(name)
        else:
            assert hub.uniform(name, 0.0, 1.0) == ref.uniform(0.0, 1.0)
            assert name not in hub._streams
        live, want = [], []
        for rounds in range(40):
            for n in range(1, 66):
                seq = tuple(range(n))
                live.append(hub.choice(name, seq))
                want.append(ref.choice(seq))
            if held is not None:  # the holder draws too
                live.append(held.getrandbits(7))
                want.append(ref.getrandbits(7))
        assert live == want
        assert hub.stream(name).getstate() == ref.getstate()

    def test_choice_from_nothing_raises(self):
        # ``getrandbits(0)`` is 0, never below a length of 0: without
        # the check the rejection loop would never end (here: would
        # end in the bounded stand-in's error, not ``IndexError``).
        hub = RngHub(2004)
        rng = hub.stream("shop/bid-tie")
        asked = []

        def getrandbits(k):
            asked.append(k)
            if len(asked) > 100:
                raise RuntimeError("the rejection loop does not end")
            return random.Random.getrandbits(rng, k)

        rng.getrandbits = getrandbits
        with pytest.raises(IndexError):
            hub.choice("shop/bid-tie", ())
        assert asked == []

    def test_a_zero_latency_transport_draws_nothing(self):
        env = Environment()
        transport = Transport(env, rng=RngHub(7), latency_s=0.0)
        before = transport.rng.stream("transport").getstate()
        proc = env.process(transport.call(lambda: "answer"))
        env.run()
        assert proc.value == "answer" and env.now == 0.0
        assert transport.rng.stream("transport").getstate() == before


class TestWhatANameCosts:
    def test_single_draw_names_are_journal_entries(self):
        # 10,000 names drawn from once each (``tests.footprints``): 85 B
        # a name at the time of writing (a tuple and a dictionary slot;
        # 164 B with the name itself, which there is the caller's); a
        # generator per name was 2,917 B.
        figures = traced_footprints()["single_draw_names"]
        assert figures["once"] <= 400
        # A name that comes back pays for its generator, once.
        assert 2000 <= figures["second"] <= 3100
        assert figures["third"] < figures["second"] / 100

    def test_distinct_requests_grow_a_site_by_a_bounded_amount(self):
        # A site_catalog-shaped stream in tier-1
        # (``tests.footprints.distinct_requests``): 1,869 B a request at
        # the time of writing, net (the lines' clone records, the RNG
        # journal), pinned with 25 % headroom; the intern tables are at
        # their bounds and turn over.  Traced only from inside the
        # window, which counts a freed entry made before it as never
        # freed, it read 3,229 B under a 3,600 B bound.  It read 3,638 B
        # (window-traced) with an instance dict per action, list
        # adjacency, a per-create shop log and a 4,096-entry selection
        # memo, and 9,159 B with a generator per random-stream name.
        assert traced_footprints()["distinct_requests"] <= 2_350
