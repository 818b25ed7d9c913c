"""Simulator components held to closed-form models.

Every golden says that a number did not move; a model says that it is
right.  The oracles live here, in test code, so a model never shares
the code it checks.

``FairShareLink`` is egalitarian processor sharing: the flows on a link
share its bandwidth equally, a partition freezes them in place, a new
rate applies from the instant it is set, and an outage fails every
flow in flight.  :func:`ps_oracle` is that model, event by event, and
hypothesis draws the flows and the faults.
"""

from __future__ import annotations

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.network import FairShareLink

#: The link's completion slack, in MB: a flow this close to done is.
_EPS = 1e-9
#: An operation this close to a completion may go either side of it,
#: by float rounding alone; such draws are left out.  Fates that agree
#: agree on the instant within ``_CLOSE_S``.
_TIE_S = 1e-6
_CLOSE_S = 1e-7

PENDING = ("pending",)


def ps_oracle(bandwidth, ops):
    """Each flow's fate under egalitarian processor sharing.

    ``ops`` is ``(time, kind, arg)``: ``("start", size)`` offers a flow
    that joins at once; ``("bw", mbps)``, ``("pause", None)``,
    ``("resume", None)`` and ``("abort", None)`` act on the link.  At one
    instant the operations go in list order.  Returns ``(fates, close)``: per flow, in list order,
    ``("done", t)``, ``("aborted", t)`` or ``PENDING``; and whether a
    flow drained within ``_TIE_S`` of an operation or a join.
    """
    timeline = []
    flows = 0
    for seq, (time, kind, arg) in enumerate(ops):
        if kind == "start":
            timeline.append((time, seq, "join", (flows, arg)))
            flows += 1
        else:
            timeline.append((time, seq, kind, arg))
    timeline.sort()
    fates = [PENDING] * flows
    active = {}  # flow -> MB still to send
    drained = []
    now, paused = 0.0, False

    def advance(to):
        nonlocal now
        while active and not paused:
            rate = bandwidth / len(active)
            done_at = now + min(active.values()) / rate
            if done_at >= to:
                break
            for flow in active:
                active[flow] -= rate * (done_at - now)
            now = done_at
            for flow in [f for f, left in active.items() if left <= _EPS]:
                del active[flow]
                fates[flow] = ("done", now)
                drained.append(now)
        if active and not paused and to < math.inf:
            rate = bandwidth / len(active)
            for flow in active:
                active[flow] -= rate * (to - now)
        now = to

    for time, _, kind, arg in timeline:
        advance(time)
        if kind == "join":
            flow, size = arg
            if size <= _EPS:
                fates[flow] = ("done", now)
            else:
                active[flow] = size
        elif kind == "bw":
            bandwidth = arg
        elif kind == "pause":
            paused = True
        elif kind == "resume":
            paused = False
        else:
            for flow in active:
                fates[flow] = ("aborted", now)
            active.clear()
    advance(math.inf)
    close = any(
        abs(end - entry[0]) <= _TIE_S for end in drained for entry in timeline
    )
    return fates, close


def run_link(bandwidth, ops):
    """Each flow's fate on a :class:`FairShareLink` driven by ``ops``."""
    env = Environment()
    link = FairShareLink(env, "nfs", bandwidth)
    fates = [PENDING] * sum(1 for op in ops if op[1] == "start")

    def note(flow):
        def landed(event):
            event.defused = True
            fates[flow] = ("done" if event.ok else "aborted", env.now)

        return landed

    def act(kind, arg, flow):
        def fire(_event):
            if kind == "start":
                link.transfer(arg).callbacks.append(note(flow))
            elif kind == "bw":
                link.set_bandwidth(arg)
            elif kind == "pause":
                link.pause()
            elif kind == "resume":
                link.resume()
            else:
                link.abort_flows(lambda: ConnectionError("link down"))

        return fire

    flow = 0
    for time, kind, arg in ops:
        env.call_later(time, act(kind, arg, flow))
        flow += kind == "start"
    env.run()
    return fates


def agree(got, want):
    """Same fate for every flow, at the same instant within 1e-7 s."""
    assert len(got) == len(want)
    for flow, (g, w) in enumerate(zip(got, want)):
        assert g[0] == w[0], (flow, g, w)
        if g is not PENDING:
            assert abs(g[1] - w[1]) <= _CLOSE_S, (flow, g, w)


_bandwidths = st.sampled_from([12.5, 100.0, 110.0])
_times = st.integers(0, 40).map(lambda k: k / 4)
_sizes = st.one_of(
    st.just(0.0),
    st.floats(0.5, 60.0, allow_nan=False, allow_infinity=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(_times, st.just("start"), _sizes),
        st.tuples(_times, st.just("start"), _sizes),
        st.tuples(_times, st.just("bw"), _bandwidths),
        st.tuples(_times, st.sampled_from(["pause", "resume", "abort"]),
                  st.none()),
    ),
    min_size=1,
    max_size=12,
)


class TestFairShareLinkIsProcessorSharing:
    @given(_bandwidths, _ops)
    # Two flows: the second finishes only if the link re-arms its timer
    # when the first leaves.
    @example(10.0, [(0, "start", 10.0), (0, "start", 30.0)])
    # A partition, a slower rate while frozen, an outage after healing.
    @example(
        100.0,
        [(0, "start", 40.0), (0.25, "start", 70.0), (0.5, "pause", None),
         (1.0, "bw", 12.5), (1.5, "resume", None), (2.5, "start", 9.0),
         (3.0, "abort", None), (3.0, "start", 1.0)],
    )
    @settings(max_examples=200, deadline=None)
    def test_every_flow_ends_as_the_model_says(self, bandwidth, ops):
        want, close = ps_oracle(bandwidth, ops)
        assume(not close)
        agree(run_link(bandwidth, ops), want)

    def test_two_flows_share_then_the_second_runs_alone(self):
        # 5 MB/s each until the first leaves at 2 s; then 10 MB/s.
        ops = [(0, "start", 10.0), (0, "start", 30.0)]
        assert run_link(10.0, ops) == [("done", 2.0), ("done", 4.0)]
        assert ps_oracle(10.0, ops)[0] == [("done", 2.0), ("done", 4.0)]

    def test_a_partition_freezes_and_an_outage_fails(self):
        ops = [(0, "start", 10.0), (0.5, "pause", None),
               (2.0, "resume", None), (2.25, "abort", None),
               (3.0, "start", 4.0), (3.0, "pause", None)]
        # 10 MB at 10 MB/s: 5 MB by the partition, 2.5 MB more after
        # it heals, then the outage; the last flow never moves.
        assert run_link(10.0, ops) == [("aborted", 2.25), PENDING]
        agree(run_link(10.0, ops), ps_oracle(10.0, ops)[0])
