"""Property-based tests (hypothesis) on core invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.classad import ClassAd
from repro.core.dag import ConfigDAG
from repro.core.dagxml import dag_from_xml, dag_to_xml
from repro.core.matching import (
    partial_order_test,
    prefix_test,
    subset_test,
)
from repro.analysis.histograms import histogram
from repro.sim.kernel import Environment
from repro.sim.network import FairShareLink
from repro.sim.rng import RngHub
from repro.vnet.hostonly import HostOnlyNetworkPool
from repro.core.errors import VNetError

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def dags(draw, max_nodes=8):
    """Random DAGs built by only adding forward edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    node_names = [f"n{i}" for i in range(n)]
    dag = ConfigDAG()
    for name in node_names:
        dag.add_action(Action(name, command=f"cmd-{name}"))
    # Edges only from lower to higher index → acyclic by construction.
    for j in range(1, n):
        preds = draw(
            st.lists(
                st.integers(min_value=0, max_value=j - 1),
                unique=True,
                max_size=3,
            )
        )
        for i in preds:
            dag.add_edge(node_names[i], node_names[j])
    return dag


@st.composite
def dag_with_prefix(draw):
    """A DAG plus one of its valid prefix subsets."""
    dag = draw(dags())
    order = dag.topological_sort()
    # Greedily build a prefix: include a node only if all its
    # predecessors are included.
    included = []
    for name in order:
        if set(dag.predecessors(name)) <= set(included) and draw(
            st.booleans()
        ):
            included.append(name)
    return dag, included


# ---------------------------------------------------------------------------
# DAG invariants
# ---------------------------------------------------------------------------


class TestDagProperties:
    @given(dags())
    @settings(max_examples=60)
    def test_toposort_is_permutation_respecting_edges(self, dag):
        order = dag.topological_sort()
        assert sorted(order) == sorted(dag.actions)
        position = {name: i for i, name in enumerate(order)}
        for u, v in dag.edges():
            assert position[u] < position[v]

    @given(dag_with_prefix())
    @settings(max_examples=60)
    def test_prefix_plus_residual_is_whole_dag(self, case):
        dag, prefix = case
        assert dag.is_prefix_set(prefix)
        residual = dag.residual_after(prefix)
        assert sorted(residual + prefix) == sorted(dag.actions)

    @given(dag_with_prefix())
    @settings(max_examples=60)
    def test_residual_respects_partial_order(self, case):
        dag, prefix = case
        residual = dag.residual_after(prefix)
        position = {name: i for i, name in enumerate(residual)}
        for u, v in dag.edges():
            if u in position and v in position:
                assert position[u] < position[v]

    @given(dag_with_prefix())
    @settings(max_examples=60)
    def test_prefix_passes_all_three_matching_tests(self, case):
        dag, prefix = case
        # Prefixes listed in topological order satisfy every test.
        assert subset_test(prefix, dag)
        assert prefix_test(prefix, dag)
        assert partial_order_test(prefix, dag)

    @given(dags())
    @settings(max_examples=40)
    def test_xml_roundtrip_identity(self, dag):
        assert dag_from_xml(dag_to_xml(dag)) == dag

    @given(dags())
    @settings(max_examples=40)
    def test_ancestors_descendants_duality(self, dag):
        for name in dag.actions:
            for anc in dag.ancestors(name):
                assert name in dag.descendants(anc)


# ---------------------------------------------------------------------------
# ClassAd invariants
# ---------------------------------------------------------------------------

scalar_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.printable, max_size=20),
    st.booleans(),
)


class TestClassAdProperties:
    @given(
        st.dictionaries(
            st.text(
                alphabet=string.ascii_letters, min_size=1, max_size=10
            ),
            scalar_values,
            max_size=8,
        )
    )
    @settings(max_examples=80)
    def test_serialization_roundtrip(self, attrs):
        ad = ClassAd(attrs)
        back = ClassAd.from_string(ad.to_string())
        assert back == ad

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=40)
    def test_arithmetic_agrees_with_python(self, a, b):
        from repro.core.classad import evaluate

        assert evaluate(f"({a}) + ({b})") == a + b
        assert evaluate(f"({a}) * ({b})") == a * b
        assert evaluate(f"({a}) < ({b})") == (a < b)


# ---------------------------------------------------------------------------
# Kernel / network invariants
# ---------------------------------------------------------------------------


class TestKernelProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_timeouts_fire_in_order(self, delays):
        env = Environment()
        fired = []

        def waiter(env, delay):
            yield env.timeout(delay)
            fired.append(delay)

        for delay in delays:
            env.process(waiter(env, delay))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_fair_link_conserves_work(self, sizes):
        env = Environment()
        link = FairShareLink(env, "l", bandwidth_mbps=5.0)
        finished = []

        def flow(env, size):
            yield link.transfer(size)
            finished.append(env.now)

        for size in sizes:
            env.process(flow(env, size))
        env.run()
        assert len(finished) == len(sizes)
        total_time = max(finished)
        # Work conservation: all data moves at exactly link rate while
        # busy, so completion time equals total bytes / bandwidth.
        assert abs(total_time - sum(sizes) / 5.0) < 1e-6


class TestRngProperties:
    @given(st.integers(0, 2**31), names)
    @settings(max_examples=40)
    def test_streams_reproducible(self, seed, name):
        a = RngHub(seed).stream(name).random()
        b = RngHub(seed).stream(name).random()
        assert a == b

    @given(st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_streams_independent(self, seed):
        hub = RngHub(seed)
        # Drawing from one stream must not perturb another.
        first = RngHub(seed).stream("b").random()
        hub.stream("a").random()
        assert hub.stream("b").random() == first


# ---------------------------------------------------------------------------
# Histogram invariants
# ---------------------------------------------------------------------------


class TestHistogramProperties:
    @given(
        st.lists(
            st.floats(min_value=-1000, max_value=1000), max_size=100
        ),
        st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=60)
    def test_counts_conserve_samples(self, values, n_bins):
        centers = [float(5 + 10 * i) for i in range(n_bins)]
        hist = histogram(values, centers)
        assert sum(hist.counts) == len(values)
        if values:
            assert abs(sum(hist.frequencies) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# VNET isolation invariant
# ---------------------------------------------------------------------------


class TestVNetProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["d0", "d1", "d2", "d3", "d4", "d5"]),
                st.booleans(),  # attach (True) / detach-last (False)
            ),
            max_size=40,
        ),
        st.sampled_from(["sticky", "refcount"]),
    )
    @settings(max_examples=60)
    def test_isolation_holds_under_any_sequence(self, ops, policy):
        pool = HostOnlyNetworkPool("p", count=3, release_policy=policy)
        attached = []
        counter = 0
        for domain, is_attach in ops:
            if is_attach:
                counter += 1
                try:
                    pool.attach(domain, f"vm{counter}")
                    attached.append(f"vm{counter}")
                except VNetError:
                    pass  # pool exhausted: acceptable, never corrupt
            elif attached:
                pool.detach(attached.pop())
            pool.check_isolation()
        # Domains mapped to networks are always distinct.
        nets = [
            pool.network_of(d)
            for d in ("d0", "d1", "d2", "d3", "d4", "d5")
            if pool.network_of(d) is not None
        ]
        ids = [n.network_id for n in nets]
        assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# Matching optimality and warehouse roundtrips
# ---------------------------------------------------------------------------

from repro.core.matching import match_image, select_golden
from repro.core.spec import HardwareSpec
from repro.plant.warehouse import GoldenImage

from tests.helpers import oracle_image_to_xml


@st.composite
def warehouses_for(draw, dag):
    """Golden images whose performed lists are prefixes of ``dag``."""
    order = dag.topological_sort()
    images = []
    count = draw(st.integers(min_value=0, max_value=4))
    for i in range(count):
        included = []
        for name in order:
            if set(dag.predecessors(name)) <= set(included) and draw(
                st.booleans()
            ):
                included.append(name)
        images.append(
            GoldenImage(
                image_id=f"img{i}",
                vm_type="vmware",
                os="os",
                hardware=HardwareSpec(memory_mb=32),
                performed=tuple(dag.action(n) for n in included),
            )
        )
    return images


class TestMatchingProperties:
    @given(dags().flatmap(lambda d: st.tuples(st.just(d), warehouses_for(d))))
    @settings(max_examples=60)
    def test_select_golden_is_optimal(self, case):
        dag, images = case
        hw = HardwareSpec(memory_mb=32)
        best, result, all_results = select_golden(
            images, dag, hw, "os", "vmware"
        )
        matches = [r for r in all_results if r.matches]
        if not images:
            assert best is None
            return
        # Every prefix image matches (they were built as prefixes).
        assert len(matches) == len(images)
        if best is not None:
            assert result.depth == max(r.depth for r in matches)
            # satisfied + residual partitions the request DAG.
            assert sorted(result.satisfied + result.residual) == sorted(
                dag.actions
            )

    @given(dags().flatmap(lambda d: st.tuples(st.just(d), warehouses_for(d))))
    @settings(max_examples=40)
    def test_match_image_residual_is_executable_order(self, case):
        dag, images = case
        hw = HardwareSpec(memory_mb=32)
        for image in images:
            result = match_image(image, dag, hw, "os")
            assert result.matches
            done = set(result.satisfied)
            for name in result.residual:
                assert set(dag.predecessors(name)) <= done
                done.add(name)


class TestWarehouseProperties:
    @given(dags())
    @settings(max_examples=40)
    def test_golden_image_xml_roundtrip(self, dag):
        actions = tuple(
            dag.action(n) for n in dag.topological_sort()
        )
        image = GoldenImage(
            image_id="img",
            vm_type="vmware",
            os="some-os",
            hardware=HardwareSpec(memory_mb=64, disk_gb=8.0),
            performed=actions,
            memory_state_mb=64.0,
        )
        assert image.to_xml() == oracle_image_to_xml(image)
        assert GoldenImage.from_xml(image.to_xml()) == image
