"""MatchIndex vs. brute-force equivalence, caches, and satellites.

The warehouse's indexed/memoized matching path must be bit-identical
to the brute-force :func:`select_golden` reference: same winning
image, same satisfied/residual tuples, for every randomized
(DAG, warehouse, hardware) combination — including after a publish
between queries.  The property suite below covers chains, diamonds,
wide fan-outs, random DAGs, signature conflicts and every hardware/os
rejection axis, and asserts well over 200 randomized cases.

The index is a prefix trie per bucket, so a hypothesis state machine
(:class:`TrieMachine`) also drives publish / select with
performed sequences chosen to attack the trie — shared prefixes,
same-name conflicts at one depth, duplicates, late or missing
prerequisites, foreign names, the empty sequence, twin buckets — and
checks the trie's shape after every step.  Exact Python-call budgets
(``cProfile`` without builtins) keep a query's cost tied to the path it
matches, not to the catalog's size.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import random
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.errors import DAGError
from repro.core.matching import select_golden
from repro.core.matchindex import MatchIndex
from repro.core.spec import HardwareSpec
from repro.plant.warehouse import GoldenImage, VMWarehouse

from tests.helpers import python_calls

OSES = ("rh8", "deb3")
VM_TYPES = ("vmware", "uml")


def action(i: int, command: Optional[str] = None) -> Action:
    return Action(f"a{i}", command=command or f"cmd{i}")


# -- random DAG shapes -------------------------------------------------------
def chain_dag(rng: random.Random, n: int) -> ConfigDAG:
    return ConfigDAG.from_sequence(action(i) for i in range(n))


def diamond_dag(rng: random.Random, n: int) -> ConfigDAG:
    """Source → middle layer → sink (classic diamond, width n-2)."""
    n = max(n, 3)
    edges = []
    for i in range(1, n - 1):
        edges += [("a0", f"a{i}"), (f"a{i}", f"a{n - 1}")]
    return ConfigDAG.from_edges([action(i) for i in range(n)], edges)


def fanout_dag(rng: random.Random, n: int) -> ConfigDAG:
    """One root with n-1 independent children (maximal width)."""
    return ConfigDAG.from_edges(
        [action(i) for i in range(n)], [("a0", f"a{i}") for i in range(1, n)]
    )


def random_dag(rng: random.Random, n: int) -> ConfigDAG:
    edges = [
        (f"a{i}", f"a{j}")
        for j in range(1, n)
        for i in range(j)
        if rng.random() < 0.3
    ]
    return ConfigDAG.from_edges([action(i) for i in range(n)], edges)


DAG_SHAPES = (chain_dag, diamond_dag, fanout_dag, random_dag)


def random_prefix_sequence(
    rng: random.Random, dag: ConfigDAG, keep: float = 0.6
) -> List[str]:
    """A random linear extension of a random downward-closed subset."""
    chosen: List[str] = []
    have = set()
    for name in dag.topological_sort():
        if all(p in have for p in dag.predecessors(name)):
            if rng.random() < keep:
                chosen.append(name)
                have.add(name)
    # Random linear extension of the chosen ideal.
    order: List[str] = []
    remaining = set(chosen)
    while remaining:
        ready = sorted(
            n for n in remaining
            if all(p not in remaining for p in dag.predecessors(n))
        )
        pick = rng.choice(ready)
        order.append(pick)
        remaining.discard(pick)
    return order


def perturb(
    rng: random.Random, dag: ConfigDAG, names: List[str]
) -> Tuple[str, List[Action]]:
    """Derive a (possibly broken) performed sequence from a prefix."""
    kind = rng.choice(
        ("valid", "shuffled", "foreign", "gap", "conflict")
    )
    actions = [dag.action(n) for n in names]
    if kind == "shuffled" and len(actions) > 1:
        rng.shuffle(actions)
    elif kind == "foreign":
        actions.append(Action("zz-foreign", command="zzz"))
    elif kind == "gap" and actions:
        del actions[rng.randrange(len(actions))]
    elif kind == "conflict" and actions:
        i = rng.randrange(len(actions))
        actions[i] = Action(actions[i].name, command="conflicting!")
    return kind, actions


def random_image(
    rng: random.Random, dag: ConfigDAG, idx: int
) -> GoldenImage:
    names = random_prefix_sequence(rng, dag)
    _, performed = perturb(rng, dag, names)
    return GoldenImage(
        image_id=f"img{idx:03d}",
        vm_type=rng.choice(VM_TYPES),
        os=rng.choice(OSES),
        hardware=HardwareSpec(
            isa=rng.choice(("x86", "x86_64")),
            memory_mb=rng.choice((32, 64)),
            disk_gb=rng.choice((2.0, 4.0, 8.0)),
            cpus=rng.choice((1, 2)),
        ),
        performed=tuple(performed),
        memory_state_mb=float(rng.choice((0, 32))),
    )


def assert_equivalent(
    wh: VMWarehouse,
    dag: ConfigDAG,
    hardware: HardwareSpec,
    os: str,
    vm_type: Optional[str],
) -> int:
    """Indexed+memoized result == brute force; returns 1 (case count)."""
    brute_image, brute_result, _ = select_golden(
        wh.images(vm_type), dag, hardware, os, vm_type
    )
    fast_image, fast_result = wh.select(dag, hardware, os, vm_type)
    if brute_image is None:
        assert fast_image is None and fast_result is None
    else:
        assert fast_image is brute_image
        assert brute_result is not None and fast_result is not None
        assert fast_result.image_id == brute_result.image_id
        assert fast_result.satisfied == brute_result.satisfied
        assert fast_result.residual == brute_result.residual
        assert fast_result.matches and brute_result.matches
    # Memoized replay must serve the identical object.
    again_image, again_result = wh.select(dag, hardware, os, vm_type)
    assert again_image is fast_image and again_result is fast_result
    return 1


class TestBruteForceEquivalence:
    def test_randomized_equivalence_suite(self):
        rng = random.Random(20040)
        cases = 0
        for round_no in range(40):
            shape = DAG_SHAPES[round_no % len(DAG_SHAPES)]
            dag = shape(rng, rng.randrange(3, 10))
            wh = VMWarehouse(
                random_image(rng, dag, i)
                for i in range(rng.randrange(4, 14))
            )
            queries = [
                (
                    HardwareSpec(
                        isa=rng.choice(("x86", "x86_64")),
                        memory_mb=rng.choice((32, 64)),
                        disk_gb=rng.choice((2.0, 4.0)),
                        cpus=rng.choice((1, 2)),
                    ),
                    rng.choice(OSES),
                    rng.choice((None,) + VM_TYPES),
                )
                for _ in range(4)
            ]
            for hardware, os, vm_type in queries:
                cases += assert_equivalent(wh, dag, hardware, os, vm_type)
            # A publish between queries must stay equivalent: add a
            # fresh image, recheck.
            wh.publish(random_image(rng, dag, 900 + round_no))
            for hardware, os, vm_type in queries[:2]:
                cases += assert_equivalent(wh, dag, hardware, os, vm_type)
        assert cases >= 200, f"only {cases} randomized cases exercised"

    def test_deep_prefix_wins_and_id_breaks_ties(self):
        dag = ConfigDAG.from_sequence(action(i) for i in range(4))
        hw = HardwareSpec(memory_mb=32)
        deep = [action(0), action(1), action(2)]
        shallow = [action(0)]
        wh = VMWarehouse(
            [
                GoldenImage("b-deep", "vmware", "rh8", hw,
                            performed=tuple(deep)),
                GoldenImage("a-deep", "vmware", "rh8", hw,
                            performed=tuple(deep)),
                GoldenImage("a-shallow", "vmware", "rh8", hw,
                            performed=tuple(shallow)),
            ]
        )
        image, result = wh.select(dag, hw, "rh8", "vmware")
        assert image.image_id == "a-deep"  # depth first, then id
        assert result.residual == ("a3",)
        assert_equivalent(wh, dag, hw, "rh8", "vmware")

    def test_memo_invalidated_by_generation(self):
        dag = ConfigDAG.from_sequence([action(0), action(1)])
        hw = HardwareSpec(memory_mb=32)
        wh = VMWarehouse(
            [GoldenImage("img-a", "vmware", "rh8", hw,
                         performed=(action(0),))]
        )
        first, _ = wh.select(dag, hw, "rh8", "vmware")
        assert first.image_id == "img-a"
        gen = wh.generation
        wh.publish(
            GoldenImage("img-0", "vmware", "rh8", hw,
                        performed=(action(0), action(1)))
        )
        assert wh.generation == gen + 1
        better, result = wh.select(dag, hw, "rh8", "vmware")
        assert better.image_id == "img-0"
        assert result.residual == ()

    def test_memo_shared_across_plants_counts_hits(self):
        dag = ConfigDAG.from_sequence([action(0)])
        hw = HardwareSpec(memory_mb=32)
        wh = VMWarehouse(
            [GoldenImage("img-a", "vmware", "rh8", hw,
                         performed=(action(0),))]
        )
        for _ in range(5):  # five plants bidding on one request
            wh.select(dag, hw, "rh8", "vmware")
        assert wh.match_stats["queries"] == 5
        assert wh.match_stats["memo_hits"] == 4
        assert wh.index_stats["queries"] == 1

    def test_memo_holds_the_rounds_in_flight_not_the_stream(self):
        hw = HardwareSpec(memory_mb=32)
        images = [GoldenImage("img-a", "vmware", "rh8", hw,
                              performed=(action(0),))]
        dags = [
            ConfigDAG.from_sequence([action(0), Action(f"tail-{i}")])
            for i in range(1000)
        ]
        # An all-distinct stream, eight plants a round: every round keeps
        # its seven hits and the table stays at its bound.
        wh = VMWarehouse(images)
        for dag in dags:
            for _ in range(8):
                wh.select(dag, hw, "rh8", "vmware")
            assert len(wh._memo) <= 64
        assert wh.match_stats == {"queries": 8000, "memo_hits": 7000}
        # 64 rounds in flight at once still hit.
        wh = VMWarehouse(images)
        for dag in dags[:64] * 2:
            wh.select(dag, hw, "rh8", "vmware")
        assert wh.match_stats == {"queries": 128, "memo_hits": 64}


class TestMatchIndexMaintenance:
    def test_bucket_rejection_never_touches_dag(self):
        index = MatchIndex()
        hw = HardwareSpec(memory_mb=32)
        index.add(
            GoldenImage("x", "vmware", "windows", hw,
                        performed=(action(0),))
        )
        dag = ConfigDAG.from_sequence([action(0)])
        image, result = index.select(dag, hw, "rh8", "vmware")
        assert image is None and result is None
        assert index.stats["profiles_tested"] == 0
        assert index.stats["images_skipped_by_bucket"] == 1


class TestDagCacheInvalidation:
    def test_residual_and_validate_use_cached_topo(self):
        dag = ConfigDAG.from_sequence(action(i) for i in range(5))
        assert dag.residual_after(["a0", "a1"]) == ["a2", "a3", "a4"]
        with pytest.raises(DAGError):
            dag.residual_after(["a1"])


class TestFrozenDag:
    def handled_dag(self) -> Tuple[ConfigDAG, ConfigDAG]:
        handler = ConfigDAG.from_sequence([Action("fix", command="f")])
        dag = ConfigDAG.from_edges(
            [action(0), action(1)], [("a0", "a1")], [("a0", handler)]
        )
        return dag, handler

    def test_memo_hit_on_frozen_dag_skips_token_and_topo(self, monkeypatch):
        dag, _ = self.handled_dag()
        hw = HardwareSpec(memory_mb=32)
        wh = VMWarehouse(
            [GoldenImage("img", "vmware", "rh8", hw, performed=(action(0),))]
        )
        first = wh.select(dag, hw, "rh8", "vmware")

        def no_walk(self):
            raise AssertionError("DAG re-derived on a memo hit")

        monkeypatch.setattr(ConfigDAG, "structure", no_walk)
        monkeypatch.setattr(ConfigDAG, "_topo", no_walk)
        assert wh.select(dag, hw, "rh8", "vmware") is first
        assert wh.match_stats["memo_hits"] == 1
        # Its key is read off the DAG, not asked of it.
        monkeypatch.setattr(ConfigDAG, "fingerprint", no_walk)
        assert wh.select(dag, hw, "rh8", "vmware") is first
        assert wh.match_stats == {"queries": 3, "memo_hits": 2}

    def test_sealed_fingerprint_is_the_fingerprint_once_frozen(self):
        dag, handler = self.handled_dag()
        assert dag.sealed_fingerprint is None  # not asked yet
        digest = dag.fingerprint()
        assert dag.sealed_fingerprint == digest
        assert digest == self.handled_dag()[0].fingerprint()
        assert handler.sealed_fingerprint is None  # asked of dag only
        assert handler.fingerprint() == handler.sealed_fingerprint

    def test_memo_keys_on_hardware_fields(self):
        dag, _ = self.handled_dag()
        wh = VMWarehouse(
            [
                GoldenImage(
                    "img", "vmware", "rh8",
                    HardwareSpec(memory_mb=32, disk_gb=4.0),
                    performed=(action(0),),
                )
            ]
        )
        fits = wh.select(dag, HardwareSpec(memory_mb=32), "rh8", "vmware")
        assert fits[0].image_id == "img"
        # Equal specs share an entry; any differing field does not.
        assert wh.select(
            dag, HardwareSpec(memory_mb=32), "rh8", "vmware"
        ) is fits
        for other in (
            HardwareSpec(memory_mb=64),
            HardwareSpec(memory_mb=32, disk_gb=8.0),
            HardwareSpec(memory_mb=32, cpus=2),
            HardwareSpec(memory_mb=32, isa="ppc"),
        ):
            assert wh.select(dag, other, "rh8", "vmware") == (None, None)
        assert wh.match_stats == {"queries": 6, "memo_hits": 1}


# ---------------------------------------------------------------------------
# The trie under attack: a hypothesis state machine
# ---------------------------------------------------------------------------

def _diamond() -> ConfigDAG:
    return ConfigDAG.from_edges(
        [action(i) for i in range(6)],
        [
            (f"a{before}", f"a{after}")
            for before, after in ((0, 1), (0, 2), (1, 3), (2, 3), (4, 5))
        ],
    )


#: Request DAGs over a0..a5 the machine queries with.
REQUEST_DAGS = (
    ConfigDAG.from_sequence(action(i) for i in range(6)),
    _diamond(),
    fanout_dag(random.Random(0), 6),
    ConfigDAG.from_sequence([action(0), action(1)]),
    ConfigDAG(),
)

#: One performed step: a request action, the same name with other
#: content (signature conflict), or a name no request has.
STEP = st.one_of(
    st.integers(0, 5).map(action),
    st.integers(0, 5).map(lambda i: action(i, command="conflicting!")),
    st.just(Action("zz-foreign", command="zzz")),
)
#: Any order, any repeats: late or missing prerequisites, duplicates,
#: foreign names mid-sequence and the empty sequence all come out of
#: this; the named corpus below makes sure each is hit.
SEQUENCE = st.lists(STEP, max_size=6).map(tuple)
ADVERSARIAL = {
    "empty": (),
    "valid-chain": (action(0), action(1), action(2)),
    "shared-prefix-diverges": (action(0), action(2)),
    "same-name-other-signature": (action(0), action(1, "conflicting!")),
    "duplicate": (action(0), action(1), action(0)),
    "prerequisite-late": (action(1), action(0)),
    "prerequisite-never": (action(0), action(3)),
    "foreign-mid-sequence": (
        action(0), Action("zz-foreign", command="zzz"), action(1),
    ),
}
#: (vm_type, os, memory): twin buckets differ in one component only.
BUCKETS = st.tuples(
    st.sampled_from(VM_TYPES),
    st.sampled_from(OSES),
    st.sampled_from((32, 64)),
)


class TrieMachine(RuleBasedStateMachine):
    """publish / select in any order: the warehouse keeps answering
    like ``select_golden`` and the trie keeps its shape."""

    def __init__(self):
        super().__init__()
        self.wh = VMWarehouse()
        self.live = {}
        self.serial = 0

    def _publish(self, bucket, performed, disk_gb=4.0):
        vm_type, os, memory_mb = bucket
        self.serial += 1
        image = GoldenImage(
            f"img{self.serial:03d}", vm_type, os,
            HardwareSpec(memory_mb=memory_mb, disk_gb=disk_gb),
            performed=performed,
        )
        self.wh.publish(image)
        self.live[image.image_id] = image

    @rule(bucket=BUCKETS, performed=SEQUENCE,
          disk_gb=st.sampled_from((2.0, 4.0)))
    def publish(self, bucket, performed, disk_gb):
        self._publish(bucket, performed, disk_gb)

    @rule(bucket=BUCKETS, case=st.sampled_from(sorted(ADVERSARIAL)))
    def publish_adversarial(self, bucket, case):
        self._publish(bucket, ADVERSARIAL[case])

    @precondition(lambda self: self.live)
    @rule(data=st.data(), bucket=st.none() | BUCKETS, tail=SEQUENCE)
    def publish_relative(self, data, bucket, tail):
        """Same sequence in a twin bucket, or a sibling branching off an
        existing one part-way."""
        base = self.live[data.draw(st.sampled_from(sorted(self.live)))]
        keep = data.draw(st.integers(0, len(base.performed)))
        own = (base.vm_type, base.os, base.hardware.memory_mb)
        self._publish(bucket or own, base.performed[:keep] + tail)

    @rule(
        dag=st.sampled_from(REQUEST_DAGS),
        bucket=BUCKETS,
        disk_gb=st.sampled_from((2.0, 4.0)),
        any_vm_type=st.booleans(),
    )
    def select(self, dag, bucket, disk_gb, any_vm_type):
        vm_type, os, memory_mb = bucket
        assert_equivalent(
            self.wh, dag,
            HardwareSpec(memory_mb=memory_mb, disk_gb=disk_gb),
            os, None if any_vm_type else vm_type,
        )

    @invariant()
    def trie_is_minimal(self):
        index = self.wh._index
        assert index._n_images == len(self.live)
        buckets = [
            (i.vm_type, i.os, i.hardware.isa, i.hardware.memory_mb)
            for i in self.live.values()
        ]
        assert set(index._buckets) == set(buckets)
        # A root counts its bucket's images: select subtracts it from
        # the images a bucket lookup skipped.
        for key, root in index._buckets.items():
            assert root.size == buckets.count(key)
        held = 0
        stack = list(index._buckets.values())
        seen = set()
        while stack:
            node = stack.pop()
            # A tree: each node hangs off exactly one edge.
            assert id(node) not in seen
            seen.add(id(node))
            # No dead wood: a node is there for an image at or below it.
            assert node.images or node.children
            held += len(node.images)
            for step, child in node.children.items():
                assert child.names == node.names + (step[0],)
                stack.append(child)
        assert held == len(self.live)
        # Nodes know no parent: the way back to an image's node is the
        # image's own sequence, walked down from its bucket's root.
        for image_id, image in self.live.items():
            bucket, steps = index._path(image)
            node = index._buckets[bucket]
            for step in steps:
                node = node.children[step]
            assert node.images[image_id] is image
            assert not hasattr(node, "parent")


TestTrieMachine = TrieMachine.TestCase
TestTrieMachine.settings = settings(
    max_examples=200, stateful_step_count=25, deadline=None
)


class TestAdversarialSequences:
    #: Which named sequences are usable prefixes of which request DAG.
    MATCHES = {
        0: {"empty", "valid-chain"},  # the chain a0..a5
        # the diamond: a1 and a2 both need only a0
        1: {"empty", "valid-chain", "shared-prefix-diverges"},
    }

    @pytest.mark.parametrize("dag_no", sorted(MATCHES))
    def test_named_cases_match_exactly_where_they_should(self, dag_no):
        dag = REQUEST_DAGS[dag_no]
        hw = HardwareSpec(memory_mb=32)
        for case, performed in ADVERSARIAL.items():
            index = MatchIndex()
            index.add(
                GoldenImage(case, "vmware", "rh8", hw, performed=performed)
            )
            image, result = index.select(dag, hw, "rh8", "vmware")
            assert (image is not None) == (case in self.MATCHES[dag_no]), case
            if image is not None:
                assert result.satisfied == tuple(a.name for a in performed)
        wh = VMWarehouse(
            GoldenImage(f"{case}/{vm_type}", vm_type, "rh8", hw,
                        performed=performed)
            for case, performed in ADVERSARIAL.items()
            for vm_type in VM_TYPES
        )
        for vm_type in (None,) + VM_TYPES:
            assert_equivalent(wh, dag, hw, "rh8", vm_type)


# ---------------------------------------------------------------------------
# Perf-smoke guards: exact Python-call budgets
# ---------------------------------------------------------------------------


def chain_step(k: int, variant: int) -> Action:
    return Action(
        f"step-{k:02d}", command="install {pkg}",
        params={"pkg": f"pkg-{k}-{variant}"},
    )


def chain_catalog(rng: random.Random, n: int, start: int = 0):
    """Images cut from a 12-step chain with 3 variants per step (the
    e2e benchmark's ``site_catalog`` shape)."""
    hw = HardwareSpec(memory_mb=64)
    return [
        GoldenImage(
            f"catalog-{start + i:05d}", "vmware", "rh8", hw,
            performed=tuple(
                chain_step(k, rng.randrange(3))
                for k in range(rng.randint(1, 12))
            ),
        )
        for i in range(n)
    ]


class TestCallBudgets:
    def test_memo_miss_cost_follows_the_path_not_the_catalog(
        self, monkeypatch
    ):
        rng = random.Random(13)
        hw = HardwareSpec(memory_mb=64)
        dag = ConfigDAG.from_sequence(
            [chain_step(k, 0) for k in range(12)]
            + [Action("tail", command="useradd -m user")]
        )
        wh = VMWarehouse(chain_catalog(rng, 200))
        wh.select(dag, hw, "rh8", "vmware")  # the DAG's own caches fill

        def miss() -> int:
            # A publish in another bucket voids the memo and leaves
            # this bucket's trie alone.
            wh.publish(
                GoldenImage(f"other-{len(wh)}", "uml", "rh8", hw)
            )
            hits = wh.match_stats["memo_hits"]
            reached = wh.index_stats["profiles_tested"]
            cost = python_calls(lambda: wh.select(dag, hw, "rh8", "vmware"))
            assert wh.match_stats["memo_hits"] == hits
            return cost, wh.index_stats["profiles_tested"] - reached

        def no_hashing(*args, **kwargs):
            raise AssertionError("matching must not hash")

        monkeypatch.setattr(hashlib, "sha256", no_hashing)
        small, reached_small = miss()
        monkeypatch.undo()
        for image in chain_catalog(rng, 1800, start=200):
            wh.publish(image)
        monkeypatch.setattr(hashlib, "sha256", no_hashing)
        large, reached_large = miss()
        # 23 at the time of writing; the flat profile scan spent ~1,500
        # on the small catalog and ten times that on the large one.
        assert small == large <= 60
        assert reached_small <= reached_large <= 12

    def test_signature_hashes_once(self, monkeypatch):
        calls = []
        real = hashlib.sha256
        monkeypatch.setattr(
            hashlib, "sha256", lambda data: calls.append(1) or real(data)
        )
        step = chain_step(3, 1)
        assert len({step.signature for _ in range(1000)}) == 1
        assert len(calls) == 1
        # A later read is an instance-dict hit: only the lambda is called.
        assert python_calls(lambda: step.signature) == 1

    def test_cached_signature_stays_out_of_identity(self):
        unread, read = chain_step(3, 1), chain_step(3, 1)
        signature = read.signature
        assert unread == read and hash(unread) == hash(read)
        assert repr(unread) == repr(read)
        for original in (unread, read):
            for clone in (
                pickle.loads(pickle.dumps(original)),
                copy.copy(original),
                copy.deepcopy(original),
            ):
                assert clone == original and hash(clone) == hash(original)
                assert clone.signature == signature
        assert chain_step(3, 2).signature != signature
