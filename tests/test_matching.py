"""Unit tests for the Section 3.2 golden-image matching criterion."""

import pytest

from repro.core.actions import Action
from repro.core.dag import ConfigDAG
from repro.core.matching import (
    hardware_test,
    match_image,
    partial_order_test,
    prefix_test,
    select_golden,
    signature_test,
    subset_test,
)
from repro.core.spec import HardwareSpec
from repro.plant.warehouse import GoldenImage


def fig3_dag():
    """The Figure 3 workspace DAG: A→B→C→D→E→F, F→{G→H, I}."""
    actions = {n: Action(n, command=f"do-{n}") for n in "ABCDEFGHI"}
    dag = ConfigDAG.from_edges(
        list(actions.values()),
        [
            ("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"),
            ("E", "F"), ("F", "G"), ("G", "H"), ("F", "I"),
        ],
    )
    return dag, actions


def image(performed, mem=32, os="rh8", vm_type="vmware", image_id="img"):
    return GoldenImage(
        image_id=image_id,
        vm_type=vm_type,
        os=os,
        hardware=HardwareSpec(memory_mb=mem),
        performed=tuple(performed),
        memory_state_mb=float(mem),
    )


class TestThreeTests:
    def test_subset(self):
        dag, _ = fig3_dag()
        assert subset_test("ABC", dag)
        assert subset_test([], dag)
        assert not subset_test(["A", "Z"], dag)

    def test_prefix(self):
        dag, _ = fig3_dag()
        assert prefix_test("ABC", dag)
        assert prefix_test([], dag)
        assert not prefix_test(["B"], dag)  # A missing
        assert not prefix_test(["A", "C"], dag)  # B missing
        assert not prefix_test(["Z"], dag)

    def test_partial_order(self):
        dag, _ = fig3_dag()
        assert partial_order_test(list("ABC"), dag)
        assert partial_order_test(list("ABCDEFGIH"), dag)
        # G and I are unordered: either interleaving is fine.
        assert partial_order_test(list("ABCDEFIGH"), dag)
        assert not partial_order_test(["B", "A"], dag)
        assert not partial_order_test(["A", "A"], dag)  # duplicates
        assert not partial_order_test(["Z"], dag)

    def test_signature_conflict(self):
        dag, actions = fig3_dag()
        clean = [actions["A"]]
        conflicting = [Action("A", command="something-else")]
        assert signature_test(clean, dag)
        assert not signature_test(conflicting, dag)
        # Actions not in the DAG never conflict (subset test catches
        # them separately).
        assert signature_test([Action("Z", command="zzz")], dag)


class TestHardware:
    def test_memory_must_match_exactly(self):
        assert hardware_test(
            HardwareSpec(memory_mb=64), HardwareSpec(memory_mb=64)
        )
        assert not hardware_test(
            HardwareSpec(memory_mb=128), HardwareSpec(memory_mb=64)
        )

    def test_disk_must_cover_request(self):
        assert hardware_test(
            HardwareSpec(disk_gb=8.0), HardwareSpec(disk_gb=4.0)
        )
        assert not hardware_test(
            HardwareSpec(disk_gb=2.0), HardwareSpec(disk_gb=4.0)
        )

    def test_isa_must_match(self):
        assert not hardware_test(
            HardwareSpec(isa="sparc"), HardwareSpec(isa="x86")
        )


class TestMatchImage:
    def test_figure3_scenario(self):
        """The cached A-B-C image matches and leaves D..I residual."""
        dag, actions = fig3_dag()
        img = image([actions[n] for n in "ABC"])
        result = match_image(img, dag, HardwareSpec(memory_mb=32), "rh8")
        assert result.matches
        assert result.satisfied == ("A", "B", "C")
        assert list(result.residual) == ["D", "E", "F", "G", "H", "I"]
        assert result.depth == 3

    def test_blank_image_matches_everything(self):
        dag, _ = fig3_dag()
        result = match_image(
            image([]), dag, HardwareSpec(memory_mb=32), "rh8"
        )
        assert result.matches
        assert len(result.residual) == 9

    def test_reject_reasons(self):
        dag, actions = fig3_dag()
        hw = HardwareSpec(memory_mb=32)
        cases = {
            "os": match_image(image([]), dag, hw, "windows"),
            "vm-type": match_image(
                image([]), dag, hw, "rh8", vm_type="uml"
            ),
            "hardware": match_image(
                image([], mem=64), dag, hw, "rh8"
            ),
            "subset": match_image(
                image([Action("Z", command="z")]), dag, hw, "rh8"
            ),
            "prefix": match_image(
                image([actions["B"]]), dag, hw, "rh8"
            ),
            "signature-conflict": match_image(
                image([Action("A", command="evil")]), dag, hw, "rh8"
            ),
        }
        for reason, result in cases.items():
            assert not result.matches
            assert result.reason == reason

    def test_partial_order_violation_detected(self):
        dag, actions = fig3_dag()
        # Performed B before A: subset ok, prefix ok ({A,B} downward
        # closed), but the recorded order violates the DAG.
        img = image([actions["B"], actions["A"]])
        result = match_image(img, dag, HardwareSpec(memory_mb=32), "rh8")
        assert not result.matches
        assert result.reason == "partial-order"


class TestSelectGolden:
    def test_deepest_prefix_wins(self):
        dag, actions = fig3_dag()
        shallow = image([actions["A"]], image_id="shallow")
        deep = image(
            [actions[n] for n in "ABCDE"], image_id="deep"
        )
        best, result, all_results = select_golden(
            [shallow, deep], dag, HardwareSpec(memory_mb=32), "rh8"
        )
        assert best is deep
        assert result.depth == 5
        assert len(all_results) == 2

    def test_tie_broken_by_image_id(self):
        dag, actions = fig3_dag()
        a = image([actions["A"]], image_id="aaa")
        b = image([actions["A"]], image_id="bbb")
        best, _, _ = select_golden(
            [b, a], dag, HardwareSpec(memory_mb=32), "rh8"
        )
        assert best is a

    def test_no_match_returns_none(self):
        dag, _ = fig3_dag()
        best, result, all_results = select_golden(
            [image([], os="windows")],
            dag,
            HardwareSpec(memory_mb=32),
            "rh8",
        )
        assert best is None and result is None
        assert len(all_results) == 1

    def test_empty_warehouse(self):
        dag, _ = fig3_dag()
        best, result, all_results = select_golden(
            [], dag, HardwareSpec(memory_mb=32), "rh8"
        )
        assert best is None and all_results == []
