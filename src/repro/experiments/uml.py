"""The UML production-line study (Section 4.3).

"For a 32 MB UML VM that is instantiated via a full reboot, the
average cloning time is 76 s."  The UML line clones a copy-on-write
root file system (cheap) and then boots the guest (expensive) — no
suspended memory state is copied, so cloning time barely depends on
memory size but is dominated by the boot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import render_summary_table
from repro.experiments.runner import ExperimentRun, run_creation_experiment

__all__ = ["UMLResult", "run_uml", "run_uml_study"]

#: The number reported in Section 4.3.
PAPER_UML_MEAN_S = 76.0


@dataclass
class UMLResult:
    """Reproduced UML study."""

    clone_summary: Summary
    creation_summary: Summary
    run: ExperimentRun

    def render(self) -> str:
        """Paper-style summary table."""
        return render_summary_table(
            "UML production line, 32 MB VM instantiated via full reboot "
            f"(paper: average cloning time {PAPER_UML_MEAN_S:.0f} s)",
            {
                "cloning": self.clone_summary,
                "creation": self.creation_summary,
            },
        )


def run_uml(
    seed: int = 2004, count: int = 40, memory_mb: int = 32
) -> UMLResult:
    """Run the UML boot-clone experiment."""
    run = run_creation_experiment(
        memory_mb,
        count,
        seed=seed,
        vm_type="uml",
    )
    return UMLResult(
        clone_summary=summarize(run.clone_times),
        creation_summary=summarize(run.creation_latencies),
        run=run,
    )


@dataclass
class SBUMLResult:
    """Boot-clone vs. SBUML checkpoint-resume clone (ongoing work,
    Section 4.3: 'With checkpointing techniques such as SBUML, it is
    possible to clone virtual machines from the corresponding
    snapshots and resume them without a full reboot')."""

    boot: Summary
    resume: Summary

    @property
    def speedup(self) -> float:
        """Boot-clone mean over resume-clone mean."""
        return self.boot.mean / self.resume.mean

    def render(self) -> str:
        return render_summary_table(
            "UML cloning: full reboot vs. SBUML checkpoint resume "
            f"(32 MB; resume is {self.speedup:.1f}x faster)",
            {"boot": self.boot, "resume (SBUML)": self.resume},
        )


def run_sbuml(
    seed: int = 2004, count: int = 20, memory_mb: int = 32
) -> SBUMLResult:
    """Compare boot-based and checkpoint-resume UML cloning."""
    from repro.sim.cluster import build_testbed
    from repro.workloads.requests import golden_image

    boot = run_creation_experiment(
        memory_mb, count, seed=seed, vm_type="uml"
    )

    # An SBUML-checkpointed warehouse: replace the boot image.
    bed = build_testbed(
        seed=seed,
        vm_types=("uml",),
        memory_sizes=(),
        extra_images=[
            golden_image(memory_mb, vm_type="uml", checkpointed=True)
        ],
    )
    resume = run_creation_experiment(
        memory_mb, count, seed=seed, vm_type="uml", testbed=bed
    )
    return SBUMLResult(
        boot=summarize(boot.clone_times),
        resume=summarize(resume.clone_times),
    )


def run_uml_study(
    seed: int = 2004, sbuml: bool = False
) -> Union[UMLResult, SBUMLResult]:
    """``vmplants uml``: the Section 4.3 table, or its SBUML extension.

    :param sbuml: compare boot vs. SBUML checkpoint-resume cloning
    """
    return run_sbuml(seed=seed) if sbuml else run_uml(seed=seed)
