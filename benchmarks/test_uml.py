"""Benchmark: the Section 4.3 UML production-line study.

"For a 32 MB UML VM that is instantiated via a full reboot, the
average cloning time is 76 s."  Also checks the structural claim: the
boot-based UML line is far slower than VMware's resume-based cloning
for the same golden-machine size.
"""

from benchmarks.conftest import PAPER_SEED
from repro.experiments.uml import run_uml


def test_uml_boot_clone(benchmark, paper_suite, record_table):
    result = benchmark.pedantic(
        lambda: run_uml(seed=PAPER_SEED), rounds=1, iterations=1
    )
    record_table("uml_boot_clone", result.render())

    mean = result.clone_summary.mean
    assert 60 < mean < 95  # paper: 76 s
    # Boot-based UML cloning ≫ VMware resume-based cloning at 32 MB.
    vmware_mean = sum(paper_suite[32].clone_times) / len(
        paper_suite[32].clone_times
    )
    assert mean > 3 * vmware_mean

    benchmark.extra_info.update(
        {
            "uml_clone_mean_s": round(mean, 1),
            "paper_uml_clone_mean_s": 76.0,
            "vmware_32mb_clone_mean_s": round(vmware_mean, 1),
        }
    )
