"""Benchmark: Figure 5 — VM cloning latency distributions.

Cloning time is PPP clone request → resume completion.  Shape checks:
means ordered by memory size and the 256 MB average near the paper's
~52 s (210 s full copy / "around 4x").
"""

from repro.experiments.histfigures import run_figure5


def test_figure5(benchmark, paper_suite, record_table):
    result = benchmark.pedantic(
        lambda: run_figure5(suite=paper_suite), rounds=1, iterations=1
    )
    record_table("figure5_cloning_latency", result.render())

    s32 = result.summaries["32 MB"]
    s64 = result.summaries["64 MB"]
    s256 = result.summaries["256 MB"]
    assert s32.mean < s64.mean < s256.mean
    # Paper anchors: 32 MB clones far under a minute; 256 MB ≈ 52 s.
    assert s32.mean < 25
    assert 35 < s256.mean < 70
    # Larger machines show larger variance (paper's observation).
    assert s256.std > s32.std

    benchmark.extra_info.update(
        {
            "clone_mean_32mb_s": round(s32.mean, 1),
            "clone_mean_64mb_s": round(s64.mean, 1),
            "clone_mean_256mb_s": round(s256.mean, 1),
            "paper_clone_mean_256mb_s": 52.5,
        }
    )
