"""Benchmark: Figure 4 — overall VM creation latency distributions.

Regenerates the paper's three creation experiments (128 requests at
32 MB and 64 MB, 40 at 256 MB, sequential through VMShop over 8
plants) and prints the normalized latency distribution per golden-
machine size.  Shape checks: larger memory ⇒ larger latency; the
32 MB mode sits near the paper's 25 s bin.
"""

from benchmarks.conftest import PAPER_SEED
from repro.experiments.histfigures import run_figure4
from repro.experiments.runner import run_creation_suite


def test_figure4(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_figure4(suite=run_creation_suite(seed=PAPER_SEED)),
        rounds=1,
        iterations=1,
    )
    record_table("figure4_creation_latency", result.render())

    h32 = result.histograms["32 MB"]
    h64 = result.histograms["64 MB"]
    h256 = result.histograms["256 MB"]
    # Paper shape: means ordered by memory size, 32 MB mode near 25 s.
    assert (
        h32.mean_estimate() < h64.mean_estimate() < h256.mean_estimate()
    )
    assert h32.mode_center in (15, 25, 35)
    assert h256.mode_center >= 45
    # Success counts in the paper's regime (121/128, 124/128, 40/40).
    assert 115 <= h32.total <= 128
    assert 115 <= h64.total <= 128
    assert h256.total == 40

    benchmark.extra_info.update(
        {
            "mean_32mb_s": round(result.summaries["32 MB"].mean, 1),
            "mean_64mb_s": round(result.summaries["64 MB"].mean, 1),
            "mean_256mb_s": round(result.summaries["256 MB"].mean, 1),
            "paper_mean_range_s": "25-48",
        }
    )
