"""Benchmark: the Section 3.4 cost-function illustration.

Two plants, network cost 50, compute cost 4/VM: the first plant keeps
winning until it hosts 13 VMs; the 14th request switches to the second
plant and allocates another host-only network.
"""

from benchmarks.conftest import PAPER_SEED
from repro.experiments.costfn import run_costfn


def test_cost_function_crossover(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_costfn(seed=PAPER_SEED),
        rounds=1,
        iterations=1,
    )
    record_table("costfn_section34", result.render())

    assert result.crossover == 14  # exactly the paper's arithmetic
    first = result.first_plant
    assert all(
        plant == first for _, plant, _, _ in result.decisions[:13]
    )
    # The 13th request was still cheaper on the loaded plant (48 < 50).
    _, _, winning_bid, bids = result.decisions[12]
    assert winning_bid == 48.0
    # The 14th paid the other plant's network cost.
    _, plant14, bid14, _ = result.decisions[13]
    assert plant14 != first and bid14 == 50.0

    benchmark.extra_info.update(
        {"crossover_request": result.crossover, "paper_crossover": 14}
    )
