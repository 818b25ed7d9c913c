"""Benchmarks: extension experiments beyond the paper's evaluation.

* **SBUML checkpoint-resume** — the "on-going experimental studies"
  of Section 4.3: cloning UML VMs from snapshots instead of booting;
* **request concurrency** — the paper's methodology is sequential;
  this sweeps in-flight limits and shows the NFS-contention /
  makespan trade-off;
* **migration** — Section 6 future work: per-size migration latency
  and pressure-relieving rebalancing.
"""

from benchmarks.conftest import PAPER_SEED
from repro.experiments.concurrency import run_concurrency
from repro.experiments.migration_exp import run_migration
from repro.experiments.uml import run_sbuml


def test_extension_sbuml(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_sbuml(seed=PAPER_SEED),
        rounds=1,
        iterations=1,
    )
    record_table("extension_sbuml", result.render())
    # Resume-from-snapshot removes the ~72 s boot.
    assert result.speedup > 3.0
    assert result.resume.mean < result.boot.minimum
    benchmark.extra_info["sbuml_speedup"] = round(result.speedup, 1)


def test_extension_concurrency(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_concurrency(seed=PAPER_SEED),
        rounds=1,
        iterations=1,
    )
    record_table("extension_concurrency", result.render())
    # Contention slows individual clones monotonically ...
    assert (
        result.cloning[1].mean
        < result.cloning[4].mean
        < result.cloning[8].mean
    )
    # ... while the batch still finishes sooner.
    assert result.makespan[8] < result.makespan[4] < result.makespan[1]
    benchmark.extra_info.update(
        {
            "makespan_seq_s": round(result.makespan[1], 0),
            "makespan_8way_s": round(result.makespan[8], 0),
        }
    )


def test_extension_migration(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_migration(seed=PAPER_SEED), rounds=1, iterations=1
    )
    record_table("extension_migration", result.render())
    lat = result.latency_by_memory
    assert lat[32] < lat[64] < lat[256]
    # Rebalancing takes the source out of the pressure regime.
    assert result.pressure_before > 1.5
    assert result.pressure_after < 1.1
    assert result.clone_after < 0.7 * result.clone_before
    benchmark.extra_info.update(
        {
            "migrate_256mb_s": round(lat[256], 1),
            "pressure_relief": (
                f"{result.pressure_before:.2f}->"
                f"{result.pressure_after:.2f}"
            ),
        }
    )


def test_extension_scalability(benchmark, record_table):
    from repro.experiments.scalability import run_scalability

    result = benchmark.pedantic(
        lambda: run_scalability(seed=PAPER_SEED),
        rounds=1,
        iterations=1,
    )
    record_table("extension_scalability", result.render())
    flat32, brok32 = result.calls_per_create[32]
    # Flat bidding talks to every plant; brokers cut it drastically
    # without hurting placement latency.
    assert flat32 == 33.0
    assert brok32 < flat32 / 3
    flat_lat, brok_lat = result.latency[32]
    assert brok_lat < flat_lat * 1.2
    benchmark.extra_info.update(
        {"flat_msgs_32": flat32, "brokered_msgs_32": brok32}
    )


def test_extension_resilience(benchmark, record_table):
    from repro.experiments.resilience import run_resilience

    result = benchmark.pedantic(
        lambda: run_resilience(seed=PAPER_SEED),
        rounds=1,
        iterations=1,
    )
    record_table("extension_resilience", result.render())
    surface_ok, surface_lat = result.outcomes["surface"]
    retry_ok, retry_lat = result.outcomes["retry"]
    # Retrying other bidders converts most failures into successes,
    # at a modest latency premium.
    assert retry_ok > surface_ok
    assert retry_ok >= 0.9 * result.requests
    assert retry_lat < 2.0 * surface_lat
    assert result.recovered > 0
    benchmark.extra_info.update(
        {
            "surface_successes": surface_ok,
            "retry_successes": retry_ok,
        }
    )


def test_extension_warehouse_replicas(benchmark, record_table):
    from repro.experiments.concurrency import run_warehouse_replicas

    result = benchmark.pedantic(
        lambda: run_warehouse_replicas(seed=PAPER_SEED),
        rounds=1,
        iterations=1,
    )
    record_table("extension_warehouse_replicas", result.render())
    # More replicas → faster clones and shorter makespan under load.
    assert result.cloning[2].mean < result.cloning[1].mean
    assert result.cloning[4].mean <= result.cloning[2].mean
    assert result.makespan[4] < result.makespan[1]
    benchmark.extra_info.update(
        {
            "clone_mean_1rep": round(result.cloning[1].mean, 1),
            "clone_mean_4rep": round(result.cloning[4].mean, 1),
        }
    )
