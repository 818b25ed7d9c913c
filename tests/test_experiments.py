"""Smoke/shape tests for the experiment drivers (reduced scales).

The benchmarks run the full paper-scale experiments; here we verify
the drivers' mechanics and the key qualitative shapes at small n so
the test suite stays fast.
"""

import dataclasses
import math
import re
from pathlib import Path

import pytest

import repro.experiments

from repro.experiments.ablations import (
    run_clone_mode_ablation,
    run_cost_model_ablation,
    run_matching_ablation,
    run_speculative_ablation,
)
from repro.experiments.chaos import _fingerprint as chaos_fingerprint
from repro.experiments.costfn import run_costfn
from repro.experiments.histfigures import run_figure4, run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.runner import (
    PAPER_RUNS,
    run_creation_experiment,
    run_creation_suite,
    run_requests,
    serve,
)
from repro.experiments.textnumbers import run_textnumbers
from repro.experiments.uml import run_uml
from repro.faults.audit import leak_report
from repro.plant.production import CloneMode
from repro.sim.cluster import build_testbed
from repro.workloads.requests import poisson_arrivals, request_stream

SMALL_RUNS = {32: (12, 0.0), 64: (12, 0.0), 256: (8, 0.0)}


@pytest.fixture(scope="module")
def small_suite():
    return run_creation_suite(seed=77, runs=SMALL_RUNS)


class TestRunner:
    def test_sample_bookkeeping(self, small_suite):
        run = small_suite[32]
        assert len(run.samples) == 12
        assert len(run.successes) == 12
        assert len(run.clone_times) == 12
        assert all(s.latency > 0 for s in run.successes)

    def test_failures_recorded_not_raised(self):
        run = run_creation_experiment(
            32, 10, seed=77, failure_prob=0.9
        )
        failed = [s for s in run.samples if not s.ok]
        assert failed, "0.9 failure probability must produce failures"
        assert all(math.isnan(s.latency) for s in failed)
        assert all("failed" in s.error for s in failed)

    def test_clone_records_exclude_failures(self):
        run = run_creation_experiment(
            32, 10, seed=77, failure_prob=0.5
        )
        assert len(run.clone_records()) == len(run.successes)

    def test_latency_ordering_across_sizes(self, small_suite):
        import numpy as np

        means = {
            mem: np.mean(run.creation_latencies)
            for mem, run in small_suite.items()
        }
        assert means[32] < means[64] < means[256]


class TestRunnerSatellites:
    def test_failures_property_partitions_samples(self):
        run = run_creation_experiment(32, 12, seed=3, failure_prob=0.4)
        failures = [s for s in run.samples if not s.ok]
        assert failures, "expected injected failures at p=0.4"
        assert len(failures) + len(run.successes) == len(run.samples)
        assert all(s.error for s in failures)

    def test_suite_passes_through_clone_mode_and_n_plants(self):
        suite = run_creation_suite(
            seed=9,
            runs={256: (3, 0.0)},
            n_plants=2,
            clone_mode=CloneMode.COPY,
        )
        run = suite[256]
        records = run.clone_records()
        assert records and all(r.clone_mode == "copy" for r in records)
        assert {s.plant for s in run.successes} <= {"plant0", "plant1"}

    def test_suite_passes_through_vm_type(self):
        suite = run_creation_suite(
            seed=9, runs={32: (2, 0.0)}, vm_type="uml", n_plants=2
        )
        assert suite[32].vm_type == "uml"
        assert all(
            r.vm_type == "uml" for r in suite[32].clone_records()
        )

    def test_suite_takes_only_the_off_pool_and_cache_arguments(self):
        # The end-to-end benchmark's exact call; results in plan order.
        suite = run_creation_suite(
            seed=9, parallel=False, max_workers=None, cache=None
        )
        assert list(suite) == list(PAPER_RUNS)
        assert list(
            run_creation_suite(seed=9, runs={256: (1, 0.0), 32: (1, 0.0)})
        ) == [256, 32]
        for removed in (
            {"parallel": True}, {"cache": object()}, {"max_workers": 2}
        ):
            with pytest.raises(ValueError, match="removed"):
                run_creation_suite(seed=9, runs={32: (1, 0.0)}, **removed)


class TestFigures:
    def test_figure4_histograms(self, small_suite):
        result = run_figure4(suite=small_suite)
        assert set(result.histograms) == {"32 MB", "64 MB", "256 MB"}
        for hist in result.histograms.values():
            assert sum(hist.frequencies) == pytest.approx(1.0)
        text = result.render()
        assert "Figure 4" in text and "256 MB" in text

    def test_figure4_mode_shifts_right_with_memory(self, small_suite):
        result = run_figure4(suite=small_suite)
        assert (
            result.histograms["32 MB"].mode_center
            < result.histograms["256 MB"].mode_center
        )

    def test_figure5_cloning_distributions(self, small_suite):
        result = run_figure5(suite=small_suite)
        assert (
            result.summaries["32 MB"].mean
            < result.summaries["256 MB"].mean
        )
        assert "cloning" in result.render()

    def test_figure6_series_and_trend(self, small_suite):
        result = run_figure6(suite=small_suite)
        series = result.series["32 MB"]
        assert series[0][0] == 1
        assert len(series) == 12
        assert "sequence" in result.render()
        # head_tail_ratio well-defined
        assert result.head_tail_ratio("32 MB") > 0

    def test_figure6_pressure_growth_at_scale(self):
        # 40 requests over 2 plants of 64 MB VMs → 20 per host →
        # strong memory pressure by the tail.
        run = run_creation_experiment(64, 40, seed=3, n_plants=2)
        from repro.experiments.figure6 import Figure6Result
        from repro.analysis.stats import sequence_series

        result = Figure6Result(
            series={"64 MB": sequence_series(run.clone_times)},
            runs={64: run},
        )
        assert result.head_tail_ratio("64 MB", k=5) > 1.3
        assert result.trend_slope("64 MB") > 0


class TestUML:
    def test_uml_mean_near_paper(self):
        result = run_uml(seed=77, count=10)
        assert 60 < result.clone_summary.mean < 95  # paper: 76 s
        assert "76" in result.render()

    def test_uml_creation_exceeds_cloning(self):
        result = run_uml(seed=77, count=6)
        assert result.creation_summary.mean > result.clone_summary.mean


class TestCostFn:
    def test_crossover_at_fourteenth_request(self):
        result = run_costfn(seed=5, requests=16)
        assert result.crossover == 14
        first = result.first_plant
        assert all(
            plant == first for _, plant, _, _ in result.decisions[:13]
        )

    def test_bids_follow_formula(self):
        result = run_costfn(seed=5, requests=16)
        first = result.first_plant
        for seq, _, _, bids in result.decisions[1:13]:
            assert bids[first] == pytest.approx(4.0 * (seq - 1))

    def test_render_mentions_crossover(self):
        assert "crossover" in run_costfn(seed=5).render()

    def test_random_first_pick_varies_with_seed(self):
        picks = {run_costfn(seed=s, requests=1).first_plant
                 for s in range(8)}
        assert len(picks) == 2  # both plants seen across seeds


class TestTextNumbers:
    def test_claims_measured(self, small_suite):
        result = run_textnumbers(seed=77, suite=small_suite)
        assert result.creation_min < result.creation_max
        assert 2.0 < result.copy_over_clone_ratio < 7.0
        assert result.full_copy_clone_time > 150
        text = result.render()
        assert "210" in text and "paper" in text


class TestAblations:
    def test_clone_mode(self):
        result = run_clone_mode_ablation(seed=77, count=3)
        assert result.speedup > 3.0
        assert "link" in result.render()

    def test_matching(self):
        result = run_matching_ablation(seed=77, count=3)
        assert result.residual_with == 6
        assert result.residual_without == 9
        assert (
            result.with_matching.mean < result.without_matching.mean
        )

    def test_speculative(self):
        result = run_speculative_ablation(seed=77, count=3)
        assert result.speculative.mean < result.on_demand.mean
        assert result.pool_hits == 3
        assert result.latency_hidden > 0.3

    def test_cost_model(self):
        result = run_cost_model_ablation(
            seed=77, domains=3, vms_per_domain=3
        )
        assert (
            result.fresh_networks["network+compute"]
            <= result.fresh_networks["memory-headroom"]
        )
        assert result.fresh_networks["network+compute"] == 3


class TestSiteClients:
    """``run_requests`` (closed loop) and ``serve`` (open loop)."""

    def test_serve_keeps_at_most_in_flight_creates_in_the_shop(self):
        bed = build_testbed(seed=5)
        tracer = bed.attach_tracer()
        samples = serve(bed, request_stream(64, 10), in_flight=3)
        assert len(samples) == 10 and all(s.ok for s in samples)
        inside, peak = set(), 0
        for event in tracer.events:
            if event.message == "bids-collected":
                inside.add(event.data["vmid"])
                peak = max(peak, len(inside))
            elif event.message == "created":
                inside.remove(event.data["vmid"])
        assert peak == 3

    def test_no_create_starts_before_its_arrival(self):
        bed = build_testbed(seed=5)
        times = poisson_arrivals(bed.rng, 0.5, 8, stream="test/arrivals")
        started = {}

        def create(index, request):
            started[index] = bed.env.now
            return bed.shop.create(request)

        serve(
            bed, request_stream(64, 8), times=times, in_flight=2,
            create=create,
        )
        assert sorted(started) == list(range(8))
        assert all(started[i] >= at for i, at in enumerate(times))

    def test_hold_then_destroy_leaves_nothing_behind(self):
        held = build_testbed(seed=5)
        serve(held, request_stream(64, 6), hold_s=30.0)
        assert set(leak_report(held).values()) == {0.0}
        kept = build_testbed(seed=5)
        serve(kept, request_stream(64, 6))
        assert leak_report(kept)["host_vms"] == 6.0

    def test_samples_arrive_in_completion_order(self):
        # No arrival times and no gate: every create starts at t=0, so
        # completion order is latency order — not request order.
        samples = serve(build_testbed(seed=5), request_stream(64, 8))
        latencies = [s.latency for s in samples]
        assert latencies == sorted(latencies)
        assert [s.index for s in samples] != list(range(8))

    def test_a_failed_latency_is_time_to_fail_open_and_nan_closed(self):
        def bed():
            return build_testbed(seed=3, clone_failure_prob=0.5)

        opened = serve(bed(), request_stream(32, 12))
        failed = [s for s in opened if not s.ok]
        assert failed and all(s.latency > 0 for s in failed)
        assert all("failed" in s.error for s in failed)
        closed = run_requests(bed(), request_stream(32, 12))
        closed_failed = [s for s in closed.samples if not s.ok]
        assert closed_failed
        assert all(math.isnan(s.latency) for s in closed_failed)
        # The chaos fingerprint hashes a failure's time-to-fail.
        late = [
            s if s.ok else dataclasses.replace(s, latency=s.latency + 1)
            for s in opened
        ]
        assert chaos_fingerprint(late) != chaos_fingerprint(opened)

    def test_serve_on_no_requests_returns_no_samples(self):
        assert serve(build_testbed(seed=5), []) == []

    def test_an_empty_stream_is_an_empty_run(self):
        run = run_creation_experiment(32, 0)
        assert run.samples == [] and run.classads == []
        assert (run.memory_mb, run.vm_type) == (32, "vmware")


#: The modules that may drive a site themselves: the two clients, and
#: costfn, which must read each round's bids before its create.
SITE_CLIENTS = {"runner.py", "costfn.py"}


def test_only_the_site_clients_define_a_create_loop():
    root = Path(repro.experiments.__file__).parent
    pattern = re.compile(r"env\.process\(|\.shop\.create\(")
    found = [
        f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}"
        for path in sorted(root.glob("*.py"))
        if path.name not in SITE_CLIENTS
        for text in [path.read_text(encoding="utf-8")]
        for m in pattern.finditer(text)
    ]
    assert found == []
