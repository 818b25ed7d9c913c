"""Tests for workload builders and analysis utilities."""

import math

import pytest

from repro.analysis.histograms import (
    FIG4_BIN_CENTERS,
    FIG5_BIN_CENTERS,
    histogram,
)
from repro.analysis.stats import bucket_means, sequence_series, summarize
from repro.analysis.tables import (
    find_point,
    point_record,
    render_histogram_table,
    render_series,
    render_summary_table,
    render_table,
)
from repro.core.matching import match_image
from repro.core.spec import HardwareSpec
from repro.plant.warehouse import GoldenImage
from repro.workloads.invigo import (
    INVIGO_ACTIONS,
    invigo_cached_prefix,
    invigo_workspace_dag,
)
from repro.workloads.requests import (
    experiment_dag,
    experiment_request,
    golden_image,
    request_stream,
)


class TestInvigo:
    def test_dag_has_nine_actions(self):
        dag = invigo_workspace_dag()
        assert len(dag) == 9
        dag.validate()

    def test_partial_order_matches_figure3(self):
        dag = invigo_workspace_dag()
        a = INVIGO_ACTIONS
        assert dag.is_before(a["A"], a["F"])
        assert dag.is_before(a["G"], a["H"])
        # G and I are unordered siblings under F.
        assert not dag.is_before(a["G"], a["I"])
        assert not dag.is_before(a["I"], a["G"])

    def test_cached_prefix_is_valid_prefix(self):
        dag = invigo_workspace_dag()
        prefix = [a.name for a in invigo_cached_prefix()]
        assert dag.is_prefix_set(prefix)

    def test_cached_prefix_matches_as_golden_image(self):
        dag = invigo_workspace_dag("arijit")
        image = GoldenImage(
            image_id="ws", vm_type="vmware", os="rh8",
            hardware=HardwareSpec(memory_mb=32),
            performed=tuple(invigo_cached_prefix("arijit")),
        )
        result = match_image(image, dag, HardwareSpec(memory_mb=32), "rh8")
        assert result.matches
        assert result.depth == 3
        assert len(result.residual) == 6

    def test_username_parameterizes_actions(self):
        d1 = invigo_workspace_dag("alice")
        d2 = invigo_workspace_dag("bob")
        assert d1 != d2


class TestRequestWorkloads:
    def test_experiment_dag_shape(self):
        dag = experiment_dag()
        assert dag.topological_sort() == [
            "install-os", "configure-network", "setup-user",
        ]

    def test_golden_image_matches_experiment_request(self):
        image = golden_image(64)
        request = experiment_request(64)
        result = match_image(
            image, request.dag, request.hardware, request.software.os,
            "vmware",
        )
        assert result.matches
        assert result.residual == ("configure-network", "setup-user")

    def test_request_stream_round_robins_domains(self):
        stream = request_stream(32, 4, domains=("d1", "d2"))
        assert [r.network.domain for r in stream] == [
            "d1", "d2", "d1", "d2",
        ]

    def test_request_stream_negative_count_rejected(self):
        with pytest.raises(ValueError):
            request_stream(32, -1)


class TestHistogram:
    def test_counts_and_frequencies(self):
        h = histogram([4, 6, 14, 16, 24], centers=[5, 15, 25])
        assert h.counts == (2, 2, 1)
        assert h.total == 5
        assert sum(h.frequencies) == pytest.approx(1.0)

    def test_clamping_at_both_ends(self):
        h = histogram([-100, 0, 1000], centers=[5, 15, 25])
        assert h.counts == (2, 0, 1)

    def test_edges_at_midpoints(self):
        h = histogram([9.99, 10.01], centers=[5, 15])
        assert h.counts == (1, 1)

    def test_paper_bin_layouts(self):
        assert FIG4_BIN_CENTERS == (5, 15, 25, 35, 45, 55, 65, 75, 85)
        assert FIG5_BIN_CENTERS[-2:] == (60, 70.0)

    def test_mode_and_mean_estimate(self):
        h = histogram([24, 26, 25, 44], centers=[5, 15, 25, 35, 45])
        assert h.mode_center == 25
        assert h.mean_estimate() == pytest.approx((25 * 3 + 45) / 4)

    def test_empty_sample(self):
        h = histogram([], centers=[5, 15])
        assert h.total == 0
        assert h.frequencies == (0.0, 0.0)
        assert math.isnan(h.mean_estimate())

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([1], centers=[5])
        with pytest.raises(ValueError):
            histogram([1], centers=[5, 5])


class TestStats:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.median == pytest.approx(2.5)

    def test_summarize_empty(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_summarize_rejects_nan(self):
        with pytest.raises(ValueError):
            summarize([1.0, float("nan")])

    def test_single_sample_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_sequence_series_one_based(self):
        assert sequence_series([10.0, 20.0]) == [(1, 10.0), (2, 20.0)]

    def test_bucket_means(self):
        means = bucket_means([1, 1, 3, 3, 5], bucket=2)
        assert means == [(2, 1.0), (4, 3.0), (5, 5.0)]
        with pytest.raises(ValueError):
            bucket_means([1], bucket=0)


class TestTables:
    def test_histogram_table_renders_all_series(self):
        series = {
            "32 MB": histogram([10, 20], centers=[5, 15, 25]),
            "64 MB": histogram([20, 30], centers=[5, 15, 25]),
        }
        text = render_histogram_table("T", series)
        assert "32 MB" in text and "64 MB" in text
        assert text.count("\n") > 5

    def test_histogram_table_rejects_mismatched_bins(self):
        series = {
            "a": histogram([1], centers=[5, 15]),
            "b": histogram([1], centers=[5, 25]),
        }
        with pytest.raises(ValueError):
            render_histogram_table("T", series)

    def test_summary_table(self):
        text = render_summary_table("T", {"x": summarize([1.0, 2.0])})
        assert "mean" in text and "x" in text

    def test_series_table_aligns_and_subsamples(self):
        series = {"s": [(i, float(i)) for i in range(1, 101)]}
        text = render_series("T", series, max_rows=10)
        assert text.count("\n") < 20
        assert "100" in text  # last point always kept


    def test_table_reads_every_width_off_the_column_spec(self):
        columns = {"name": "<6", "n": ">4d", "p95 (s)": ">8.1f", "ok": ">5"}
        text = render_table(
            "T", columns, [("a", 3, 12.34, "2/3"), ("b", 10, None, None)]
        )
        assert text.split("\n") == [
            "T",
            "",
            "name      n  p95 (s)    ok",
            "--------------------------",
            "a         3     12.3   2/3",
            "b        10        -     -",
        ]

    def test_table_rules_off_its_notes_and_aligns_a_note_that_is_a_row(self):
        text = render_table(
            "", {"x": ">3d", "y": ">5.1f"}, [(1, 2.0)], [("n", "7"), "done"]
        )
        assert text.split("\n") == [
            "  x     y", "---------", "  1   2.0", "---------",
            "  n     7", "done",
        ]

    def test_series_table_leaves_a_missing_point_blank(self):
        text = render_series("T", {"a": [(1, 1.0), (2, 2.0)], "b": [(2, 3.0)]})
        assert text.split("\n")[4:] == [
            "         1        1.0           ",
            "         2        2.0        3.0",
        ]

    def test_point_record_is_the_fields_as_declared(self):
        from dataclasses import dataclass, field

        @dataclass(frozen=True)
        class Point:
            shards: int
            cost: dict = field(metadata={"splice": True})
            p95_s: float = field(metadata={"round": 2})
            derived = ("doubled",)

            @property
            def doubled(self):
                return 2 * self.shards

        points = [Point(1, {"wall_s": 0.5}, 1.23456), Point(2, {}, 2.0)]
        assert list(point_record(points[0]).items()) == [
            ("shards", 1), ("wall_s", 0.5), ("p95_s", 1.23), ("doubled", 2)
        ]
        assert find_point(points, shards=2) is points[1]
        with pytest.raises(KeyError, match="shards=3"):
            find_point(points, shards=3)


class TestPoissonArrivals:
    def test_reproducible_and_increasing(self):
        from repro.sim.rng import RngHub
        from repro.workloads.requests import poisson_arrivals

        a = poisson_arrivals(RngHub(5), rate_per_s=0.5, count=20)
        b = poisson_arrivals(RngHub(5), rate_per_s=0.5, count=20)
        assert a == b
        assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))

    def test_mean_interarrival_near_rate(self):
        from repro.sim.rng import RngHub
        from repro.workloads.requests import poisson_arrivals

        times = poisson_arrivals(RngHub(5), rate_per_s=2.0, count=2000)
        gaps = [t2 - t1 for t1, t2 in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        assert 0.4 < mean < 0.6  # 1/rate = 0.5

    def test_validation(self):
        from repro.sim.rng import RngHub
        from repro.workloads.requests import poisson_arrivals

        with pytest.raises(ValueError):
            poisson_arrivals(RngHub(5), rate_per_s=0.0, count=1)
        with pytest.raises(ValueError):
            poisson_arrivals(RngHub(5), rate_per_s=1.0, count=-1)

    def test_open_loop_drive(self):
        """Arrivals drive an open-loop creation workload end to end."""
        from repro.sim.cluster import build_testbed
        from repro.workloads.requests import (
            poisson_arrivals,
            request_stream,
        )

        bed = build_testbed(seed=73, n_plants=4)
        times = poisson_arrivals(bed.rng, rate_per_s=0.05, count=6)
        done = []

        def arrive(at, request):
            yield bed.env.timeout(at)
            ad = yield from bed.shop.create(request)
            done.append(str(ad["vmid"]))

        for at, request in zip(times, request_stream(32, 6)):
            bed.env.process(arrive(at, request))
        bed.env.run()
        assert len(done) == 6
