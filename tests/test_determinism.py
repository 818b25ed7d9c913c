"""Bit-exact determinism of the whole reproduction pipeline.

DESIGN.md promises that every figure regenerates identically for a
given seed — these tests pin that contract, including across
completely fresh testbeds.
"""

from repro.experiments.costfn import run_costfn
from repro.experiments.runner import run_creation_experiment
from repro.sim.cluster import build_testbed
from repro.workloads.requests import experiment_request


class TestDeterminism:
    def test_creation_experiment_bit_identical(self):
        def fingerprint():
            run = run_creation_experiment(32, 16, seed=99)
            return (
                tuple(run.creation_latencies),
                tuple(r.total_time for r in run.clone_records()),
                tuple(s.plant for s in run.successes),
            )

        assert fingerprint() == fingerprint()

    def test_different_seeds_differ(self):
        a = run_creation_experiment(32, 8, seed=1).creation_latencies
        b = run_creation_experiment(32, 8, seed=2).creation_latencies
        assert a != b

    def test_costfn_decisions_identical(self):
        a = run_costfn(seed=99).decisions
        b = run_costfn(seed=99).decisions
        assert a == b

    def test_single_create_classads_identical(self):
        def fingerprint():
            bed = build_testbed(seed=99)
            ad = bed.run(bed.shop.create(experiment_request(64)))
            return ad.to_string()

        assert fingerprint() == fingerprint()

    def test_failure_pattern_deterministic(self):
        def failures():
            run = run_creation_experiment(
                32, 20, seed=99, failure_prob=0.3
            )
            return tuple(s.ok for s in run.samples)

        assert failures() == failures()


class TestGoldenTrajectories:
    """Bit-identity across kernel optimizations.

    The hashes below were captured on the *pre-optimization* kernel
    (before ``__slots__``, the heap micro-optimizations and the
    timer rework in ``sim/network.py``).  The optimized kernel must
    reproduce them exactly: optimizations may only change wall-clock
    time, never the trajectory.
    """

    SUITE_FP = (
        "4419f05b1e2d6032e877b636535242e0e2838c0a68083691788f6be5ebc8e583"
    )
    RUN_FP = (
        "bb8dfdcda74edfa59d5710deef16c0aca77409ddfc9eb48d45a2303c666a2a95"
    )
    FIG4_RENDER = (
        "f6e1906930a1a26b3d9c663949914469b9f4038131fb6173ac1f24ebc766824d"
    )
    FIG5_RENDER = (
        "931d5454ddda497198479d4905ab3f32ff284382786b0f73d9aa1ebf3ffcd132"
    )
    TRACE_FP = (
        "755764023c33c038d44e687a3762a29d032930c5d031becb08ee9a3bf68b4f26"
    )

    @staticmethod
    def _sha(text: str) -> str:
        import hashlib

        return hashlib.sha256(text.encode()).hexdigest()

    def test_paper_suite_samples_match_golden(self):
        import hashlib

        from repro.experiments.runner import run_creation_suite

        suite = run_creation_suite(seed=2004)
        h = hashlib.sha256()
        for memory in sorted(suite):
            run = suite[memory]
            for s in run.samples:
                h.update(
                    repr(
                        (
                            s.index,
                            s.memory_mb,
                            s.ok,
                            s.latency,
                            s.vmid,
                            s.plant,
                            s.error,
                        )
                    ).encode()
                )
            h.update(
                repr(
                    [
                        (
                            r.vmid,
                            r.started_at,
                            r.copy_time,
                            r.resume_time,
                            r.total_time,
                            r.pressure,
                            r.host_vms_before,
                        )
                        for r in run.clone_records()
                    ]
                ).encode()
            )
        assert h.hexdigest() == self.SUITE_FP

    def test_single_run_matches_golden(self):
        run = run_creation_experiment(32, 16, seed=7, failure_prob=0.1)
        fp = self._sha(
            repr(
                [
                    (s.index, s.ok, s.latency, s.vmid, s.plant)
                    for s in run.samples
                ]
            )
        )
        assert fp == self.RUN_FP

    def test_figure_renders_match_golden(self):
        from repro.experiments.histfigures import run_figure4, run_figure5
        from repro.experiments.runner import run_creation_suite

        suite = run_creation_suite(seed=2004)
        assert self._sha(run_figure4(suite=suite).render()) == (
            self.FIG4_RENDER
        )
        assert self._sha(run_figure5(suite=suite).render()) == (
            self.FIG5_RENDER
        )

    def test_event_trajectory_matches_golden(self):
        """Traced event stream (times, categories, payloads) is stable."""
        from repro.workloads.requests import request_stream

        bed = build_testbed(seed=11, n_plants=2)
        tracer = bed.attach_tracer()

        def client():
            for request in request_stream(32, 4):
                yield from bed.shop.create(request)

        bed.run(client())
        fp = self._sha(
            repr(
                [
                    (
                        e.time,
                        e.category,
                        e.message,
                        tuple(sorted(e.data.items())),
                    )
                    for e in tracer.events
                ]
            )
        )
        assert fp == self.TRACE_FP
