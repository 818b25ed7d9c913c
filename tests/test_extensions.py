"""Tests for SBUML cloning, the concurrency experiment and the CLI."""

import pytest

from repro.experiments.concurrency import run_concurrency
from repro.experiments.migration_exp import run_migration
from repro.experiments.uml import run_sbuml
from repro.workloads.requests import experiment_request, golden_image


class TestSBUML:
    def test_checkpointed_image_carries_memory_state(self):
        image = golden_image(64, vm_type="uml", checkpointed=True)
        assert image.memory_state_mb == 64.0
        assert image.image_id.endswith("-sbuml")
        plain = golden_image(64, vm_type="uml")
        assert plain.memory_state_mb == 0.0

    def test_vmware_defaults_to_checkpointed(self):
        assert golden_image(64).memory_state_mb == 64.0
        cold = golden_image(64, checkpointed=False)
        assert cold.memory_state_mb == 0.0

    def test_sbuml_resume_much_faster_than_boot(self):
        result = run_sbuml(seed=31, count=6)
        assert result.speedup > 3.0
        assert result.resume.mean < 25
        assert "SBUML" in result.render()

    def test_sbuml_resume_still_slower_for_bigger_memory(self):
        small = run_sbuml(seed=31, count=4, memory_mb=32)
        big = run_sbuml(seed=31, count=4, memory_mb=256)
        assert big.resume.mean > small.resume.mean


class TestConcurrency:
    @pytest.fixture(scope="class")
    def result(self):
        return run_concurrency(
            seed=31, memory_mb=64, requests=16, levels=(1, 4)
        )

    def test_contention_slows_individual_clones(self, result):
        assert result.cloning[4].mean > result.cloning[1].mean

    def test_concurrency_shrinks_makespan(self, result):
        assert result.makespan[4] < result.makespan[1]

    def test_all_requests_complete(self, result):
        for level in (1, 4):
            assert result.latency[level].count == 16

    def test_render(self, result):
        text = result.render()
        assert "in-flight" in text and "makespan" in text


class TestMigrationExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_migration(seed=31)

    def test_latency_grows_with_memory(self, result):
        lat = result.latency_by_memory
        assert lat[32] < lat[64] < lat[256]

    def test_rebalancing_relieves_pressure(self, result):
        assert result.pressure_before > 1.5
        assert result.pressure_after == pytest.approx(1.0)
        assert result.clone_after < result.clone_before

    def test_render(self, result):
        assert "rebalancing" in result.render()


class TestCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_demo(self, capsys):
        code, out = self.run_cli(capsys, "demo", "--seed", "7")
        assert code == 0
        assert "created vmshop-vm-00001" in out
        assert "destroyed" in out

    def test_costfn(self, capsys):
        code, out = self.run_cli(capsys, "costfn", "--seed", "7")
        assert code == 0
        assert "crossover" in out

    def test_uml_sbuml_flag(self, capsys):
        code, out = self.run_cli(
            capsys, "uml", "--sbuml", "--seed", "7"
        )
        assert code == 0
        assert "SBUML" in out

    def test_unknown_command_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_seed_changes_demo_output(self, capsys):
        _, out_a = self.run_cli(capsys, "demo", "--seed", "1")
        _, out_b = self.run_cli(capsys, "demo", "--seed", "2")
        assert out_a != out_b

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401 - import must not execute main


class TestResilience:
    def test_retry_policy_recovers_failures(self):
        from repro.experiments.resilience import run_resilience

        result = run_resilience(seed=51, requests=12, failure_prob=0.3)
        surface_ok, _ = result.outcomes["surface"]
        retry_ok, _ = result.outcomes["retry"]
        assert retry_ok >= surface_ok
        assert retry_ok >= 10
        assert result.recovered > 0
        assert "resilience" in result.render()

    def test_zero_failure_rate_all_succeed(self):
        from repro.experiments.resilience import run_resilience

        result = run_resilience(seed=51, requests=6, failure_prob=0.0)
        for ok, _lat in result.outcomes.values():
            assert ok == 6


class TestLeases:
    def make(self):
        from repro.plant.reaper import LeaseReaper
        from repro.sim.cluster import build_testbed

        bed = build_testbed(seed=71, n_plants=1)
        reaper = LeaseReaper(bed.env, bed.plants[0], period=5.0)
        return bed, reaper

    def leased_request(self, lease_s):
        from dataclasses import replace

        return replace(experiment_request(32), lease_s=lease_s)

    def test_lease_stamped_in_classad(self):
        bed, _ = self.make()
        ad = bed.run(bed.shop.create(self.leased_request(100.0)))
        assert ad["lease_expires_at"] > bed.env.now

    def test_reaper_collects_expired_vm(self):
        bed, reaper = self.make()
        reaper.start()
        bed.run(bed.shop.create(self.leased_request(30.0)))
        bed.env.run(until=bed.env.now + 60.0)
        assert bed.plants[0].active_vm_count() == 0
        assert len(reaper.reaped) == 1

    def test_unleased_vm_never_reaped(self):
        bed, reaper = self.make()
        reaper.start()
        bed.run(bed.shop.create(experiment_request(32)))
        bed.env.run(until=bed.env.now + 200.0)
        assert bed.plants[0].active_vm_count() == 1
        assert reaper.reaped == []

    def test_lease_not_yet_expired_survives_sweep(self):
        bed, reaper = self.make()
        bed.run(bed.shop.create(self.leased_request(10_000.0)))
        reaped = bed.run(reaper.sweep())
        assert reaped == 0
        assert bed.plants[0].active_vm_count() == 1

    def test_reaper_stop(self):
        bed, reaper = self.make()
        reaper.start()
        bed.run(bed.shop.create(self.leased_request(1000.0)))
        reaper.stop()
        bed.env.run(until=bed.env.now + 2000.0)
        # Nothing sweeps after stop.
        assert bed.plants[0].active_vm_count() == 1

    def test_lease_survives_xml_roundtrip(self):
        from dataclasses import replace

        from repro.core.dagxml import request_from_xml, request_to_xml

        request = replace(experiment_request(32), lease_s=42.5)
        back = request_from_xml(request_to_xml(request))
        assert back.lease_s == 42.5


class TestWarehouseReplicas:
    def test_replicas_relieve_contention(self):
        from repro.experiments.concurrency import run_warehouse_replicas

        result = run_warehouse_replicas(
            seed=71, requests=12, level=6, replica_counts=(1, 2)
        )
        assert result.cloning[2].mean < result.cloning[1].mean
        assert "replicated" in result.render()

    def test_replicated_storage_balances_flows(self):
        from repro.sim.kernel import Environment
        from repro.sim.host import PhysicalHost
        from repro.sim.rng import RngHub
        from repro.sim.storage import (
            NFSServer,
            ReplicatedWarehouseStorage,
        )

        env = Environment()
        replicas = [
            NFSServer(env, f"nfs{i}", rng=RngHub(1)) for i in range(2)
        ]
        storage = ReplicatedWarehouseStorage(replicas)
        hosts = [PhysicalHost(env, f"h{i}") for i in range(4)]

        def copy(host):
            yield from storage.copy_to_host(50.0, host)

        for host in hosts:
            env.process(copy(host))
        env.run()
        # Both replicas carried traffic.
        assert all(r.mb_served > 0 for r in replicas)
        assert storage.mb_served == 200.0

    def test_empty_replica_list_rejected(self):
        import pytest

        from repro.sim.storage import ReplicatedWarehouseStorage

        with pytest.raises(ValueError):
            ReplicatedWarehouseStorage([])

    def test_single_replica_matches_plain_nfs_shape(self):
        from repro.sim.cluster import build_testbed

        bed = build_testbed(seed=71, n_plants=1, nfs_replicas=1)
        ad = bed.run(bed.shop.create(experiment_request(32)))
        assert ad["status"] == "running"
