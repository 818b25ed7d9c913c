"""Extension experiment: migrating active VMs across plants (§6).

Two measurements:

* **migration latency vs. memory size** — suspend + state transfer
  over the gigabit inter-node link + resume, for the paper's three
  golden-machine sizes;
* **rebalancing** — a plant overloaded with clones (deep memory
  pressure) sheds half of them to an idle plant; host pressure drops
  on the source, directly improving subsequent cloning there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

from repro.analysis.tables import render_table
from repro.plant.migration import MigrationManager
from repro.sim.cluster import build_testbed
from repro.workloads.requests import experiment_request

__all__ = ["MigrationResult", "run_migration"]


@dataclass
class MigrationResult:
    """Measured migration behaviour."""

    #: memory size → mean migration time (s).
    latency_by_memory: Dict[int, float]
    #: source-host pressure factor before/after rebalancing.
    pressure_before: float
    pressure_after: float
    #: clone time on the overloaded source before/after rebalancing.
    clone_before: float
    clone_after: float

    def render(self) -> str:
        return render_table(
            "Extension: migration of active VMs across plants (§6 "
            "future work)",
            {"memory (MB)": ">12d", "migration time (s)": ">19.1f"},
            sorted(self.latency_by_memory.items()),
            [
                f"rebalancing 16 -> 8 clones: source pressure "
                f"{self.pressure_before:.2f} -> {self.pressure_after:.2f}, "
                f"clone time {self.clone_before:.1f}s -> "
                f"{self.clone_after:.1f}s"
            ],
        )


def run_migration(seed: int = 2004) -> MigrationResult:
    """Run both migration measurements."""
    latency_by_memory: Dict[int, float] = {}
    for memory in (32, 64, 256):
        bed = build_testbed(seed=seed, n_plants=2)
        manager = MigrationManager(bed.env, link=bed.internode)
        src, dst = bed.plants
        bed.run(src.create(experiment_request(memory), "mig-vm"))
        start = bed.env.now
        bed.run(manager.migrate(src, dst, "mig-vm"))
        latency_by_memory[memory] = bed.env.now - start

    # Rebalancing: overload plant0 with 16 x 64 MB clones
    # (the Figure 6 pressure regime).
    bed = build_testbed(seed=seed, n_plants=2)
    manager = MigrationManager(bed.env, link=bed.internode)
    src, dst = bed.plants

    def load() -> Generator:
        for i in range(16):
            yield src.create(experiment_request(64), f"vm{i}")

    bed.run(load())
    pressure_before = bed.hosts[0].pressure_factor()
    clone_before = bed.lines["vmware"][0].clone_records[-1].total_time

    def rebalance() -> Generator:
        for i in range(8):
            yield manager.migrate(src, dst, f"vm{i}")

    bed.run(rebalance())
    pressure_after = bed.hosts[0].pressure_factor()

    # One more clone on the relieved source plant.
    bed.run(src.create(experiment_request(64), "vm-post"))
    clone_after = bed.lines["vmware"][0].clone_records[-1].total_time

    return MigrationResult(
        latency_by_memory=latency_by_memory,
        pressure_before=pressure_before,
        pressure_after=pressure_after,
        clone_before=clone_before,
        clone_after=clone_after,
    )
