"""The in-text numbers of Sections 1 and 4.3.

* "efficient cloning allows a VMware-based VMPlant prototype to
  achieve VM creation in 17 to 85 seconds";
* "VMs to be instantiated, on average, in 25 to 48 seconds";
* "the virtual disk of the golden machine … occupies 2 GBytes of
  storage (spanned across 16 files) and takes 210 seconds to be fully
  copied — around 4 times slower than the average cloning time of the
  256 MB VM".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.tables import render_table
from repro.experiments.runner import (
    ExperimentRun,
    run_creation_experiment,
    run_creation_suite,
)
from repro.plant.production import CloneMode

__all__ = ["TextNumbersResult", "run_textnumbers"]


@dataclass
class TextNumbersResult:
    """Measured counterparts of the paper's prose claims."""

    creation_min: float
    creation_max: float
    mean_by_memory: Dict[int, float]
    clone_mean_256: float
    full_copy_clone_time: float
    copy_over_clone_ratio: float
    runs: Dict[int, ExperimentRun]

    def render(self) -> str:
        """Claim-by-claim comparison table."""
        averages = self.mean_by_memory.values()
        means = ", ".join(
            f"{m}MB={v:.1f}s" for m, v in sorted(self.mean_by_memory.items())
        )
        return render_table(
            "In-text numbers (paper vs. measured)",
            {"claim": "<44", "paper": ">12", "measured": ">12"},
            [
                ("creation range (s)", "17 - 85",
                 f"{self.creation_min:.0f} - {self.creation_max:.0f}"),
                ("creation averages (s)", "25 - 48",
                 f"{min(averages):.0f} - {max(averages):.0f}"),
                ("full 2GB disk copy (s)", "210",
                 f"{self.full_copy_clone_time:.0f}"),
                ("copy / 256MB-clone ratio", "~4x",
                 f"{self.copy_over_clone_ratio:.1f}x"),
            ],
            [f"per-size creation means: {means}"],
        )


def run_textnumbers(
    seed: int = 2004,
    suite: Optional[Dict[int, ExperimentRun]] = None,
) -> TextNumbersResult:
    """Measure every prose claim of Section 4.3."""
    runs = suite or run_creation_suite(seed=seed)
    all_latencies = [
        lat for run in runs.values() for lat in run.creation_latencies
    ]
    mean_by_memory = {
        memory: float(np.mean(run.creation_latencies))
        for memory, run in runs.items()
    }
    clone_mean_256 = float(np.mean(runs[256].clone_times))

    # One full-disk COPY clone of the 256 MB golden machine on a fresh
    # testbed (the paper's 210 s comparison point).
    copy_run = run_creation_experiment(
        256, 1, seed=seed + 999, clone_mode=CloneMode.COPY
    )
    # The paper's 210 s is the disk copy itself; the clone record's
    # copy phase is the equivalent measurement.
    full_copy_clone_time = copy_run.clone_records()[0].copy_time

    return TextNumbersResult(
        creation_min=float(np.min(all_latencies)),
        creation_max=float(np.max(all_latencies)),
        mean_by_memory=mean_by_memory,
        clone_mean_256=clone_mean_256,
        full_copy_clone_time=full_copy_clone_time,
        copy_over_clone_ratio=full_copy_clone_time / clone_mean_256,
        runs=runs,
    )
