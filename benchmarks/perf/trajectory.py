"""Trajectory files: what every perf script appends to and every smoke
test reads back.

A trajectory is a JSON list of records under ``benchmarks/results/``,
one record per run, oldest first.  Every record opens with the same
host fields so that a number can be read next to the machine that
produced it.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Optional

from benchmarks.e2e.workloads import usable_cores

__all__ = [
    "RESULTS",
    "host_fields",
    "append_record",
    "load_trajectory",
    "latest_record",
]

#: Where the committed trajectories live.
RESULTS = Path(__file__).resolve().parent.parent / "results"


def host_fields(small: bool) -> dict:
    """When, at which scale and on what host a record was taken."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": "small" if small else "paper",
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
    }


def load_trajectory(path: Path) -> list:
    """The recorded trajectory (empty if absent or corrupt)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return []
    return data if isinstance(data, list) else []


def latest_record(path: Path, workload: str) -> Optional[dict]:
    """The newest record of one workload (None when there is none):
    after ``<name>_bench --small``, the record that run just wrote."""
    for record in reversed(load_trajectory(path)):
        if record.get("workload") == workload:
            return record
    return None


def append_record(path: Path, record: dict) -> None:
    """Append one record; the file is replaced whole, never torn."""
    trajectory = load_trajectory(path)
    trajectory.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
