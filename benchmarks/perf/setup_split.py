"""What an end-to-end set-up probe's ``setup_s`` is made of.

``benchmarks/e2e/run.py`` times each set-up probe in a fresh
interpreter, from its first line to the workload's ``setup()``
returning.  Under ``PYTHONDONTWRITEBYTECODE=1`` no ``.pyc`` is ever
written, so every probe compiles each project module it imports from
source.  This script times the same imports and the same ``setup()``
call in fresh interpreters, twice: with that setting (cold), and with
the bytecode cached under a scratch ``PYTHONPYCACHEPREFIX`` (warm).
Per workload, medians of :data:`PROBES` interpreters each way:

* ``compile_s``: cold total minus warm total;
* ``module_exec_s``: the warm imports (module bodies, stdlib included);
* ``setup_call_s``: the warm ``setup()`` call;
* ``src_modules``: how many ``repro`` modules the probe imports.

Usage (the record is what it prints)::

    python3 benchmarks/perf/setup_split.py > benchmarks/results/E2E_setup_split.json
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 7919
#: Fresh interpreters per workload, cold and warm each.
PROBES = 5
#: The probe, minus the interpreter's own start: imports, then set-up.
CHILD = """
import sys, time
t0 = time.perf_counter()
import benchmarks.e2e.run as run
workload = run.WORKLOADS[{workload!r}]
t1 = time.perf_counter()
workload.setup({seed}, workload.scaled(1.0))
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, sum(name.split(".")[0] == "repro" for name in sys.modules))
"""


def _child(workload: str, cache: str | None):
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    env.pop("PYTHONPYCACHEPREFIX", None)
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = cache
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(workload=workload, seed=SEED)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    imports_s, call_s, modules = done.stdout.split()
    return float(imports_s), float(call_s), int(modules)


def split(workload: str, cache: str) -> dict:
    _child(workload, cache)  # fills the bytecode cache
    cold = [_child(workload, None) for _ in range(PROBES)]
    warm = [_child(workload, cache) for _ in range(PROBES)]
    med = lambda rows, i: statistics.median(row[i] for row in rows)  # noqa: E731
    total_cold = statistics.median(a + b for a, b, _ in cold)
    total_warm = statistics.median(a + b for a, b, _ in warm)
    return {
        "total_s": round(total_cold, 4),
        "compile_s": round(total_cold - total_warm, 4),
        "module_exec_s": round(med(warm, 0), 4),
        "setup_call_s": round(med(warm, 1), 4),
        "src_modules": cold[0][2],
    }


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as cache:
        rows = {name: split(name, cache) for name in sorted(WORKLOADS)}
    record = {
        "command": "python3 benchmarks/perf/setup_split.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "probes": PROBES,
        "workloads": rows,
    }
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
